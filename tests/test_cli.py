import csv
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import gridlab
from gridlab import cli
from gridlab.cli import main
from gridlab.graph import BoundReport, SimpleGraph, gr_load, gr_loads
from gridlab.minors import MinorModel, model_dumps, verify_model


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_gen_tw_check_pipeline(tmp_path):
    runner = CliRunner()
    emb = tmp_path / "w2.emb"
    grf = tmp_path / "w2.gr"
    td = tmp_path / "w2.td"
    assert run(runner, ["gen", "wheel-map", "--r", "2",
                        "-o", str(emb)]).exit_code == 0
    assert run(runner, ["derive", str(emb), "--map",
                        "-o", str(grf)]).exit_code == 0
    res = run(runner, ["tw", str(grf), "--exact", "-o", str(td)])
    assert res.exit_code == 0
    assert "width 3" in res.output  # the map graph of wheel r=2 is K4
    assert run(runner, ["check", "--td", str(td),
                        "--gr", str(grf)]).exit_code == 0


def test_derive_union_is_radial_plus_dual(tmp_path):
    runner = CliRunner()
    emb = tmp_path / "m.emb"
    run(runner, ["gen", "random-map", "--nations", "5", "--seed", "3",
                 "-o", str(emb)])
    paths = {}
    for kind in ("radial", "dual", "union"):
        paths[kind] = tmp_path / f"{kind}.gr"
        assert run(runner, ["derive", str(emb), f"--{kind}",
                            "-o", str(paths[kind])]).exit_code == 0
    radial = gr_load(paths["radial"])
    dual = gr_load(paths["dual"])
    union = gr_load(paths["union"])
    n = union.n - dual.n
    shifted = {(n + a, n + b) for a, b in dual.edges}
    assert union.edges == radial.edges | shifted


def test_lift_radial_to_map(tmp_path):
    runner = CliRunner()
    emb = tmp_path / "m.emb"
    rad = tmp_path / "rad.gr"
    td_r = tmp_path / "rad.td"
    td_m = tmp_path / "map.td"
    mapg = tmp_path / "map.gr"
    run(runner, ["gen", "random-map", "--nations", "4", "-o", str(emb)])
    run(runner, ["derive", str(emb), "--radial", "-o", str(rad)])
    run(runner, ["derive", str(emb), "--map", "-o", str(mapg)])
    assert run(runner, ["tw", str(rad), "-o", str(td_r)]).exit_code == 0
    assert run(runner, ["lift", "--radial-to-map", str(emb), str(td_r),
                        "-o", str(td_m)]).exit_code == 0
    assert run(runner, ["check", "--td", str(td_m),
                        "--gr", str(mapg)]).exit_code == 0


def test_power_witness(tmp_path):
    runner = CliRunner()
    grf = tmp_path / "star.gr"
    lines = ["p tw 10 9"] + [f"1 {i}" for i in range(2, 11)]
    grf.write_text("\n".join(lines) + "\n")
    res = run(runner, ["power", str(grf), "--k", "2", "--witness-r", "3"])
    assert res.exit_code == 0
    assert "clique witness" in res.output


def test_power_refuses_a_false_degree_bound(tmp_path, monkeypatch):
    grf = tmp_path / "p4.gr"
    grf.write_text("p tw 4 3\n1 2\n2 3\n3 4\n")
    # in P_4 squared, vertices 2 and 3 (ids 1 and 2) have 3 neighbors
    monkeypatch.setattr(gridlab.graph, "power_clique_or_bound",
                        lambda g, k, r: BoundReport(k=k, r=r, parity="even",
                                                    degree_bound=3,
                                                    center=0))
    res = run(CliRunner(), ["power", str(grf), "--k", "2",
                            "--witness-r", "1"])
    assert_one_error_line(res, 1)
    assert "vertex 1 has 3 >= 3" in res.stderr


def test_grid_minor_and_transfer(tmp_path):
    runner = CliRunner()
    emb = tmp_path / "ng.emb"
    seq = tmp_path / "ng.json"
    model = tmp_path / "model.json"
    assert run(runner, ["gen", "nation-grid", "--size", "12",
                        "-o", str(emb),
                        "--seq-output", str(seq)]).exit_code == 0
    res = run(runner, ["transfer", "--emb", str(emb), "--seq", str(seq),
                       "-o", str(model)])
    assert res.exit_code == 0
    assert "1x1" in res.output
    assert run(runner, ["check", "--model", str(model)]).exit_code == 0


def test_check_flags_broken_model(tmp_path):
    runner = CliRunner()
    model = tmp_path / "bad.json"
    grf = tmp_path / "k4.gr"
    run(runner, ["gen", "grid", "--rows", "2", "--cols", "2",
                 "-o", str(grf)])
    res = run(runner, ["grid-minor", str(grf), "-o", str(model)])
    assert res.exit_code == 0
    obj = json.loads(model.read_text())
    obj["edge_witness"] = []
    model.write_text(json.dumps(obj))
    res = run(runner, ["check", "--model", str(model)])
    assert res.exit_code == 1


def test_malformed_gr_is_usage_error(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.gr"
    bad.write_text("p cnf 3 1\n1 2\n")
    res = run(runner, ["tw", str(bad)])
    assert res.exit_code == 2


def test_tw_size_refusal(tmp_path):
    runner = CliRunner()
    grf = tmp_path / "big.gr"
    run(runner, ["gen", "grid", "--rows", "3", "--cols", "7",
                 "-o", str(grf)])
    res = run(runner, ["tw", str(grf), "--exact"])
    assert res.exit_code == 3
    assert run(runner, ["tw", str(grf), "--upper"]).exit_code == 0


def test_sweep_wheel(tmp_path):
    runner = CliRunner()
    out = tmp_path / "sweep.csv"
    res = run(runner, ["sweep", "--family", "wheel",
                       "--values", "1,2", "-o", str(out)])
    assert res.exit_code == 0
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    widths = sorted(int(r["tw_M"]) for r in rows)
    assert widths == [0, 3]
    assert all(r["verdict"] == "ok" for r in rows)


def test_sweep_empty_values_gives_header_only(tmp_path):
    runner = CliRunner()
    out = tmp_path / "empty.csv"
    res = run(runner, ["sweep", "--family", "map", "--values", "",
                       "-o", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1


def test_sweep_keeps_the_traceback_of_a_bug(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--family", "wheel", "--values", "1", "-o", str(out)]

    def refused(r, seed):
        raise ValueError("no such wheel")

    monkeypatch.setitem(cli._SWEEP_FAMILIES, "wheel", (refused, "r"))
    res = run(CliRunner(), args)
    assert res.exit_code == 1
    with out.open() as f:
        [row] = csv.DictReader(f)
    assert row["error"] == "ValueError: no such wheel"

    def buggy(r, seed):
        raise RuntimeError("bug in a row")

    monkeypatch.setitem(cli._SWEEP_FAMILIES, "wheel", (buggy, "r"))
    with pytest.raises(RuntimeError, match="bug in a row"):
        run(CliRunner(), args)


def test_gen_missing_param_is_usage_error(tmp_path):
    runner = CliRunner()
    res = run(runner, ["gen", "wheel-map", "-o", str(tmp_path / "x.emb")])
    assert res.exit_code == 2


def assert_one_error_line(res, code, names=None):
    """Exit `code` with exactly one `error:` line on stderr and no
    traceback."""
    assert res.exit_code == code, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    assert "Traceback" not in res.output
    if names is not None:
        assert names in lines[0]


OK_GR = "p tw 2 1\n1 2\n"
EMPTY_OP_SEQ = json.dumps({"host": {"n": 2, "edges": [[0, 1]]},
                           "ops": [[]]})


@pytest.mark.parametrize("name, content, command", [
    ("bad.gr", b"p tw x 1\n", ["tw", "{bad}"]),
    ("bad.gr", b"p tw 2 1\n1 1\n", ["tw", "{bad}"]),
    ("bad.gr", b"\xff\xfep tw 2 1\n1 2\n", ["tw", "{bad}"]),
    ("bad.td", b"s td 1 2 2\nb x 1 2\n",
     ["check", "--td", "{bad}", "--gr", "{ok}"]),
    ("bad.td", b"s td 1 0 2\nb\n", ["check", "--td", "{bad}", "--gr", "{ok}"]),
    ("bad.td", b"s td 2 1 2\nb 1 1\nb 2 2\n1 1\n",
     ["check", "--td", "{bad}", "--gr", "{ok}"]),
    ("bad.json", b"[1, 2]\n", ["check", "--model", "{bad}"]),
    ("bad.json", EMPTY_OP_SEQ.encode(),
     ["transfer", "--emb", "{emb}", "--seq", "{bad}"]),
])
def test_malformed_input_exits_2_naming_the_file(tmp_path, name, content,
                                                 command):
    runner = CliRunner()
    paths = {"bad": tmp_path / name, "ok": tmp_path / "ok.gr",
             "emb": tmp_path / "w.emb"}
    paths["bad"].write_bytes(content)
    paths["ok"].write_text(OK_GR)
    run(runner, ["gen", "wheel-map", "--r", "1", "-o", str(paths["emb"])])
    args = [a.format(**{k: str(p) for k, p in paths.items()})
            for a in command]
    assert_one_error_line(run(runner, args), 2, names=str(paths["bad"]))


def test_each_error_kind_maps_to_its_exit_code(tmp_path):
    runner = CliRunner()
    # ConstructionError: the sequence without its edge deletions leaves
    # a graph that is not a grid
    emb, seq = tmp_path / "ng.emb", tmp_path / "ng.json"
    run(runner, ["gen", "nation-grid", "--size", "12", "-o", str(emb),
                 "--seq-output", str(seq)])
    obj = json.loads(seq.read_text())
    obj["ops"] = [op for op in obj["ops"] if op[0] != "delete_edge"]
    seq.write_text(json.dumps(obj))
    assert_one_error_line(run(runner, ["transfer", "--emb", str(emb),
                                       "--seq", str(seq)]), 1)
    # ValueError: a well-formed .td that does not decompose the radial
    # graph
    m, td = tmp_path / "m.emb", tmp_path / "bad.td"
    run(runner, ["gen", "random-map", "--nations", "4", "-o", str(m)])
    td.write_text("s td 1 1 1\nb 1 1\n")
    assert_one_error_line(run(runner, ["lift", "--radial-to-map", str(m),
                                       str(td), "-o",
                                       str(tmp_path / "out.td")]), 1)
    # ValueError from the library: no grid minor of an empty graph
    empty = tmp_path / "empty.gr"
    empty.write_text("p tw 0 0\n")
    assert_one_error_line(run(runner, ["grid-minor", str(empty)]), 1)
    # OSError: an output path in a missing directory
    assert_one_error_line(run(runner, [
        "gen", "grid", "--rows", "2", "--cols", "2",
        "-o", str(tmp_path / "missing" / "g.gr")]), 2)


def test_out_of_memory_is_a_size_refusal(tmp_path):
    # under a 1 GiB address-space cap, the min-fill heuristic cannot
    # allocate the adjacency of a graph with 10^10 isolated vertices
    huge = tmp_path / "huge.gr"
    huge.write_text("p tw 10000000000 0\n")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from gridlab.cli import main\n"
            "main(sys.argv[1:])\n")
    src = os.path.dirname(os.path.dirname(gridlab.__file__))
    res = subprocess.run(
        [sys.executable, "-c", code, "tw", "--upper", str(huge)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 3, res.stderr
    assert res.stderr == "error: out of memory\n"


@pytest.mark.parametrize("option, value", [
    ("--k", "0"), ("--witness-r", "0"), ("--witness-r", "-1")])
def test_power_ranges_are_usage_errors(tmp_path, option, value):
    grf = tmp_path / "g.gr"
    grf.write_text(OK_GR)
    args = ["power", str(grf), "--k", "1", option, value]
    assert run(CliRunner(), args).exit_code == 2


# a pattern key with no pattern vertex, naming host vertex 7 of a
# 1-vertex host; a witness on a pattern non-edge; an extra key whose
# branch set overlaps another
BAD_CERTIFICATES = [
    MinorModel(SimpleGraph(1), SimpleGraph(1), {0: {0}, 1: {7}}, {}),
    MinorModel(SimpleGraph(2), SimpleGraph(2, [(0, 1)]), {0: {0}, 1: {1}},
               {(0, 1): (0, 1)}),
    MinorModel(SimpleGraph(1), SimpleGraph(1), {0: {0}, 1: {0}}, {}),
]


@pytest.mark.parametrize("model", BAD_CERTIFICATES)
def test_check_rejects_keys_outside_the_pattern(tmp_path, model):
    assert verify_model(model) is not None
    path = tmp_path / "model.json"
    path.write_text(model_dumps(model))
    assert_one_error_line(run(CliRunner(), ["check", "--model", str(path)]),
                          1)
