import csv
import io
import json
import os
import re
import stat
import subprocess
import sys
import types
from contextlib import redirect_stderr, redirect_stdout

import pytest

import gridlab
from gridlab import cli
from gridlab.cli import main
from gridlab.decomposition import (lift_power, lift_radial_to_map, td_dumps,
                                   treewidth_exact)
from gridlab.embedding import (FaceLabeling, all_nations, canonicalize,
                               emb_dumps, emb_loads, is_canonical, map_graph,
                               radial_graph)
from gridlab.generators import (grid, partially_triangulated_grid,
                                random_planar_triangulation, wheel_map)
from gridlab.graph import (BoundReport, CliqueWitness, SimpleGraph,
                           gr_dumps, gr_loads, power_graph)
from gridlab.minors import (MinorModel, largest_grid_minor, model_dumps,
                            nation_grid_transfer_instance,
                            radial_grid_to_dual_grid, sequence_dumps,
                            verify_model)


def run(args):
    """Run the CLI in process on `args`: the exit code (of a SystemExit,
    else 0), stdout, stderr and their concatenation `output`.  Any other
    exception propagates."""
    out, err, code = io.StringIO(), io.StringIO(), 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code
    return types.SimpleNamespace(
        exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
        output=out.getvalue() + err.getvalue())


def test_gen_tw_check_pipeline(tmp_path):
    emb = tmp_path / "w2.emb"
    grf = tmp_path / "w2.gr"
    td = tmp_path / "w2.td"
    assert run(["gen", "wheel-map", "--r", "2",
                "-o", str(emb)]).exit_code == 0
    assert run(["derive", str(emb), "--map",
                "-o", str(grf)]).exit_code == 0
    res = run(["tw", str(grf), "--exact", "-o", str(td)])
    assert res.exit_code == 0
    assert "width 3" in res.output  # the map graph of wheel r=2 is K4
    res = run(["check", "--td", str(td), "--gr", str(grf)])
    assert res.exit_code == 0 and res.output == "ok: width <= 3\n"


def test_derive_union_is_radial_plus_dual(tmp_path):
    emb = tmp_path / "m.emb"
    run(["gen", "random-map", "--nations", "5", "--seed", "3",
         "-o", str(emb)])
    paths = {}
    for kind in ("radial", "dual", "union"):
        paths[kind] = tmp_path / f"{kind}.gr"
        assert run(["derive", str(emb), f"--{kind}",
                    "-o", str(paths[kind])]).exit_code == 0
    radial = gr_loads(paths["radial"].read_text())
    dual = gr_loads(paths["dual"].read_text())
    union = gr_loads(paths["union"].read_text())
    n = union.n - dual.n
    shifted = {(n + a, n + b) for a, b in dual.edges}
    assert union.edges == radial.edges | shifted


def test_lift_radial_to_map(tmp_path):
    emb = tmp_path / "m.emb"
    rad = tmp_path / "rad.gr"
    td_r = tmp_path / "rad.td"
    td_m = tmp_path / "map.td"
    mapg = tmp_path / "map.gr"
    run(["gen", "random-map", "--nations", "4", "-o", str(emb)])
    run(["derive", str(emb), "--radial", "-o", str(rad)])
    run(["derive", str(emb), "--map", "-o", str(mapg)])
    assert run(["tw", str(rad), "-o", str(td_r)]).exit_code == 0
    assert run(["lift", "--radial-to-map", str(emb), str(td_r),
                "-o", str(td_m)]).exit_code == 0
    assert run(["check", "--td", str(td_m),
                "--gr", str(mapg)]).exit_code == 0


def test_lift_power(tmp_path):
    g, g2 = tmp_path / "g.gr", tmp_path / "g2.gr"
    td, td2 = tmp_path / "g.td", tmp_path / "g2.td"
    run(["gen", "ptgrid", "--rows", "3", "--cols", "3",
         "-o", str(g)])
    run(["power", str(g), "--k", "2", "-o", str(g2)])
    assert run(["tw", str(g), "-o", str(td)]).exit_code == 0
    res = run(["lift", "--power", "2", "--gr", str(g), str(td),
               "-o", str(td2)])
    assert res.exit_code == 0 and res.output.startswith("width ")
    assert run(["check", "--td", str(td2),
                "--gr", str(g2)]).exit_code == 0
    res = run(["lift", "--power", "2", str(td), "-o", str(td2)])
    assert res.exit_code == 2
    assert "--power needs --gr" in res.output


def test_lifted_grid_decomposition_has_maximal_bags(tmp_path):
    # one bag per vertex would give the 36 bags of the 6x6 grid
    g, g2 = tmp_path / "g.gr", tmp_path / "g2.gr"
    td, td2 = tmp_path / "g.td", tmp_path / "g2.td"
    run(["gen", "grid", "--rows", "6", "--cols", "6", "-o", str(g)])
    run(["power", str(g), "--k", "2", "-o", str(g2)])
    assert run(["tw", str(g), "--upper", "-o", str(td)]).exit_code == 0
    assert run(["lift", "--power", "2", "--gr", str(g), str(td),
                "-o", str(td2)]).exit_code == 0
    _, _, bags, _, n = td2.read_text().split("\n", 1)[0].split()
    assert n == "36" and int(bags) < 36
    assert run(["check", "--td", str(td2),
                "--gr", str(g2)]).exit_code == 0


def test_gen_ptgrid_and_triangulation(tmp_path):
    grf, tri = tmp_path / "pt.gr", tmp_path / "tri.emb"
    assert run(["gen", "ptgrid", "--rows", "3", "--cols", "4",
                "--seed", "1", "-o", str(grf)]).exit_code == 0
    assert gr_loads(grf.read_text()) == partially_triangulated_grid(3, 4, 1)
    assert run(["gen", "triangulation", "--n", "8", "--seed", "2",
                "-o", str(tri)]).exit_code == 0
    e = random_planar_triangulation(8, 2)
    assert tri.read_text() == emb_dumps(e, all_nations(e))


def test_derive_canonicalize(tmp_path):
    src, out = tmp_path / "w.emb", tmp_path / "canon.emb"
    run(["gen", "wheel-map", "--r", "2", "-o", str(src)])
    assert run(["derive", str(src), "--canonicalize",
                "-o", str(out)]).exit_code == 0
    e, fl = emb_loads(out.read_text())
    assert is_canonical(e, fl)
    assert out.read_text() == emb_dumps(*canonicalize(*wheel_map(2)))


def test_check_refuses_a_decomposition_over_other_vertices(tmp_path):
    td, grf = tmp_path / "two.td", tmp_path / "three.gr"
    td.write_text("s td 1 2 2\nb 1 1 2\n")
    grf.write_text("p tw 3 1\n1 2\n")
    res = run(["check", "--td", str(td), "--gr", str(grf)])
    assert_one_error_line(res, 1, names="over 2 vertices, graph has 3")
    # lift reads the same header: a path decomposition of P3 over 99
    # vertices, and a radial decomposition of a wheel map whose radial
    # graph has 5 + 4 vertices, over 7
    out = tmp_path / "out.td"
    td.write_text("s td 2 2 99\nb 1 1 2\nb 2 2 3\n1 2\n")
    grf.write_text("p tw 3 2\n1 2\n2 3\n")
    res = run(["lift", "--power", "2", "--gr", str(grf),
               str(td), "-o", str(out)])
    assert_one_error_line(res, 1, names="over 99 vertices, graph has 3")
    e, fl = wheel_map(2)
    radial, _ = radial_graph(e, fl)
    _, td_r = treewidth_exact(radial)
    td.write_text(td_dumps(td_r, 7))
    wheel = tmp_path / "w.emb"
    wheel.write_text(emb_dumps(e, fl))
    res = run(["lift", "--radial-to-map", str(wheel), str(td),
               "-o", str(out)])
    assert_one_error_line(res, 1, names="over 7 vertices, graph has 9")
    assert not out.exists()


@pytest.mark.parametrize("family, value", [
    ("map", "4"), ("power", "6"), ("primal-dual", "6")])
def test_sweep_families(tmp_path, family, value):
    out = tmp_path / "sweep.csv"
    res = run(["sweep", "--family", family, "--values", value,
               "-o", str(out)])
    assert res.exit_code == 0
    with out.open() as f:
        [row] = csv.DictReader(f)
    assert row["family"] == family and row["verdict"] == "ok"


def test_power_witness(tmp_path):
    grf = tmp_path / "star.gr"
    lines = ["p tw 10 9"] + [f"1 {i}" for i in range(2, 11)]
    grf.write_text("\n".join(lines) + "\n")
    res = run(["power", str(grf), "--k", "2", "--witness-r", "3"])
    assert res.exit_code == 0
    assert "clique witness" in res.output
    # no 9 vertices of P_4 squared form a clique, so the case analysis
    # ends in a bound
    p4 = tmp_path / "p4.gr"
    p4.write_text("p tw 4 3\n1 2\n2 3\n3 4\n")
    res = run(["power", str(p4), "--k", "2", "--witness-r", "3"])
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == (
        "degree bound: max_degree(G^k) = 3 < 81 (even case)")


def test_power_refuses_a_false_degree_bound(tmp_path, monkeypatch):
    grf = tmp_path / "p4.gr"
    grf.write_text("p tw 4 3\n1 2\n2 3\n3 4\n")
    # r = 1 claims that no vertex of G^2 has a neighbor; in P_4 squared
    # vertex 0 (id 1 in the file) has 2
    monkeypatch.setattr(gridlab.graph, "power_clique_or_bound",
                        lambda g, k, r: BoundReport(k=k, r=r, center=0))
    res = run(["power", str(grf), "--k", "2",
               "--witness-r", "1"])
    assert_one_error_line(res, 1)
    assert "vertex 0 has 2 >= 1" in res.stderr


def test_power_refuses_a_false_clique_witness(tmp_path, monkeypatch):
    grf = tmp_path / "p4.gr"
    grf.write_text("p tw 4 3\n1 2\n2 3\n3 4\n")
    # the ends of P_4 lie 3 apart, so they are no clique of P_4 squared
    monkeypatch.setattr(gridlab.graph, "power_clique_or_bound",
                        lambda g, k, r: CliqueWitness({0, 3}, k))
    res = run(["power", str(grf), "--k", "2", "--witness-r", "1"])
    assert_one_error_line(res, 1)
    assert res.stderr == "error: witness pair (0, 3) too far apart\n"


def test_grid_minor_and_transfer(tmp_path):
    emb = tmp_path / "ng.emb"
    seq = tmp_path / "ng.json"
    model = tmp_path / "model.json"
    assert run(["gen", "nation-grid", "--size", "12",
                "-o", str(emb),
                "--seq-output", str(seq)]).exit_code == 0
    res = run(["transfer", "--emb", str(emb), "--seq", str(seq),
               "-o", str(model)])
    assert res.exit_code == 0
    assert "1x1" in res.output
    assert run(["check", "--model", str(model)]).exit_code == 0


def test_check_flags_broken_model(tmp_path):
    model = tmp_path / "bad.json"
    grf = tmp_path / "k4.gr"
    run(["gen", "grid", "--rows", "2", "--cols", "2",
         "-o", str(grf)])
    res = run(["grid-minor", str(grf), "-o", str(model)])
    assert res.exit_code == 0
    obj = json.loads(model.read_text())
    obj["edge_witness"] = []
    model.write_text(json.dumps(obj))
    res = run(["check", "--model", str(model)])
    assert res.exit_code == 1


def test_malformed_gr_is_usage_error(tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("p cnf 3 1\n1 2\n")
    res = run(["tw", str(bad)])
    assert res.exit_code == 2


def test_tw_size_refusal(tmp_path):
    grf = tmp_path / "big.gr"
    run(["gen", "grid", "--rows", "3", "--cols", "7",
         "-o", str(grf)])
    res = run(["tw", str(grf), "--exact"])
    assert res.exit_code == 3
    assert run(["tw", str(grf), "--upper"]).exit_code == 0


def test_sweep_wheel(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run(["sweep", "--family", "wheel",
               "--values", "1,2", "-o", str(out)])
    assert res.exit_code == 0
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    widths = sorted(int(r["tw_M"]) for r in rows)
    assert widths == [0, 3]
    assert all(r["verdict"] == "ok" for r in rows)


def test_sweep_rows_come_in_numeric_value_then_seed_order(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run(["sweep", "--family", "power", "--values",
               "10,9,3,9", "--seeds", "1,0,1", "-o", str(out)])
    assert res.exit_code == 0
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert [(row["n"], row["seed"]) for row in rows] == [
        ("3", "0"), ("3", "1"), ("9", "0"), ("9", "1"), ("10", "0"),
        ("10", "1")]


@pytest.mark.parametrize("family, key, value, extra, error", [
    ("wheel", "r", "0", [], "ValueError"),
    ("map", "nations", "0", [], "ValueError"),
    ("primal-dual", "n", "2", [], "ValueError"),
    ("power", "n", "25", ["--k", "3"], "SizeLimitError"),
], ids=["wheel", "map", "primal-dual", "power"])
def test_sweep_error_row_keeps_its_identity(tmp_path, family, key, value,
                                            extra, error):
    out = tmp_path / "sweep.csv"
    res = run(["sweep", "--family", family, "--values", value,
               *extra, "-o", str(out)])
    assert res.exit_code == 1
    with out.open() as f:
        [row] = csv.DictReader(f)
    assert row["error"].startswith(error + ": ")
    k = extra[1] if extra else ""
    assert (row["schema"], row["family"], row[key], row["k"],
            row["seed"]) == (cli.CSV_SCHEMA, family, value, k, "0")
    identity = {"schema", "family", key, "k", "seed", "error", "runtime_s"}
    assert all(v == "" for c, v in row.items() if c not in identity)


def test_sweep_empty_values_gives_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    res = run(["sweep", "--family", "map", "--values", "",
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
    res = run(args)
    assert res.exit_code == 1
    with out.open() as f:
        [row] = csv.DictReader(f)
    assert row["error"] == "ValueError: no such wheel"

    def buggy(r, seed):
        raise RuntimeError("bug in a row")

    monkeypatch.setitem(cli._SWEEP_FAMILIES, "wheel", (buggy, "r"))
    with pytest.raises(RuntimeError, match="bug in a row"):
        run(args)


@pytest.mark.parametrize("family, size", [
    ("ptgrid", ["--rows", "3", "--cols", "4"]),
    ("random-map", ["--nations", "5"]), ("triangulation", ["--n", "8"])])
def test_gen_seed_defaults_to_0(tmp_path, family, size):
    default, zero = tmp_path / "default", tmp_path / "zero"
    assert run(["gen", family, *size, "-o", str(default)]).exit_code == 0
    assert run(["gen", family, *size, "--seed", "0",
                "-o", str(zero)]).exit_code == 0
    assert default.read_bytes() == zero.read_bytes()


# gen family -> the options it takes besides -o
GEN_OPTIONS = {"wheel-map": ["--r"], "grid": ["--rows", "--cols"],
               "ptgrid": ["--rows", "--cols", "--seed"],
               "random-map": ["--nations", "--seed"],
               "triangulation": ["--n", "--seed"],
               "nation-grid": ["--size", "--seq-output"]}


@pytest.mark.parametrize("command", [
    [], ["gen"], ["derive"], ["tw"], ["lift"], ["check"], ["power"],
    ["grid-minor"], ["transfer"], ["sweep"],
    *(["gen", family] for family in GEN_OPTIONS)],
    ids=lambda command: "-".join(command) or "gridlab")
def test_help_goes_to_stdout(command):
    res = run([*command, "--help"])
    assert res.exit_code == 0 and res.stdout and res.stderr == ""
    if command[1:]:
        # the usage line of a gen family names exactly its options
        usage = res.stdout.split("\n\n")[0]
        assert sorted(re.findall(r"[ \[](-[\w-]+)", usage)) == sorted(
            ["-h", "-o", *GEN_OPTIONS[command[1]]])


def test_gen_missing_param_is_usage_error(tmp_path):
    res = run(["gen", "wheel-map", "-o", str(tmp_path / "x.emb")])
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
EMPTY_OP_SEQ = json.dumps({"ops": [[]]})
# a sequence in the old format, which carried a copy of its host
OLD_FORMAT_SEQ = json.dumps({"host": {"n": 2, "edges": [[0, 1]]},
                             "ops": []})
# branch set keys "0" and "00" that int() would both read as vertex 0
NONCANONICAL_KEY_MODEL = json.dumps({
    "pattern": {"n": 2, "edges": []}, "host": {"n": 2, "edges": []},
    "branch_sets": {"0": [0], "00": [1]}, "edge_witness": []})
# nested deeper than json.loads recurses
DEEP_JSON = b"[" * 100000 + b"]" * 100000
# pattern edge (0, 1) witnessed twice: first by the non-edge (0, 2), then
# as [1, 0] by the host edge (0, 1)
DUPLICATE_WITNESS_MODEL = json.dumps({
    "pattern": {"n": 2, "edges": [[0, 1]]},
    "host": {"n": 3, "edges": [[0, 1]]},
    "branch_sets": {"0": [0], "1": [1]},
    "edge_witness": [[[0, 1], [0, 2]], [[1, 0], [0, 1]]]})


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
    ("bad.json", NONCANONICAL_KEY_MODEL.encode(),
     ["check", "--model", "{bad}"]),
    ("bad.json", DUPLICATE_WITNESS_MODEL.encode(),
     ["check", "--model", "{bad}"]),
    pytest.param("bad.json", DEEP_JSON, ["check", "--model", "{bad}"],
                 id="deep-model"),
    pytest.param("bad.json", DEEP_JSON,
                 ["transfer", "--emb", "{emb}", "--seq", "{bad}"],
                 id="deep-seq"),
    # int() would read this as a 10-vertex graph with edge (1, 2)
    pytest.param("bad.gr", "p tw 1_0 1\n+1 \u0662\n".encode(), ["tw", "{bad}"],
                 id="non-ascii-integers"),
    pytest.param("bad.json", OLD_FORMAT_SEQ.encode(),
                 ["transfer", "--emb", "{emb}", "--seq", "{bad}"],
                 id="old-format-seq"),
    pytest.param("bad.emb", b"emb 2\ntwin 1 0\nnext 0 1\nvertex_of 0 1\n",
                 ["derive", "{bad}", "--map", "-o", "{out}"],
                 id="emb-without-nations"),
])
def test_malformed_input_exits_2_naming_the_file(tmp_path, name, content,
                                                 command):
    paths = {"bad": tmp_path / name, "ok": tmp_path / "ok.gr",
             "emb": tmp_path / "w.emb", "out": tmp_path / "out"}
    paths["bad"].write_bytes(content)
    paths["ok"].write_text(OK_GR)
    run(["gen", "wheel-map", "--r", "1", "-o", str(paths["emb"])])
    args = [a.format(**{k: str(p) for k, p in paths.items()})
            for a in command]
    assert_one_error_line(run(args), 2, names=str(paths["bad"]))


@pytest.mark.parametrize("command, content, message", [
    (["transfer", "--emb", "{emb}", "--seq", "{bad}"],
     {"ops": [["contract", 1]]},
     "operation ['contract', 1] is not ['contract', u, v]"),
    (["transfer", "--emb", "{emb}", "--seq", "{bad}"],
     {"ops": [["delete_vertex", 1, 2]]},
     "operation ['delete_vertex', 1, 2] is not ['delete_vertex', v]"),
    (["transfer", "--emb", "{emb}", "--seq", "{bad}"], {"ops": [[]]},
     "unknown operation []"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 2, "edges": [[0, 1]]},
      "host": {"n": 2, "edges": [[0, 1]]},
      "branch_sets": {"0": [0], "1": [1]}, "edge_witness": [[[0, 1]]]},
     "witness entry [[0, 1]] is not a pair of vertex pairs"),
    (["check", "--td", "{bad}", "--gr", "{ok}"],
     "s td 2 1 2\nb 1 1\nb 1 2\n", "line 3: duplicate bag 1"),
    # the rotation orbit 0 -> 1 -> 0 joins vertices 0 and 1
    (["derive", "{bad}", "--map", "-o", "{out}"],
     "emb 2\ntwin 1 0\nnext 1 0\nvertex_of 0 1\nnations 0\n",
     "rotation orbit of dart 0 mixes vertices"),
    (["derive", "{bad}", "--map", "-o", "{out}"],
     "emb 2\ntwin 1 0\nnext 0 1\nvertex_of 0 2\nnations 0\n",
     "vertex ids must be contiguous from 0"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []}, "host": {"n": -1, "edges": []},
      "branch_sets": {"0": [0]}, "edge_witness": []},
     "vertex count must be nonnegative"),
    # every certificate object takes exactly its keys
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []}, "host": {"n": 1, "edges": []},
      "branch_sets": {"0": [0]}, "edge_witness": [], "width": 1},
     "model: expected a JSON object with exactly the keys ['branch_sets', "
     "'edge_witness', 'host', 'pattern'], found ['branch_sets', "
     "'edge_witness', 'host', 'pattern', 'width']"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []},
      "host": {"n": 1, "edges": [], "m": 0},
      "branch_sets": {"0": [0]}, "edge_witness": []},
     "model host: expected a JSON object with exactly the keys ['edges', "
     "'n'], found ['edges', 'm', 'n']"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []}, "host": {"n": 1, "edges": []},
      "branch_sets": {"0": [0]}},
     "model: expected a JSON object with exactly the keys ['branch_sets', "
     "'edge_witness', 'host', 'pattern'], found ['branch_sets', 'host', "
     "'pattern']"),
    # each value is read as the JSON type its key takes
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []}, "host": {"n": 1, "edges": []},
      "branch_sets": [[0]], "edge_witness": []},
     "model branch_sets: expected a JSON object, found array"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []}, "host": {"n": 1, "edges": []},
      "branch_sets": {"0": 0}, "edge_witness": []},
     "model branch_sets['0']: expected a JSON array, found integer"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []}, "host": {"n": 1, "edges": []},
      "branch_sets": {"0": [0]}, "edge_witness": 0},
     "model edge_witness: expected a JSON array, found integer"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []}, "host": {"n": 1, "edges": 0},
      "branch_sets": {"0": [0]}, "edge_witness": []},
     "model host edges: expected a JSON array, found integer"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []}, "host": {"n": 2, "edges": [[0, 1], 1]},
      "branch_sets": {"0": [0]}, "edge_witness": []},
     "model host edges[1]: expected a JSON array, found integer"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 1, "edges": []}, "host": {"n": 3, "edges": [[0, 1, 2]]},
      "branch_sets": {"0": [0]}, "edge_witness": []},
     "model host edges[0]: expected a pair of vertices, found 3 entries"),
    (["check", "--model", "{bad}"],
     {"pattern": {"n": 2, "edges": [[0, 1], [0]]},
      "host": {"n": 2, "edges": [[0, 1]]},
      "branch_sets": {"0": [0], "1": [1]}, "edge_witness": []},
     "model pattern edges[1]: expected a pair of vertices, found 1 entry"),
    (["transfer", "--emb", "{emb}", "--seq", "{bad}"], {"ops": 5},
     "sequence ops: expected a JSON array, found integer"),
    (["derive", "{bad}", "--map", "-o", "{out}"],
     "emb 2\ntwin 5 0\nnext 0 1\nvertex_of 0 0\nnations 0\n",
     "twin of dart 0: expected a dart id in 0..1, got 5"),
    (["derive", "{bad}", "--map", "-o", "{out}"],
     "emb 2\ntwin 1 2\nnext 0 1\nvertex_of 0 0\nnations 0\n",
     "twin of dart 1: expected a dart id in 0..1, got 2"),
    (["derive", "{bad}", "--map", "-o", "{out}"],
     "emb 3\ntwin 1 0 2\nnext 0 1 2\nvertex_of 0 0 0\nnations 0\n",
     "dart arrays must have equal even length")],
    ids=["contract-1", "delete_vertex-2", "empty-op", "witness-1",
         "td-duplicate-bag", "emb-orbit-mixes-vertices",
         "emb-vertex-ids-not-contiguous", "model-host-n-negative",
         "model-extra-key", "model-host-extra-key",
         "model-without-edge-witness", "model-branch-sets-array",
         "model-branch-set-int", "model-edge-witness-int",
         "model-host-edges-int", "model-host-edge-int",
         "model-host-edge-triple", "model-pattern-edge-single",
         "seq-ops-int", "emb-twin-past-end", "emb-twin-at-dart-count",
         "emb-odd-dart-count"])
def test_malformed_entries_are_named(tmp_path, command, content, message):
    # `content` is the file's text, or an object written as JSON
    paths = {"bad": tmp_path / "bad", "ok": tmp_path / "ok.gr",
             "emb": tmp_path / "w.emb", "out": tmp_path / "out"}
    bad = paths["bad"]
    bad.write_text(content if isinstance(content, str)
                   else json.dumps(content))
    paths["ok"].write_text(OK_GR)
    run(["gen", "wheel-map", "--r", "1", "-o", str(paths["emb"])])
    res = run([a.format(**paths) for a in command])
    assert_one_error_line(res, 2)
    assert res.stderr == f"error: {bad}: {message}\n"


def test_each_error_kind_maps_to_its_exit_code(tmp_path):
    # ConstructionError: the sequence without its edge deletions leaves
    # a graph that is not a grid
    emb, seq = tmp_path / "ng.emb", tmp_path / "ng.json"
    run(["gen", "nation-grid", "--size", "12", "-o", str(emb),
         "--seq-output", str(seq)])
    obj = json.loads(seq.read_text())
    obj["ops"] = [op for op in obj["ops"] if op[0] != "delete_edge"]
    seq.write_text(json.dumps(obj))
    assert_one_error_line(run(["transfer", "--emb", str(emb),
                               "--seq", str(seq)]), 1)
    # ValueError: a well-formed .td that does not decompose the radial
    # graph
    m, td = tmp_path / "m.emb", tmp_path / "bad.td"
    run(["gen", "random-map", "--nations", "4", "-o", str(m)])
    td.write_text("s td 1 1 1\nb 1 1\n")
    assert_one_error_line(run(["lift", "--radial-to-map", str(m),
                               str(td), "-o",
                               str(tmp_path / "out.td")]), 1)
    # ValueError from the library: no grid minor of an empty graph
    empty = tmp_path / "empty.gr"
    empty.write_text("p tw 0 0\n")
    assert_one_error_line(run(["grid-minor", str(empty)]), 1)
    # SizeLimitError: a non-complete host past the grid search's limit
    g44 = tmp_path / "g44.gr"
    run(["gen", "grid", "--rows", "4", "--cols", "4", "-o", str(g44)])
    res = run(["grid-minor", str(g44)])
    assert_one_error_line(res, 3)
    assert res.stderr == ("error: largest_grid_minor needs a complete graph "
                          "or at most 15 vertices, got 16\n")
    # OSError: an output path in a missing directory
    assert_one_error_line(run([
        "gen", "grid", "--rows", "2", "--cols", "2",
        "-o", str(tmp_path / "missing" / "g.gr")]), 2)


def test_sequence_of_another_map_exits_1(tmp_path):
    # the sequence replays on the union built from --emb, so a sequence
    # written for another nation grid fails in replay, and the one error
    # line names both files
    paths = {}
    for size in (12, 18):
        paths[size] = (tmp_path / f"ng{size}.emb",
                       tmp_path / f"ng{size}.json")
        run(["gen", "nation-grid", "--size", str(size),
             "-o", str(paths[size][0]),
             "--seq-output", str(paths[size][1])])
    for a, b in ((12, 18), (18, 12)):
        res = run(["transfer", "--emb", str(paths[a][0]),
                   "--seq", str(paths[b][1])])
        assert_one_error_line(res, 1, "does not fit")
        assert str(paths[a][0]) in res.stderr
        assert str(paths[b][1]) in res.stderr
        # the failing op is named once, as its tuple
        assert res.stderr.count("delete_") == 1
        assert res.stderr.endswith(("): missing vertex\n",
                                    "): edge not present\n"))


def test_transfer_of_a_non_canonical_map_exits_1(tmp_path):
    emb, seq = tmp_path / "ng.emb", tmp_path / "ng.json"
    run(["gen", "nation-grid", "--size", "12", "-o", str(emb),
         "--seq-output", str(seq)])
    # with its least nation turned into a lake, the map is not canonical
    e, fl = emb_loads(emb.read_text())
    fl = FaceLabeling(e, sorted(fl.nations)[1:])
    assert not is_canonical(e, fl)
    emb.write_text(emb_dumps(e, fl))
    res = run(["transfer", "--emb", str(emb), "--seq", str(seq)])
    assert_one_error_line(res, 1, "map is not canonical")


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


@pytest.mark.parametrize("args", [
    pytest.param(["power", "{gr}", "--k", "0"], id="--k-0"),
    pytest.param(["power", "{gr}", "--k", "1", "--witness-r", "0"],
                 id="--witness-r-0"),
    pytest.param(["power", "{gr}", "--k", "1", "--witness-r", "-1"],
                 id="--witness-r--1"),
    pytest.param(["sweep", "--family", "power", "--values", "4",
                  "--k", "0", "-o", "{out}"], id="sweep---k-0")])
def test_power_ranges_are_usage_errors(tmp_path, args):
    grf = tmp_path / "g.gr"
    grf.write_text(OK_GR)
    args = [a.format(gr=grf, out=tmp_path / "out.csv") for a in args]
    assert run(args).exit_code == 2


@pytest.mark.parametrize("args", [
    pytest.param(["lift", "--radial-to-map", "{emb}", "--power", "2",
                  "--gr", "{gr}", "{td}", "-o", "{out}"],
                 id="lift-radial-and-power"),
    pytest.param(["lift", "--radial-to-map", "{emb}", "--gr", "{gr}",
                  "{td}", "-o", "{out}"], id="lift-radial-and-gr"),
    pytest.param(["check", "--model", "{model}", "--td", "{td}",
                  "--gr", "{gr}"], id="check-model-and-td"),
    pytest.param(["derive", "{emb}", "--map", "--dual", "-o", "{out}"],
                 id="derive-two-kinds"),
    pytest.param(["gen", "grid", "--rows", "2", "--cols", "2", "--n", "9",
                  "-o", "{out}"], id="gen-grid---n"),
    pytest.param(["gen", "grid", "--rows", "2", "--cols", "2",
                  "--seq-output", "{seq}", "-o", "{out}"],
                 id="gen-grid---seq-output"),
    pytest.param(["sweep", "--family", "wheel", "--values", "1", "--k", "3",
                  "-o", "{out}"], id="sweep-wheel---k"),
    pytest.param(["gen", "grid", "--rows", "2", "--cols", "2", "--seed", "5",
                  "-o", "{out}"], id="gen-grid---seed"),
    pytest.param(["gen", "wheel-map", "--r", "2", "--seed", "5",
                  "-o", "{out}"], id="gen-wheel-map---seed"),
    # prefixes of --radial-to-map and --witness-r
    pytest.param(["lift", "--radial", "{emb}", "{td}", "-o", "{out}"],
                 id="lift---radial"),
    pytest.param(["power", "{gr}", "--k", "1", "--witness", "1"],
                 id="power---witness"),
    # and of --rows, which a gen family takes no more than a command
    pytest.param(["gen", "grid", "--row", "2", "--cols", "2",
                  "-o", "{out}"], id="gen-grid---row"),
    # and these lack an option or a value the command needs
    pytest.param(["lift", "{td}", "-o", "{out}"], id="lift-no-kind"),
    pytest.param(["check", "--td", "{td}"], id="check---td-no---gr"),
    pytest.param(["sweep", "--family", "wheel", "--values", "a",
                  "-o", "{out}"], id="sweep---values-a"),
    pytest.param(["gen"], id="gen-no-family"),
    pytest.param(["derive", "{emb}", "-o", "{out}"], id="derive-no-kind"),
    pytest.param(["check", "--gr", "{gr}"], id="check---gr-alone"),
    # an empty --gr is a path that cannot be read, not an absent --gr
    pytest.param(["check", "--model", "{model}", "--gr", ""],
                 id="check---model---gr-empty"),
    pytest.param(["lift", "--radial-to-map", "{emb}", "--gr", "", "{td}",
                  "-o", "{out}"], id="lift-radial-and-empty-gr")])
def test_ignored_options_are_usage_errors(tmp_path, args):
    # each command once ran with one of these options silently ignored
    emb, rad = tmp_path / "w.emb", tmp_path / "r.gr"
    td, grf = tmp_path / "r.td", tmp_path / "p3.gr"
    model = tmp_path / "m.json"
    run(["gen", "wheel-map", "--r", "2", "-o", str(emb)])
    run(["derive", str(emb), "--radial", "-o", str(rad)])
    run(["tw", str(rad), "-o", str(td)])
    grf.write_text("p tw 3 2\n1 2\n2 3\n")
    model.write_text(model_dumps(
        MinorModel(SimpleGraph(1), SimpleGraph(1), {0: {0}}, {})))
    out, seq = tmp_path / "out", tmp_path / "seq.json"
    args = [a.format(emb=emb, gr=grf, td=td, model=model, out=out, seq=seq)
            for a in args]
    assert_one_error_line(run(args), 2)
    assert not out.exists() and not seq.exists()


def test_option_values_that_start_with_a_dash(tmp_path, monkeypatch):
    # joined to its option with `=`, a value that starts with `-` is a
    # value; written apart, it is read as an option
    monkeypatch.chdir(tmp_path)
    gen = ["gen", "grid", "--rows", "2", "--cols", "2"]
    sweep = ["sweep", "--family", "power", "--values", "4"]
    assert run(gen + ["--output=-x.gr"]).exit_code == 0
    assert gr_loads((tmp_path / "-x.gr").read_text()) == grid(2, 2)
    assert run(sweep + ["--seeds=-1,2", "-o", "s.csv"]).exit_code == 0
    with open("s.csv") as f:
        assert [row["seed"] for row in csv.DictReader(f)] == ["-1", "2"]
    (tmp_path / "-x.gr").unlink()
    assert_one_error_line(run(gen + ["-o", "-x.gr"]), 2)
    assert_one_error_line(run(sweep + ["--seeds", "-1,2",
                                       "-o", "t.csv"]), 2)
    assert sorted(os.listdir(tmp_path)) == ["s.csv"]


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
    assert_one_error_line(run(["check", "--model", str(path)]),
                          1)


# the bytes `sweep --family wheel --values 1,2` writes with every row
# timed at 0 s
WHEEL_SWEEP_CSV = (
    b"schema,family,r,rows,cols,nations,n,k,seed,tw_M,tw_R,tw_D,tw_union,"
    b"tw_G,tw_Gk,tw_dual,delta_G,delta_Gk,grid_r,verdict,error,runtime_s\r\n"
    b"gridlab-sweep-1,wheel,1,,,,,,0,0,,0,,,,,,,1,ok,,0.000\r\n"
    b"gridlab-sweep-1,wheel,2,,,,,,0,3,,2,,,,,,,2,ok,,0.000\r\n")


def _writer_inputs(tmp_path):
    """The input files of the commands in OUTPUT_OPTIONS, by name with
    its dot as an underscore."""
    paths = {name.replace(".", "_"): tmp_path / name for name in (
        "w.emb", "m.gr", "m.td", "r.gr", "r.td", "ng.emb", "ng.seq")}
    run(["gen", "wheel-map", "--r", "2", "-o", str(paths["w_emb"])])
    run(["derive", str(paths["w_emb"]), "--map",
         "-o", str(paths["m_gr"])])
    run(["derive", str(paths["w_emb"]), "--radial",
         "-o", str(paths["r_gr"])])
    run(["tw", str(paths["m_gr"]), "-o", str(paths["m_td"])])
    run(["tw", str(paths["r_gr"]), "-o", str(paths["r_td"])])
    run(["gen", "nation-grid", "--size", "12",
         "-o", str(paths["ng_emb"]),
         "--seq-output", str(paths["ng_seq"])])
    return {name: str(path) for name, path in paths.items()}


def _wheel_graph():
    """The map graph of wheel_map(2), and an exact decomposition of it."""
    g = map_graph(*wheel_map(2))
    return g, treewidth_exact(g)[1]


def _expected_tw():
    g, td = _wheel_graph()
    return td_dumps(td, g.n)


def _expected_lift_power():
    g, td = _wheel_graph()
    return td_dumps(lift_power(td, g, 2), g.n)


def _expected_lift_radial():
    e, fl = wheel_map(2)
    _, td = treewidth_exact(radial_graph(e, fl)[0])
    return td_dumps(lift_radial_to_map(td, e, fl), len(fl.nations))


def _expected_transfer():
    e, fl, seq = nation_grid_transfer_instance(12)
    return model_dumps(radial_grid_to_dual_grid(seq, e, fl))


# every option that names an output file, with the text it writes
OUTPUT_OPTIONS = [
    pytest.param(["gen", "grid", "--rows", "3", "--cols", "4",
                  "-o", "{out}"], lambda: gr_dumps(grid(3, 4)), id="gen"),
    pytest.param(["gen", "wheel-map", "--r", "2", "-o", "{out}"],
                 lambda: emb_dumps(*wheel_map(2)), id="gen-emb"),
    pytest.param(["gen", "nation-grid", "--size", "12",
                  "-o", "{tmp}/x.emb", "--seq-output", "{out}"],
                 lambda: sequence_dumps(nation_grid_transfer_instance(12)[2]),
                 id="gen---seq-output"),
    pytest.param(["derive", "{w_emb}", "--map", "-o", "{out}"],
                 lambda: gr_dumps(_wheel_graph()[0]), id="derive"),
    pytest.param(["tw", "{m_gr}", "-o", "{out}"], _expected_tw, id="tw"),
    pytest.param(["lift", "--power", "2", "--gr", "{m_gr}", "{m_td}",
                  "-o", "{out}"], _expected_lift_power, id="lift-power"),
    pytest.param(["lift", "--radial-to-map", "{w_emb}", "{r_td}",
                  "-o", "{out}"], _expected_lift_radial, id="lift-radial"),
    pytest.param(["power", "{m_gr}", "--k", "2", "-o", "{out}"],
                 lambda: gr_dumps(power_graph(_wheel_graph()[0], 2)),
                 id="power"),
    pytest.param(["grid-minor", "{m_gr}", "-o", "{out}"],
                 lambda: model_dumps(largest_grid_minor(_wheel_graph()[0])[1]),
                 id="grid-minor"),
    pytest.param(["transfer", "--emb", "{ng_emb}", "--seq", "{ng_seq}",
                  "-o", "{out}"], _expected_transfer, id="transfer"),
    pytest.param(["sweep", "--family", "wheel", "--values", "1,2",
                  "-o", "{out}"], lambda: WHEEL_SWEEP_CSV.decode(),
                 id="sweep"),
]


def _output_args(tmp_path, args, out):
    names = _writer_inputs(tmp_path) | {"tmp": str(tmp_path),
                                        "out": str(out)}
    return [a.format_map(names) for a in args]


@pytest.mark.parametrize("args, expected", OUTPUT_OPTIONS)
def test_outputs_are_rewritten_in_place(tmp_path, monkeypatch, args,
                                        expected):
    # the sweep times each row; at 0 s its bytes are fixed
    monkeypatch.setattr(cli, "time",
                        types.SimpleNamespace(monotonic=lambda: 0.0))
    out = tmp_path / "out"
    args = _output_args(tmp_path, args, out)
    want = expected().encode()

    def write():
        assert run(args).exit_code == 0
        return out.read_bytes()

    assert write() == want  # a new file
    inode = out.stat().st_ino
    out.write_bytes(b"x" * (len(want) + 100))
    assert write() == want  # shorter text over a longer file
    out.write_bytes(b"x")
    assert write() == want  # longer text over a shorter file
    out.write_bytes(b"x" * (len(want) + 7))
    out.chmod(0o604)
    assert write() == want
    assert stat.S_IMODE(out.stat().st_mode) == 0o604
    assert out.stat().st_ino == inode


@pytest.mark.parametrize("args, expected", OUTPUT_OPTIONS)
def test_outputs_to_dev_null_and_to_a_directory(tmp_path, args, expected):
    res = run(_output_args(tmp_path, args, os.devnull))
    assert res.exit_code == 0, res.output
    folder = tmp_path / "folder"
    folder.mkdir()
    (folder / "kept").write_text("kept\n")
    res = run(_output_args(tmp_path, args, folder))
    assert_one_error_line(res, 2, str(folder))
    assert [p.name for p in folder.iterdir()] == ["kept"]
    assert (folder / "kept").read_text() == "kept\n"


def test_check_binds_a_model_to_its_graph(tmp_path):
    # a model of grid(5, 5) in itself with identity branch sets: valid,
    # but a certificate about grid(5, 5) only.  With one pattern edge
    # and its witness dropped it is a valid model of a pattern that is
    # no grid, and with one vertex left one of the 1x1 grid
    g = grid(5, 5)
    forged = tmp_path / "forged.json"
    for pattern, line in ((SimpleGraph(1), "ok: 1x1 grid minor\n"),
                          (SimpleGraph(25, g.edges - {min(g.edges)}),
                           "ok: minor with n=25 m=39\n"),
                          (g, "ok: 5x5 grid minor\n")):
        forged.write_text(model_dumps(MinorModel(
            pattern, g, {v: {v} for v in range(pattern.n)},
            {e: e for e in pattern.edges})))
        res = run(["check", "--model", str(forged)])
        assert res.exit_code == 0 and res.output == line
    own, other = tmp_path / "own.gr", tmp_path / "other.gr"
    own.write_text(gr_dumps(g))
    assert run(["check", "--model", str(forged),
                "--gr", str(own)]).exit_code == 0
    for h in (grid(5, 6), partially_triangulated_grid(5, 5, 0),
              SimpleGraph(25), grid(4, 4)):
        other.write_text(gr_dumps(h))
        assert_one_error_line(run(["check", "--model", str(forged),
                                   "--gr", str(other)]),
                              1, str(other))


def test_transfer_model_checks_against_the_derived_dual(tmp_path):
    emb, seq = tmp_path / "ng.emb", tmp_path / "ng.seq"
    model, dual = tmp_path / "model.json", tmp_path / "dual.gr"
    run(["gen", "nation-grid", "--size", "12", "-o", str(emb),
         "--seq-output", str(seq)])
    run(["transfer", "--emb", str(emb), "--seq", str(seq),
         "-o", str(model)])
    run(["derive", str(emb), "--dual", "-o", str(dual)])
    res = run(["check", "--model", str(model), "--gr", str(dual)])
    assert res.exit_code == 0 and res.output == "ok: 1x1 grid minor\n"
    # the same model is no certificate about the map graph
    mapg = tmp_path / "map.gr"
    run(["derive", str(emb), "--map", "-o", str(mapg)])
    assert_one_error_line(run(["check", "--model", str(model),
                               "--gr", str(mapg)]), 1)


# argument lists that parse, one or more per command and gen family
PARSED = [
    ["gen", "wheel-map", "--r", "2", "-o", "x"],
    ["gen", "grid", "--rows", "2", "--cols", "3", "--output=-x.gr"],
    ["gen", "ptgrid", "--rows", "3", "--cols", "4", "-o", "x"],
    ["gen", "ptgrid", "--seed", "5", "--cols", "4", "--rows", "3", "-o", "x"],
    ["gen", "random-map", "--nations", "5", "-o", "x"],
    ["gen", "triangulation", "--n", "8", "--seed", "1", "-o", "x"],
    ["gen", "nation-grid", "--size", "12", "-o", "x", "--seq-output", "s"],
    *(["derive", "m.emb", f"--{kind}", "-o", "x"]
      for kind in ("map", "dual", "radial", "union", "canonicalize")),
    ["tw", "g.gr"], ["tw", "g.gr", "--exact", "--upper", "-o", "t.td"],
    ["tw", "--upper", "--exact", "g.gr"],
    ["lift", "--radial-to-map", "m.emb", "r.td", "-o", "x"],
    ["lift", "--power", "2", "--gr", "g.gr", "g.td", "-o", "x"],
    ["check", "--td", "t.td", "--gr", "g.gr"], ["check", "--model", "m.json"],
    ["check", "--gr", "g.gr", "--model", "m.json"],
    ["power", "g.gr", "--k", "2"],
    ["power", "g.gr", "--k", "3", "--witness-r", "2", "-o", "x"],
    ["grid-minor", "g.gr"], ["grid-minor", "g.gr", "-o", "x"],
    ["transfer", "--seq", "s.json", "--emb", "m.emb", "-o", "x"],
    ["sweep", "--family", "wheel", "--values", "1,2", "-o", "x"],
    ["sweep", "--family", "power", "--values", "5,4", "--seeds=-1,2",
     "--k", "3", "-o", "x"]]
# and ones that parse to a usage error, or to help
REFUSED = [
    [], ["--help"], ["bogus"], ["-o", "x"], ["tw", "--help"],
    ["gen"], ["gen", "bogus"], ["gen", "grid", "--help"], ["tw"],
    ["derive", "m.emb", "-o", "x"], ["tw", "g.gr", "--bogus"],
    ["lift", "--radial", "m.emb", "r.td", "-o", "x"],
    ["derive", "m.emb", "--map", "--dual", "-o", "x"],
    ["check", "--td", "t.td", "--model", "m.json"],
    ["tw", "g.gr", "h.gr"], ["grid-minor", "g.gr", "-o", "x", "y"],
    ["gen", "grid", "--rows", "2", "--cols", "2", "-o", "-x.gr"],
    ["gen", "grid", "--rows", "0", "--cols", "2", "-o", "x"],
    ["sweep", "--family", "wheel", "--values", "a", "-o", "x"],
    ["sweep", "--family", "bogus", "-o", "x"]]


@pytest.mark.parametrize("args", PARSED + REFUSED,
                         ids=lambda args: " ".join(args) or "gridlab")
def test_main_parses_as_the_top_level_parser(monkeypatch, args):
    # `main` hands a command's arguments to that command's parser: the
    # command called, its options and any output are what the top-level
    # parser makes of the same list
    calls = []
    for name in cli._COMMANDS.choices:
        fn = name.replace("-", "_")
        monkeypatch.setattr(cli, fn, lambda _fn=fn, **options:
                            calls.append((_fn, options)))
    res = run(args)
    out, err, code, expected = io.StringIO(), "", 0, []
    with redirect_stdout(out):
        try:
            options = vars(cli._PARSER.parse_args(args))
            expected = [(options.pop("command").replace("-", "_"), options)]
        except cli._UsageError as exc:
            err, code = f"error: {exc}\n", 2
        except SystemExit as exc:
            code = exc.code
    assert (res.exit_code, res.stdout, res.stderr, calls) == (
        code, out.getvalue(), err, expected)
    if args in PARSED:
        assert calls and calls[0][1]
    elif code == 0:
        assert res.stdout.startswith("usage: gridlab")
    else:
        assert_one_error_line(res, 2)
