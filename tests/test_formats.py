import errno
import json
import os
import random
import re
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import gridlab
from gridlab.decomposition import td_dumps, td_loads, treewidth_exact
from gridlab.embedding import emb_dumps, emb_loads
from gridlab.errors import FormatError
from gridlab.generators import (grid, random_canonical_map, random_graph,
                                random_planar_triangulation, wheel_map)
from gridlab.graph import SimpleGraph, gr_dumps, gr_loads
from gridlab.minors import (ContractionSequence, MinorModel,
                            minor_containment_exact, model_dumps, model_loads,
                            sequence_dumps, sequence_loads)


def graph_corpus():
    yield SimpleGraph(1)
    yield SimpleGraph(3)
    yield SimpleGraph.path(5)
    yield SimpleGraph.complete(6)
    yield grid(3, 4)
    for seed in range(5):
        yield random_graph(8, seed, 0.4)


def test_gr_round_trip_byte_identical():
    for g in graph_corpus():
        text = gr_dumps(g)
        g2 = gr_loads(text)
        assert g2 == g
        assert gr_dumps(g2) == text


def test_gr_parse_errors():
    with pytest.raises(FormatError):
        gr_loads("")
    with pytest.raises(FormatError):
        gr_loads("p cnf 3 1\n1 2\n")
    with pytest.raises(FormatError):
        gr_loads("p tw 3 1\n1 4\n")
    with pytest.raises(FormatError):
        gr_loads("1 2\np tw 3 1\n")
    with pytest.raises(FormatError):
        gr_loads("p tw 3 2\n1 2\n")  # header edge count off
    with pytest.raises(FormatError, match="^line 2: duplicate problem line$"):
        gr_loads("p tw 2 1\np tw 2 1\n1 2\n")
    with pytest.raises(FormatError, match="^line 2: expected an integer, "
                                          "found 'x'$"):
        gr_loads("c bad count\np tw x 1\n")
    with pytest.raises(FormatError, match="^line 2: "):
        gr_loads("p tw 3 1\n1 y\n")
    with pytest.raises(FormatError, match="^line 2: self-loop"):
        gr_loads("p tw 2 1\n1 1\n")
    # comments and blank lines are fine
    g = gr_loads("c hello\n\np tw 2 1\n1 2\n")
    assert g == SimpleGraph(2, [(0, 1)])


def test_td_round_trip_byte_identical():
    for g in graph_corpus():
        if g.n > 12:
            continue
        _, td = treewidth_exact(g)
        text = td_dumps(td, g.n)
        td2, n2 = td_loads(text)
        assert n2 == g.n
        assert td2.validate(g) is None
        assert td_dumps(td2, n2) == text


def test_td_parse_errors():
    with pytest.raises(FormatError):
        td_loads("b 1 1\n")
    with pytest.raises(FormatError):
        td_loads("s td 1 5 3\nb 1 1 2\n")  # max bag size mismatch
    with pytest.raises(FormatError):
        td_loads("s td 2 1 2\nb 1 1\n")  # missing bag 2
    with pytest.raises(FormatError, match="^line 2: expected an integer, "
                                          "found 'x'$"):
        td_loads("s td 1 2 2\nb x 1 2\n")
    with pytest.raises(FormatError, match="^line 2: bag line without"):
        td_loads("s td 1 0 2\nb\n")
    with pytest.raises(FormatError, match="^line 1: "):
        td_loads("s td 1 x 2\n")
    with pytest.raises(FormatError, match="^line 2: 0 is below 1$"):
        td_loads("s td 1 1 2\nb 1 0\n")
    with pytest.raises(FormatError, match="^line 2: 0 is below 1$"):
        td_loads("s td 1 3 3\nb 1 2 0 3\n")
    with pytest.raises(FormatError, match="^line 4: 0 is below 1$"):
        td_loads("s td 2 1 2\nb 1 1\nb 2 2\n2 0\n")
    with pytest.raises(FormatError, match="^line 4: tree self-loop"):
        td_loads("s td 2 1 2\nb 1 1\nb 2 2\n1 1\n")
    with pytest.raises(FormatError, match="^line 4: tree edge '1 3' out"):
        td_loads("s td 2 1 2\nb 1 1\nb 2 2\n1 3\n")
    with pytest.raises(FormatError, match="^line 2: duplicate solution line$"):
        td_loads("s td 1 1 1\ns td 1 1 1\nb 1 1\n")
    with pytest.raises(FormatError,
                       match="^line 1: tree edge before solution line$"):
        td_loads("1 2\ns td 2 1 2\nb 1 1\nb 2 2\n")
    with pytest.raises(FormatError, match="^missing solution line$"):
        td_loads("c no solution line\n")
    # a comment line is skipped wherever it stands
    td, n = td_loads("c hello\ns td 1 1 1\nc between\nb 1 1\n")
    assert (td.bags, td.tree_edges, n) == ([frozenset({0})], [], 1)


# int() reads "1_0" as 10, "+1" as 1 and the Arabic-Indic digit two as 2;
# "\u00b2" (superscript two) passes str.isdigit() but not int().  The bad
# token may follow valid ones on a long line.
@pytest.mark.parametrize("loads, text, line, token", [
    (gr_loads, "p tw 1_0 1\n+1 \u0662\n", 1, "1_0"),
    (gr_loads, "p tw 2 1\n+1 2\n", 2, "+1"),
    (gr_loads, "p tw 2 1\n1 \u0662\n", 2, "\u0662"),
    (gr_loads, "p tw 2 1\n1 \u00b2\n", 2, "\u00b2"),
    (gr_loads, "p tw 2 \u00b2\n1 2\n", 1, "\u00b2"),
    (td_loads, "s td 1 2 1_0\nb 1 1 2\n", 1, "1_0"),
    (td_loads, "s td 1 2 2\nb 1 +1 2\n", 2, "+1"),
    (td_loads, "s td 2 1 2\nb 1 1\nb 2 2\n1 \u0662\n", 4, "\u0662"),
    (td_loads, "s td 1 4 4\nb 1 1 2 3 +4\n", 2, "+4"),
    (td_loads, "s td 1 4 4\nb 1 1 2 3 \u00b2\n", 2, "\u00b2"),
    (td_loads, "s td 2 1 2\nb 1 1\nb 2 2\n1 \u00b2\n", 4, "\u00b2"),
    (emb_loads, "emb \u0662\ntwin 1 0\nnext 0 1\nvertex_of 0 1\n", 1,
     "\u0662"),
    (emb_loads, "emb 2\ntwin 1 0\nnext 0 1\nvertex_of 0 0_1\n", 4, "0_1"),
    (emb_loads, "emb 2\ntwin +1 0\nnext 0 1\nvertex_of 0 1\n", 2, "+1"),
    (emb_loads, "emb 4\ntwin 1 0 3 2\nnext 0 1 2 3\nvertex_of 0 1 2 \u0662\n",
     4, "\u0662"),
    (emb_loads, "emb 4\ntwin 1 0 3 2\nnext 0 1 2 \u00b2\nvertex_of 0 1 2 3\n",
     3, "\u00b2"),
])
def test_loaders_read_ascii_integers_only(loads, text, line, token):
    with pytest.raises(FormatError) as info:
        loads(text)
    assert str(info.value) == (f"line {line}: expected an integer, "
                               f"found {token!r}")


def test_td_header_bag_count_is_not_allocated():
    # run under a 1 GiB address-space cap: a parser that builds
    # range(num_bags) from the header fails with MemoryError instead of
    # exhausting the machine
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from gridlab.decomposition import td_loads\n"
            "from gridlab.errors import FormatError\n"
            "try:\n"
            "    td_loads('s td 10000000000 1 2\\n')\n"
            "except FormatError:\n"
            "    print('refused')\n")
    src = os.path.dirname(os.path.dirname(gridlab.__file__))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.stdout == "refused\n", res.stderr


def test_emb_round_trip_byte_identical():
    cases = []
    for r in (1, 2, 3):
        cases.append(wheel_map(r))
    for seed in range(4):
        cases.append(random_canonical_map(5, seed))
        cases.append((random_planar_triangulation(7, seed), None))
    for e, fl in cases:
        text = emb_dumps(e, fl)
        e2, fl2 = emb_loads(text)
        assert e2 == e and fl2 == fl
        assert emb_dumps(e2, fl2) == text


def test_emb_parse_errors():
    with pytest.raises(FormatError):
        emb_loads("")
    with pytest.raises(FormatError):
        emb_loads("emb 2\ntwin 1 0\nnext 0 1\n")  # missing vertex_of
    with pytest.raises(FormatError):
        emb_loads("emb 2\ntwin 0 1\nnext 0 1\nvertex_of 0 1\n")
    with pytest.raises(FormatError):
        emb_loads("emb 2\ntwin 1 0\nnext 0 x\nvertex_of 0 1\n")
    # lines are numbered as in the file, blank ones included
    with pytest.raises(FormatError, match="line 5: "):
        emb_loads("emb 2\n\n\ntwin 1 0\nnext 0 x\nvertex_of 0 1\n")
    for header, line in (("emb 2 junk", 1), ("emb x", 1), ("emb -2", 1),
                         ("emb", 1), ("\n  \nemb 2 2", 3), ("twin 1 0", 1)):
        with pytest.raises(FormatError, match=f"line {line}: "):
            emb_loads(header + "\ntwin 1 0\nnext 0 1\nvertex_of 0 1\n")
    with pytest.raises(FormatError, match="^line 4: -1 is below 0$"):
        emb_loads("emb 2\ntwin 1 0\nnext 0 1\nvertex_of 0 -1\n")
    with pytest.raises(FormatError, match="^line 3: duplicate field 'twin'$"):
        emb_loads("emb 2\ntwin 1 0\ntwin 1 0\nnext 0 1\nvertex_of 0 1\n")
    # one edge has one face, so nation 5 is not a face
    with pytest.raises(FormatError, match="nation 5 "):
        emb_loads("emb 2\ntwin 1 0\nnext 0 1\nvertex_of 0 1\nnations 5\n")


def test_model_json_byte_identical():
    for seed in range(5):
        g = random_graph(9, seed, 0.5)
        m = minor_containment_exact(SimpleGraph.cycle(4), g)
        if m is None:
            continue
        text = model_dumps(m)
        assert model_dumps(model_loads(text)) == text


def test_json_loaders_take_only_json_integers():
    g = grid(2, 2)
    good = json.loads(model_dumps(
        minor_containment_exact(SimpleGraph.cycle(4), g)))
    for obj in ([1, 2],
                {**good, "pattern": {**good["pattern"], "n": 1.5}},
                {**good, "host": {**good["host"], "n": True}},
                {**good, "branch_sets": {**good["branch_sets"], "0": ["0"]}},
                {**good, "edge_witness": [[[0, 1], [0, 1.0]]]}):
        with pytest.raises(FormatError):
            model_loads(json.dumps(obj))
    for ops in ([["delete_vertex"]], [["contract", 0, 1.5]],
                [["delete_vertex", "3"]]):
        with pytest.raises(FormatError):
            sequence_loads(json.dumps({"ops": ops}))


def test_model_branch_set_keys_are_canonical_and_distinct():
    good = model_dumps(minor_containment_exact(SimpleGraph.cycle(4),
                                               grid(2, 2)))
    assert '"0": [' in good and '"1": [' in good
    # int() takes each of these keys; "00" next to "0" would otherwise
    # drop one of the two branch sets
    for key in ("0_0", " 1", "+1", "00", "-0", "x"):
        with pytest.raises(FormatError, match="canonical"):
            model_loads(good.replace('"1": [', f'"{key}": ['))
    with pytest.raises(FormatError, match="duplicate key '0'"):
        model_loads(good.replace('"1": [', '"0": ['))
    # a duplicate key inside the host graph
    with pytest.raises(FormatError, match="duplicate key 'n'"):
        model_loads(good.replace('"n": 4', '"n": 4, "n": 5', 1))


def test_minor_model_keys_are_ints_and_edges_are_witnessed_once():
    p2 = SimpleGraph(2, [(0, 1)])
    host = SimpleGraph(3, [(0, 1)])
    ok = MinorModel(p2, host, {0: {0}, 1: {1}}, {(1, 0): (1, 0)})
    assert ok.branch_sets == {0: {0}, 1: {1}}
    assert ok.edge_witness == {(0, 1): (0, 1)}
    # int() would read "0" and "00" as 0 and 1.9 as 1, merging branch
    # sets, and True as vertex 1
    for branch_sets in ({"0": {0}, "00": {1}, 1.9: {1}}, {0: {0}, "1": {1}},
                        {0: {0}, 1.0: {1}}, {0: {0}, True: {1}}):
        with pytest.raises(ValueError):
            MinorModel(p2, host, branch_sets, {(0, 1): (0, 1)})
    # the last witness would win and hide the non-edge (0, 2)
    for witness in ({(0, 1): (0, 2), (1, 0): (0, 1)},
                    [((0, 1), (0, 2)), ((0, 1), (0, 1))]):
        with pytest.raises(ValueError, match=re.escape(
                "pattern edge (0, 1) is witnessed twice")):
            MinorModel(p2, host, {0: {0}, 1: {1}}, witness)
    text = json.dumps({"pattern": {"n": 2, "edges": [[0, 1]]},
                       "host": {"n": 3, "edges": [[0, 1]]},
                       "branch_sets": {"0": [0], "1": [1]},
                       "edge_witness": [[[0, 1], [0, 2]], [[0, 1], [0, 1]]]})
    with pytest.raises(FormatError, match="witnessed twice"):
        model_loads(text)


def test_sequence_loads_refuses_duplicate_keys():
    # json.loads alone keeps the last "ops", dropping the deletion
    with pytest.raises(FormatError, match="duplicate key"):
        sequence_loads('{"ops": [["delete_vertex", 0]], "ops": []}')
    assert sequence_loads('{"ops": [["delete_vertex", 0]]}').ops == [
        ("delete_vertex", 0)]


def _model_text(host):
    """A model of the one-vertex pattern in `host`, a JSON graph."""
    return json.dumps({"pattern": {"n": 1, "edges": []}, "host": host,
                       "branch_sets": {"0": [0]}, "edge_witness": []})


def test_json_edges_are_pairs_of_json_integers():
    host = {"n": 3, "edges": [[0, 1], [1, 2]]}
    g = model_loads(_model_text(host)).host
    assert g == SimpleGraph(3, [(0, 1), (1, 2)])
    for edge, message in (
            ([0], "model host edges[1]: expected a pair of vertices, "
                  "found 1 entry"),
            ([0, 1, 2], "model host edges[1]: expected a pair of vertices, "
                        "found 3 entries"),
            ([0, True], "expected an integer, got True"),
            ([0, 1.0], "expected an integer, got 1.0")):
        bad = {"n": 3, "edges": [[1, 2], edge]}
        with pytest.raises(FormatError, match=re.escape(message)):
            model_loads(_model_text(bad))


def test_sequence_json_byte_identical():
    seq = ContractionSequence([("contract", 0, 1), ("delete_vertex", 8),
                               ("delete_edge", 3, 4)])
    text = sequence_dumps(seq)
    assert text == ('{"ops":[["contract",0,1],["delete_vertex",8],'
                    '["delete_edge",3,4]]}\n')
    assert sequence_dumps(sequence_loads(text)) == text
    # files written with indent=2 hold the same JSON value
    indented = json.dumps(json.loads(text), indent=2, sort_keys=True)
    assert sequence_loads(indented).ops == seq.ops


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10 ** 6))
def test_gr_round_trip_property(n, seed):
    g = random_graph(n, seed, 0.5) if n > 1 else SimpleGraph(1)
    assert gr_loads(gr_dumps(g)) == g


def valid_texts():
    g = grid(2, 3)
    _, td = treewidth_exact(g)
    e, fl = wheel_map(2)
    m = minor_containment_exact(SimpleGraph.cycle(4), g)
    seq = ContractionSequence([("contract", 0, 1), ("delete_vertex", 5),
                               ("delete_edge", 3, 4)])
    return {"gr": (gr_loads, gr_dumps(g)),
            "td": (td_loads, td_dumps(td, g.n)),
            "emb": (emb_loads, emb_dumps(e, fl)),
            "model": (model_loads, model_dumps(m)),
            "sequence": (sequence_loads, sequence_dumps(seq))}


VALID_TEXTS = valid_texts()
# tokens that break counts, signs, types, keywords and JSON structure
FUZZ_TOKENS = ["0", "-1", "1", "2", "7", "1.5", "x", "b", "s", "p", "td",
               "tw", "emb", "twin", "next", "vertex_of", "nations", "c",
               "10000000000", "\n", " ", "[", "]", "{", "}", ",", ":",
               '"n"', '"ops"', '"a"', "null", "true", "[]", "{}",
               "[" * 3000, "1_0", "+1", "\u0662"]


@pytest.mark.parametrize("fmt", sorted(VALID_TEXTS))
def test_mutated_text_loads_or_raises_format_error(fmt):
    loads, text = VALID_TEXTS[fmt]
    tokens = re.split(r"(\s+|[\[\]{},:])", text)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["replace", "delete",
                                               "insert"]),
                              st.integers(0, len(tokens) - 1),
                              st.sampled_from(FUZZ_TOKENS)),
                    min_size=1, max_size=4))
    def check(mutations):
        mutated = list(tokens)
        for action, i, token in mutations:
            i %= len(mutated) or 1
            if action == "replace" and mutated:
                mutated[i] = token
            elif action == "delete" and mutated:
                del mutated[i]
            else:
                mutated.insert(i, token)
        try:
            loads("".join(mutated))
        except FormatError:
            pass

    check()


def _random_model(rng):
    """A MinorModel of random shape, verified or not: branch-set keys up
    to 25, so that their string order differs from their int order,
    empty branch sets, negative ids, and graphs that may be empty or
    have no edges."""
    def graph():
        n = rng.randrange(8)
        m = rng.randrange(n * n) if n > 1 else 0
        return SimpleGraph(n, [rng.sample(range(n), 2) for _ in range(m)])

    ids = range(-3, 26)
    branch_sets = {rng.choice(ids): rng.sample(ids, rng.randrange(4))
                   for _ in range(rng.randrange(8))}
    witness = {tuple(sorted(rng.sample(ids, 2))): rng.sample(ids, 2)
               for _ in range(rng.randrange(4))}
    return MinorModel(graph(), graph(), branch_sets, witness.items())


def _graph_object(g):
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def test_model_dumps_matches_json_dumps():
    rng = random.Random(37)
    models = [MinorModel(SimpleGraph(0), SimpleGraph(0), {}, []),
              MinorModel(SimpleGraph(11, [(2, 10)]), SimpleGraph(3),
                         {2: [], 10: [-1, 0], 11: [2]}, [((2, 10), (0, 1))])]
    models += [_random_model(rng) for _ in range(2000)]
    for m in models:
        # the object model files held when the stdlib's encoder wrote
        # them; model_dumps writes its text from the model's fixed shape
        obj = {"pattern": _graph_object(m.pattern),
               "host": _graph_object(m.host),
               "branch_sets": {str(v): sorted(s)
                               for v, s in m.branch_sets.items()},
               "edge_witness": [[list(k), list(w)]
                                for k, w in sorted(m.edge_witness.items())]}
        assert model_dumps(m) == json.dumps(obj, indent=2,
                                            sort_keys=True) + "\n"
    assert sum(m.pattern.n == 0 for m in models) > 100
    assert sum(not m.host.edges for m in models) > 100
    assert sum(not m.edge_witness for m in models) > 100
    assert sum(any(not s for s in m.branch_sets.values())
               for m in models) > 100
    assert sum(any(x < 0 for s in m.branch_sets.values() for x in s)
               for m in models) > 100
    # "10" sorts before "2" as a string
    assert sum(sorted(map(str, m.branch_sets)) != list(map(str, sorted(
        m.branch_sets))) for m in models) > 100
    # a float is written as no JSON integer, nor as any other text
    with pytest.raises(ValueError):
        model_dumps(MinorModel(SimpleGraph(1), SimpleGraph(3, [(0, 1.0)]),
                               {0: [0]}, []))


_GRID_TD = treewidth_exact(grid(3, 4))[1]
# each file writer, the text it writes, and the arguments that write it
FILE_WRITERS = [
    pytest.param(gridlab.gr_dump, gr_dumps(grid(3, 4)), (grid(3, 4),),
                 id="gr_dump"),
    pytest.param(gridlab.td_dump, td_dumps(_GRID_TD, 12), (_GRID_TD, 12),
                 id="td_dump"),
    pytest.param(gridlab.emb_dump, emb_dumps(*wheel_map(2)), wheel_map(2),
                 id="emb_dump"),
]


@pytest.mark.parametrize("dump, text, args", FILE_WRITERS)
def test_file_writers_rewrite_in_place(tmp_path, dump, text, args):
    want = text.encode()
    path = tmp_path / "out"
    dump(*args, str(path))
    assert path.read_bytes() == want  # a new file
    for old in (b"x" * (len(want) + 100), b"x"):
        path.write_bytes(old)
        dump(*args, str(path))
        assert path.read_bytes() == want  # over a longer, a shorter file
    path.write_bytes(b"x" * (len(want) + 7))
    path.chmod(0o640)
    dump(*args, str(path))
    assert path.read_bytes() == want
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


class _ShortWriteOs:
    """The os module, except that each write stores at most 5 bytes, as
    a write to a pipe or a signal may cut it short."""

    def __getattr__(self, name):
        return getattr(os, name)

    @staticmethod
    def write(fd, data):
        return os.write(fd, data[:5])


class _FailingOs(_ShortWriteOs):
    """Each write stores 3 bytes and then fails as a full disk would."""

    @staticmethod
    def write(fd, data):
        os.write(fd, data[:3])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("dump, text, args", FILE_WRITERS)
def test_file_writers_finish_short_writes(tmp_path, monkeypatch, dump, text,
                                          args):
    path = tmp_path / "out"
    path.write_bytes(b"x" * (len(text) + 9))
    monkeypatch.setattr(gridlab.graph, "os", _ShortWriteOs())
    dump(*args, str(path))
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("dump, text, args", FILE_WRITERS)
def test_a_failed_write_keeps_no_old_bytes(tmp_path, monkeypatch, dump, text,
                                           args):
    path = tmp_path / "out"
    path.write_bytes(b"x" * (len(text) + 9))
    monkeypatch.setattr(gridlab.graph, "os", _FailingOs())
    with pytest.raises(OSError, match="No space left"):
        dump(*args, str(path))
    assert path.read_bytes() == b""
