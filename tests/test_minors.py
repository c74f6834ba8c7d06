import functools
import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gridlab.embedding import emb_dumps, radial_embedding, union_radial_dual
from gridlab.errors import ConstructionError, SizeLimitError
from gridlab.generators import (_build_from_rotations, _triangle, grid,
                                random_graph, random_planar_triangulation,
                                wheel_map)
from gridlab.graph import CliqueWitness, SimpleGraph
from gridlab.minors import (ContractionSequence, MinorModel,
                            _assign_grid_coords,
                            double_radial_minor, largest_grid_minor,
                            minor_containment_exact,
                            model_dumps, model_loads,
                            nation_grid_transfer_instance,
                            primal_dual_width_report,
                            radial_grid_to_dual_grid, sequence_dumps,
                            sequence_loads, verify_model)

from oracles import (all_pairs_distances, contraction_ops,
                     double_radial_host, first_model_violation,
                     replay_by_definition)
from test_embedding import random_rotation_system


def cube_embedding():
    """The 3-cube with its planar rotation system (outer square 0..3,
    inner square 4..7, spokes i to i+4)."""
    rots = []
    for i in range(4):
        nb = [((i + 1) % 4, f"o{i}"),
              ((i - 1) % 4, f"o{(i - 1) % 4}"),
              (i + 4, f"s{i}")]
        rots.append(nb)
    for i in range(4):
        nb = [(i, f"s{i}"),
              (4 + (i - 1) % 4, f"i{(i - 1) % 4}"),
              (4 + (i + 1) % 4, f"i{i}")]
        rots.append(nb)
    e = _build_from_rotations(rots)
    assert e.genus() == 0
    return e


def identity_model(g):
    return MinorModel(g, g, {v: {v} for v in range(g.n)},
                      {e: e for e in g.edges})


def test_verify_model_accepts_identity():
    g = random_graph(8, 1)
    assert verify_model(identity_model(g)) is None


def test_verify_model_catches_violations():
    g = SimpleGraph.path(4)
    h = SimpleGraph.path(2)
    ok = MinorModel(h, g, {0: {0, 1}, 1: {2, 3}}, {(0, 1): (1, 2)})
    assert verify_model(ok) is None
    v = verify_model(MinorModel(h, g, {0: {0, 1}}, {(0, 1): (1, 2)}))
    assert v.condition == "coverage"
    v = verify_model(MinorModel(h, g, {0: {0, 1}, 1: {1, 2}},
                                {(0, 1): (1, 2)}))
    assert v.condition == "disjoint"
    v = verify_model(MinorModel(h, g, {0: {0, 2}, 1: {3}},
                                {(0, 1): (2, 3)}))
    assert v.condition == "connected"
    v = verify_model(MinorModel(h, g, {0: {0, 1}, 1: {2, 3}},
                                {(0, 1): (0, 3)}))
    assert v.condition == "witness"
    # a branch member outside the host's vertex range
    for x in (9, -1):
        v = verify_model(MinorModel(h, g, {0: {0, 1}, 1: {2, x}},
                                    {(0, 1): (1, 2)}))
        assert v.condition == "coverage" and v.witness == 1
        assert v.message == f"branch vertex {x} not in host"


@pytest.mark.parametrize("certify", [
    lambda h, g: verify_model(
        MinorModel(h, g, {0: {0.0}, 1: {1}}, {(0, 1): (0, 1)})),
    lambda h, g: verify_model(
        MinorModel(h, g, {0: {0}, 1: {1}}, {(0, 1): (0.0, 1.0)})),
    lambda h, g: CliqueWitness({0, "1"}, 1).verify(g),
    lambda h, g: CliqueWitness({0, True}, 1).verify(g),
    lambda h, g: verify_model(
        MinorModel(h, SimpleGraph(3, [(0, 1.0), (1, 2)]), {0: {0}, 1: {1}},
                   {(0, 1): (0, 1)})),
    lambda h, g: verify_model(
        MinorModel(SimpleGraph(2, [(0, True)]), g, {0: {0}, 1: {1}},
                   {(0, 1): (0, 1)})),
], ids=["float-member", "float-witness", "str-vertex", "bool-vertex",
        "float-host-edge", "bool-pattern-edge"])
def test_certificates_take_only_int_vertices(certify):
    # a float or str vertex must not crash a verifier, nor 0.0 or True
    # pass as the vertex 0 or 1; a graph refuses one when it is built
    with pytest.raises(ValueError, match="expected an integer"):
        certify(SimpleGraph(2, [(0, 1)]), SimpleGraph.path(4))


def test_minor_containment_small_cases():
    # C4 is a minor of the 2x3 grid, K4 is not (planar host is K4-free
    # only when it has no K4 minor; the 2x3 grid has treewidth 2)
    host = grid(2, 3)
    m = minor_containment_exact(SimpleGraph.cycle(4), host)
    assert m is not None and verify_model(m) is None
    assert minor_containment_exact(SimpleGraph.complete(4), host) is None
    # every graph contains itself
    g = random_graph(7, 5)
    m = minor_containment_exact(g, g)
    assert m is not None and verify_model(m) is None
    # the empty pattern is a minor of every graph
    m = minor_containment_exact(SimpleGraph(0), host)
    assert m.branch_sets == {} and verify_model(m) is None


def test_minor_containment_size_refusals():
    with pytest.raises(SizeLimitError):
        minor_containment_exact(SimpleGraph(11), SimpleGraph(16))
    with pytest.raises(SizeLimitError):
        minor_containment_exact(SimpleGraph(3), SimpleGraph(17))
    # only a complete host skips the exhaustive search
    with pytest.raises(SizeLimitError, match="at most 15 vertices, got 17"):
        largest_grid_minor(SimpleGraph.path(17))
    # from 16 vertices the search would start at the 4x4 pattern, past
    # the pattern limit
    with pytest.raises(SizeLimitError, match="at most 15 vertices, got 16"):
        largest_grid_minor(grid(4, 4))
    assert largest_grid_minor(grid(3, 5))[0] == 3


def test_largest_grid_minor_known():
    r, m = largest_grid_minor(SimpleGraph.complete(4))
    assert r == 2 and verify_model(m) is None
    r, _ = largest_grid_minor(SimpleGraph.path(10))
    assert r == 1
    for side in (1, 2, 3):
        r, m = largest_grid_minor(SimpleGraph.complete(side * side))
        assert r == side
        assert verify_model(m) is None
    # exhaustive search on a non-complete host
    r, m = largest_grid_minor(grid(3, 3))
    assert r == 3 and verify_model(m) is None
    # a long cycle contracts to C4, the 2x2 grid, but no further
    r, _ = largest_grid_minor(SimpleGraph.cycle(8))
    assert r == 2


def test_contraction_sequence_replay():
    g = SimpleGraph.cycle(4)
    seq = ContractionSequence([("contract", 0, 1), ("delete_edge", 0, 2)])
    verts, edges, labels = seq.replay(g)
    assert verts == {0, 2, 3}
    assert edges == {(0, 3), (2, 3)}
    assert labels == {0: {0, 1}, 2: {2}, 3: {3}}


def test_replay_does_not_alias_the_host():
    # replay starts from the host's cached adjacency; it must change a
    # copy, so the host and a second replay are as before
    g = random_graph(12, 3, 0.4)
    adj = [set(a) for a in g.adj]
    edges = g.edges
    u, v = min(g.edges)
    w = min(g.adj[u] - {v})
    ops = [("contract", u, v), ("delete_edge", u, w),
           ("delete_vertex", max(g.adj[u] - {v, w}))]
    seq = ContractionSequence(ops)
    first = seq.replay(g)
    assert g.adj == adj and g.edges == edges
    assert seq.replay(g) == first
    assert first[2][u] == {u, v} and (min(u, w), max(u, w)) not in first[1]


def test_contraction_sequence_rejects_bad_ops():
    g = SimpleGraph.path(3)
    # ids are ints, not floats, bools or strings, and each kind takes
    # its own number of them
    for op in (("frobnicate", 0, 1), ("contract", 0.9, True),
               ("contract", 0, 1.0), ("delete_edge", False, 1),
               ("delete_vertex", "3"), ("delete_vertex", 1.0),
               ("contract", 0), ("delete_vertex", 0, 1)):
        with pytest.raises(ValueError):
            ContractionSequence([op])
    with pytest.raises(ConstructionError):
        ContractionSequence([("contract", 0, 2)]).replay(g)
    with pytest.raises(ConstructionError):
        ContractionSequence([("delete_vertex", 1),
                             ("delete_edge", 0, 1)]).replay(g)


def _random_sequence(rng):
    """(host, ops): a random graph on 2..14 vertices and a valid
    sequence of contractions, edge deletions and vertex deletions on
    it, each op naming what is there at its turn."""
    n = rng.randint(2, 14)
    host = random_graph(n, rng.randrange(10 ** 6), rng.choice((0.2, 0.4,
                                                                0.7)))
    ops = []
    for _ in range(rng.randint(0, n + 3)):
        verts, edges, _ = replay_by_definition(host, ops)
        kind = rng.choice(("contract", "contract", "delete_edge",
                           "delete_vertex"))
        if kind == "delete_vertex" or not edges:
            if verts:
                ops.append(("delete_vertex", rng.choice(sorted(verts))))
        else:
            u, v = rng.choice(sorted(edges))
            ops.append((kind, *rng.sample((u, v), 2)))
    return host, ops


def _mutated_ops(host, ops, rng):
    """ops after one mutation: a contraction or edge deletion of a pair
    that is no edge at its turn, a deletion of a vertex that is gone, or
    two ops swapped."""
    ops = list(ops)
    kind = rng.randrange(4)
    if kind == 3 and len(ops) >= 2:
        i, j = rng.sample(range(len(ops)), 2)
        ops[i], ops[j] = ops[j], ops[i]
        return ops
    i = rng.randint(0, len(ops))
    try:
        verts, edges, _ = replay_by_definition(host, ops[:i])
    except LookupError:  # an earlier mutation broke the prefix
        verts, edges = set(range(host.n)), set()
    if kind == 2:
        gone = sorted(set(range(-1, host.n + 1)) - verts)
        ops.insert(i, ("delete_vertex", rng.choice(gone)))
    else:
        ids = sorted(verts) + [-1, host.n]
        pairs = [(a, b) for a in ids for b in ids
                 if (min(a, b), max(a, b)) not in edges]
        ops.insert(i, ("delete_edge" if kind == 1 else "contract",
                       *rng.choice(pairs)))
    return ops


def _replay_against_oracle(seed, mutation_seeds):
    """Check replay, on a random valid sequence and on it after the
    mutations, against replay_by_definition; True when the mutated
    sequence still replays."""
    host, ops = _random_sequence(random.Random(seed))
    for s in mutation_seeds:
        ops = _mutated_ops(host, ops, random.Random(s))
    seq = ContractionSequence(ops)
    try:
        expect = replay_by_definition(host, ops)
    except LookupError:
        with pytest.raises(ConstructionError):
            seq.replay(host)
        return False
    assert seq.replay(host) == expect
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3))
def test_replay_matches_definition_oracle(seed, mutation_seeds):
    _replay_against_oracle(seed, mutation_seeds)


def test_sequence_mutations_reach_both_outcomes():
    rng = random.Random(11)
    outcomes = {_replay_against_oracle(
        rng.randrange(2 ** 32),
        [rng.randrange(2 ** 32) for _ in range(rng.randint(1, 3))])
        for _ in range(300)}
    assert outcomes == {False, True}


def test_model_to_contraction_sequence_consistent():
    for seed in range(6):
        g = random_graph(9, seed, 0.45)
        for h in (SimpleGraph.cycle(4), SimpleGraph.path(3),
                  SimpleGraph.complete(3)):
            m = minor_containment_exact(h, g)
            if m is None:
                continue
            seq = ContractionSequence(contraction_ops(m))
            verts, edges, labels = seq.replay(m.host)
            # each branch set contracts into its least member, and the
            # survivors are joined as the pattern is
            root = {v: min(s) for v, s in m.branch_sets.items()}
            assert verts == set(root.values())
            assert edges == {(min(root[u], root[v]), max(root[u], root[v]))
                             for u, v in h.edges}
            # labels reproduce the branch sets
            assert (sorted(labels.values(), key=min)
                    == sorted(m.branch_sets.values(), key=min))


def test_transfer_deletion_only_instances():
    for size, want_side in ((12, 1), (18, 2)):
        e, fl, seq = nation_grid_transfer_instance(size)
        m = radial_grid_to_dual_grid(seq, e, fl)
        assert verify_model(m) is None
        assert len(m.branch_sets) == want_side * want_side
        n = e.num_vertices
        nations = len(fl.nations)
        for s in m.branch_sets.values():
            assert all(0 <= x < nations for x in s)


def test_nation_grid_transfer_instances_are_pinned():
    # (size, file) -> sha256 of the .emb or .seq text
    pins = {
        (1, "emb"):
            "4cccdf48b3e29d889d0d1c5abf1c53bcf17702b1a2815841f1bb340317e06d2e",
        (1, "seq"):
            "e9563ffa7065a54eef9ed9d4a5198d5f8f1df9149c98c5288495db033fada426",
        (2, "emb"):
            "03f18e22cd22c7f4deb5d74b404a3fd64d2163af83c95fe1db3d3d9a76e54d19",
        (2, "seq"):
            "1cf93c448b6b6915620f2ae1da416524361f6acf42aba5ff76bc37adc7db5be9",
        (12, "emb"):
            "950f2f2d9b386c5d8994463c60d5800a910efed0bc32df3a062d6a85b3cda9db",
        (12, "seq"):
            "8b7b24768c7be5154e5e4bfb7c6f8fba9a8b10dd2a4b01d63ff9afaf8d9ac2d5",
        (31, "emb"):
            "adfe36bb94bfc230b7079822c937b79f91bdd662f45aeaf857e093fdccce0444",
        (31, "seq"):
            "81cd6290576e59b4d7f0329776e551bfcb90d95faf43386db0fa008911b60eda",
    }
    for size in (1, 2, 12, 31):
        e, fl, seq = nation_grid_transfer_instance(size)
        for name, text in (("emb", emb_dumps(e, fl)),
                           ("seq", sequence_dumps(seq))):
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == pins[size, name], (size, name)


@functools.lru_cache(maxsize=None)
def _coarsened_transfer_instance(size, block, offset):
    """(e, fl, seq, side): nation_grid_transfer_instance(size) with its
    window grid cut to the rows and columns offset .. offset + side *
    block - 1 and coarsened by block x block blocks, so the transfer
    walks through real contraction labels."""
    e, fl, seq = nation_grid_transfer_instance(size)
    verts, edges, _ = seq.replay(union_radial_dual(e, fl))
    k, coords = _assign_grid_coords(verts, edges)
    at = {c: v for v, c in coords.items()}
    side = (k - offset) // block
    keep = range(offset, offset + side * block)
    ops = list(seq.ops)
    ops += [("delete_vertex", v) for (x, y), v in sorted(at.items())
            if x not in keep or y not in keep]
    # row by row, each cell of a block touches one contracted before it
    for bx in range(side):
        for by in range(side):
            x0, y0 = offset + block * bx, offset + block * by
            ops += [("contract", at[x0, y0], at[x0 + dx, y0 + dy])
                    for dx in range(block) for dy in range(block)
                    if dx or dy]
    return e, fl, ContractionSequence(ops), side


def _moved(k, old, new):
    """Edges of the k x k grid with edge `old` replaced by `new`."""
    return (grid(k, k).edges - {old}) | {new}


# the 3 x 3 grid wrapped into a torus: every vertex has degree 4
TORUS = {(min(a, b), max(a, b)) for v in range(9)
         for a, b in ((v, v // 3 * 3 + (v + 1) % 3), (v, (v + 3) % 9))}


@pytest.mark.parametrize("verts, edges, message", [
    (range(5), SimpleGraph.path(5).edges, "5 vertices is not a square"),
    ({0}, {(0, 1)}, "1x1 grid cannot have edges"),
    (range(9), TORUS, "no degree-2 corner"),
    (range(9), SimpleGraph.cycle(4).edges
     | {(4 + i, 4 + (i + 1) % 5) for i in range(5)}, "disconnected"),
    (range(9), _moved(3, (0, 1), (0, 6)), "no corner at distance k-1"),
    (range(4), _moved(2, (0, 1), (0, 3)), "wrong parity"),
    (range(9), _moved(3, (0, 1), (0, 5)), "do not fill"),
    (range(4), grid(2, 2).edges - {(0, 1)}, "edge set is not"),
    # the right edge count and coordinates that fill the grid, but one
    # edge is no unit step: an inner edge whose removal keeps every
    # corner distance, swapped for a loop (an edge changes each corner
    # distance by at most one, so with the parity check passed only a
    # loop can be a non-unit step)
    (range(16), grid(4, 4).edges - {(5, 9)} | {(5, 5)}, "edge set is not"),
])
def test_assign_grid_coords_rejects_non_grids(verts, edges, message):
    with pytest.raises(ConstructionError, match=message):
        _assign_grid_coords(set(verts), set(edges))


@pytest.mark.parametrize("offset", (0, 1))
@pytest.mark.parametrize("block", (2, 3))
@pytest.mark.parametrize("size", (36, 42, 48, 54, 60))
def test_transfer_contraction_heavy_instance(size, block, offset):
    e, fl, seq, side = _coarsened_transfer_instance(size, block, offset)
    verts, edges, labels = seq.replay(union_radial_dual(e, fl))
    assert _assign_grid_coords(verts, edges)[0] == side
    assert {len(s) for s in labels.values()} == {block * block}
    m = radial_grid_to_dual_grid(seq, e, fl)
    assert verify_model(m) is None
    assert len(m.branch_sets) == (side // 6 - 1) ** 2


def test_transfer_rejects_small_grids():
    for r in (1, 2):
        e, fl = wheel_map(r)
        host = union_radial_dual(e, fl)
        side, model = largest_grid_minor(host)
        assert side < 12
        seq = ContractionSequence(contraction_ops(model))
        with pytest.raises(ConstructionError):
            radial_grid_to_dual_grid(seq, e, fl)


def test_transfer_rejects_wrong_host():
    e, fl, seq = nation_grid_transfer_instance(12)
    e2, fl2, _ = nation_grid_transfer_instance(14)
    with pytest.raises(ConstructionError):
        radial_grid_to_dual_grid(seq, e2, fl2)


def test_transfer_rejects_a_long_uncut_edge():
    # contract a deleted vertex w into window vertex a, where w also
    # touches window vertex b two cells from a, and delete the new edge
    # ab: the final graph is still the k x k grid, but without its edge
    # deletions the contracted graph joins non-neighboring cells
    e, fl, seq = nation_grid_transfer_instance(12)
    host = union_radial_dual(e, fl)
    verts, edges, _ = seq.replay(host)
    _, coords = _assign_grid_coords(verts, edges)
    w, a, b = next(
        (w, a, b) for w in range(host.n) if w not in verts
        for a in host.adj[w] & verts for b in host.adj[w] & verts
        if max(abs(p - q) for p, q in zip(coords[a], coords[b])) > 1)
    ops = [("contract", a, w)] + [op for op in seq.ops
                                  if op != ("delete_vertex", w)]
    ops.append(("delete_edge", min(a, b), max(a, b)))
    long_edge = ContractionSequence(ops)
    assert long_edge.replay(host)[:2] == (verts, edges)
    with pytest.raises(ConstructionError, match="non-neighboring grid cells"):
        radial_grid_to_dual_grid(long_edge, e, fl)


def _absorbing_transfer_instance(size, rng):
    """(e, fl, seq, coords): nation_grid_transfer_instance(size) where
    1 to 4 deleted vertices next to the window are contracted into a
    window neighbour instead, and the edges this adds to the window grid
    are deleted; coords places the grid that seq still leaves."""
    e, fl, seq = nation_grid_transfer_instance(size)
    host = union_radial_dual(e, fl)
    verts, edges, _ = seq.replay(host)
    _, coords = _assign_grid_coords(verts, edges)
    outside = sorted(w for w in range(host.n)
                     if w not in verts and host.adj[w] & verts)
    absorbed = rng.sample(outside, rng.randint(1, 4))
    ops = [("contract", rng.choice(sorted(host.adj[w] & verts)), w)
           for w in absorbed]
    ops += [op for op in seq.ops
            if op[0] != "delete_vertex" or op[1] not in absorbed]
    _, final, _ = ContractionSequence(ops).replay(host)
    ops += [("delete_edge", a, b) for a, b in sorted(final - edges)]
    return e, fl, ContractionSequence(ops), coords


def test_transfer_rejects_exactly_the_long_uncut_edges():
    # the uncut graph is the replay without the edge deletions; the
    # transfer must refuse it exactly when it joins two cells more than
    # one step apart, and name the least such pair
    rng = random.Random(27)
    outcomes = set()
    for size in (12, 13, 14, 15) * 4:
        e, fl, seq, coords = _absorbing_transfer_instance(size, rng)
        _, uncut, _ = replay_by_definition(
            union_radial_dual(e, fl),
            [op for op in seq.ops if op[0] != "delete_edge"])
        long_edges = sorted(
            (u, v) for u, v in uncut
            if max(abs(p - q) for p, q in zip(coords[u], coords[v])) > 1)
        if long_edges:
            with pytest.raises(ConstructionError, match=re.escape(
                    f"edge {long_edges[0]} spans non-neighboring grid "
                    f"cells")):
                radial_grid_to_dual_grid(seq, e, fl)
        else:
            assert verify_model(radial_grid_to_dual_grid(seq, e, fl)) is None
        outcomes.add(bool(long_edges))
    assert outcomes == {False, True}


def test_double_radial_minor_triangle_and_cube():
    for e in (_triangle(), cube_embedding()):
        m = double_radial_minor(e)
        assert verify_model(m) is None
        assert m.pattern == e.simple_graph()
        r2 = radial_embedding(radial_embedding(e))
        assert m.host == r2.simple_graph()


def test_double_radial_minor_random_triangulations():
    for n in (4, 6, 9):
        for seed in range(3):
            t = random_planar_triangulation(n, seed)
            m = double_radial_minor(t)
            assert verify_model(m) is None


def test_double_radial_host_is_the_radial_embedding_taken_twice():
    cases = [cube_embedding()] + [random_planar_triangulation(n, seed)
                                  for n in (4, 5, 8, 13, 30, 60)
                                  for seed in range(3)]
    for e in cases:
        assert double_radial_minor(e).host == double_radial_host(e)


def test_double_radial_minor_on_any_embedding():
    # neither simplicity nor 2-connectivity nor genus 0 is needed: a path,
    # rotation systems with loops, parallel edges and higher genus, and
    # simple graphs, connected or not, with shuffled rotations
    rng = random.Random(25)
    path = _build_from_rotations([[(1, "a")], [(0, "a"), (2, "b")],
                                  [(1, "b")]])
    cases = [path] + [random_rotation_system(rng, 1 + trial % 12)
                      for trial in range(600)]
    for trial in range(300):
        n = 3 + trial % 9
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.35]
        # every vertex needs a dart: an isolated one gets a random edge
        for u in range(n):
            if not any(u in uv for uv in edges):
                v = rng.choice([v for v in range(n) if v != u])
                edges.append((min(u, v), max(u, v)))
        rots = [[] for _ in range(n)]
        for u, v in edges:
            rots[u].append((v, 0))
            rots[v].append((u, 0))
        for r in rots:
            rng.shuffle(r)
        cases.append(_build_from_rotations(rots))
    shapes = set()
    for e in cases:
        m = double_radial_minor(e)
        assert verify_model(m) is None
        assert m.pattern == e.simple_graph()
        assert m.host == double_radial_host(e)
        shapes.add((e.simple_graph().is_connected(), e.genus() > 0,
                    e.num_edges() > len(m.pattern.edges)))
    assert len(shapes) == 8, shapes


def test_primal_dual_width_report():
    rep = primal_dual_width_report(_triangle())
    assert rep == {"tw_primal": 2, "tw_dual": 1, "genus": 0}
    for n, seed in ((6, 0), (9, 2)):
        t = random_planar_triangulation(n, seed)
        rep = primal_dual_width_report(t)
        assert abs(rep["tw_primal"] - rep["tw_dual"]) <= 1
        assert rep["genus"] == 0


def test_model_json_round_trip():
    g = random_graph(9, 4, 0.45)
    m = minor_containment_exact(SimpleGraph.cycle(4), g)
    assert m is not None
    text = model_dumps(m)
    m2 = model_loads(text)
    assert model_dumps(m2) == text
    assert verify_model(m2) is None


def test_sequence_json_round_trip():
    g = SimpleGraph.cycle(5)
    seq = ContractionSequence([("contract", 0, 1), ("delete_edge", 0, 2),
                               ("delete_vertex", 3)])
    text = sequence_dumps(seq)
    seq2 = sequence_loads(text)
    assert sequence_dumps(seq2) == text
    assert seq2.replay(g) == seq.replay(g)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_transfer_and_double_radial_models_are_pinned():
    # the BFS tie-breaking toward smaller ids picks the transfer paths
    # and the contraction trees; a traversal change must not silently
    # change the models or the sequences
    transfer = {
        12: "e345e2b893c3ecbb8ff12d64d5e3c55f4b55214f4c694876846201a1419093ee",
        18: "bdfe8052e179e11ad49a26a8f10c99dda13684dd0e5984d58ac462ea936e63e2",
        31: "196d2996cd8dd863889d2624fea9c3544a8f3abc24d75e07fa5745fb6d1d9586",
        # the 2x2-coarsened 36: the one pinned transfer whose label sets
        # are not singletons
        "36 coarsened":
            "9b4de959e54415ce083c2057222226b95baec3f2fbdba552206dea2a98c3f476",
        # larger label sets: 3x3 blocks (4 branch sets), and 16 branch sets
        "54 coarsened 3":
            "9656b3490248ba8e9ed06d819e91bb70b090ec2071346d8958fad6787f8d5e03",
        "61 coarsened 2":
            "0ce80991e7dfca47bdf41becf01e9ed96153ff6207f7355b93059c6b2e10a84a",
    }
    coarsened = {"36 coarsened": (36, 2, 0), "54 coarsened 3": (54, 3, 1),
                 "61 coarsened 2": (61, 2, 1)}
    models = {}
    for key, digest in transfer.items():
        if key in coarsened:
            e, fl, seq, _ = _coarsened_transfer_instance(*coarsened[key])
        else:
            e, fl, seq = nation_grid_transfer_instance(key)
        models[key] = radial_grid_to_dual_grid(seq, e, fl)
        assert _sha256(model_dumps(models[key])) == digest
    double = {
        (9, 1):
            "4a56ea3bda3900cf80be3f0e0892d6566f53d69cc781e42a9364b500b8f11998",
        (40, 2):
            "c5f69b8470ea40455f5f28901ca960527444365a649f5cd35a8794f838a1e0df",
    }
    for (n, seed), digest in double.items():
        models[n, seed] = double_radial_minor(
            random_planar_triangulation(n, seed))
        assert _sha256(model_dumps(models[n, seed])) == digest
    sequences = {
        18: "cb85d87acecb2cae24fcfc27f6c41f10e74d170ccc9fff4a41c967937a4f3fd9",
        (9, 1):
            "2910c0436d69bfd5b3c5dbe72ff2e1534c0b6f57761064559db0c82d4d415132",
    }
    for key, digest in sequences.items():
        m = models[key]
        seq = ContractionSequence(contraction_ops(m))
        assert _sha256(sequence_dumps(seq)) == digest


def _connected_by_distances(n, edges):
    dist = all_pairs_distances(SimpleGraph(n, edges))
    return all(d is not None for row in dist for d in row)


def test_connectivity_matches_distance_oracle():
    graphs = [SimpleGraph(0), SimpleGraph(1), SimpleGraph(2, [(0, 1)]),
              SimpleGraph(5), SimpleGraph.path(6), SimpleGraph.cycle(7),
              SimpleGraph.star(5), SimpleGraph.complete(4),
              # two triangles sharing vertex 2: a cut vertex
              SimpleGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4),
                              (3, 4)]),
              # a 4-cycle plus an isolated vertex
              SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])]
    graphs += [random_graph(n, seed, p) for n in range(2, 15)
               for seed in range(3) for p in (0.15, 0.3, 0.6)]
    seen = set()
    for g in graphs:
        connected = _connected_by_distances(g.n, g.edges)
        assert g.is_connected() == connected
        seen.add(connected)
    assert seen == {False, True}


@functools.lru_cache(maxsize=None)
def _large_valid_models():
    e, fl, seq = nation_grid_transfer_instance(55)
    models = (radial_grid_to_dual_grid(seq, e, fl),
              double_radial_minor(random_planar_triangulation(50, 0)),
              double_radial_minor(random_planar_triangulation(64, 3)))
    for m in models:
        assert m.pattern.n >= 50 and verify_model(m) is None
    return models


def _mutated_model(m, rng):
    """m after one random mutation: a branch vertex moved (to another
    branch set or to a host neighbour), a branch set grown by a host
    neighbour (often still valid), a witness endpoint shared by the two
    branch sets it joins, a witness pointed at a non-edge or at a host
    edge that need not join its branch sets, or a branch set emptied."""
    h, g = m.pattern, m.host
    branch = {v: set(s) for v, s in m.branch_sets.items()}
    witness = dict(m.edge_witness)
    u, v = rng.sample(range(h.n), 2)
    kind = rng.randrange(4)
    if kind == 0 and branch[u]:
        x = rng.choice(sorted(branch[u]))
        move = rng.randrange(3)
        if move < 2:
            branch[u].discard(x)
        if move == 0:
            branch[v].add(x)
        else:
            branch[u].add(rng.choice(sorted(g.adj[x]) or [x]))
    elif kind == 1:
        # the endpoint of a witness in one branch set is adjacent to the
        # other set, which therefore stays connected when it takes it
        (u, v), (a, b) = rng.choice(sorted(m.edge_witness.items()))
        branch[v if a in branch[u] else u].add(a)
    elif kind == 2:
        key = rng.choice(sorted(h.edges))
        if rng.random() < 0.5:
            witness[key] = rng.choice(sorted(g.edges))
        else:
            a, b = rng.sample(range(g.n), 2)
            while g.has_edge(a, b):
                a, b = rng.sample(range(g.n), 2)
            witness[key] = (a, b)
    else:
        branch[u] = set()
    return MinorModel(h, g, branch, witness)


def _verify_model_against_oracle(which, seeds):
    m = _large_valid_models()[which]
    for seed in seeds:
        m = _mutated_model(m, random.Random(seed))
    got = verify_model(m)
    expect = first_model_violation(m)
    assert (got and (got.condition, got.witness)) == expect
    return expect and expect[0]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2),
       st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3))
def test_verify_model_matches_definition_oracle(which, seeds):
    _verify_model_against_oracle(which, seeds)


def test_model_mutations_reach_every_violation_kind():
    rng = random.Random(9)
    found = {_verify_model_against_oracle(
        which, [rng.randrange(2 ** 32) for _ in range(rng.randint(1, 3))])
        for which in range(3) for _ in range(100)}
    assert found == {None, "coverage", "connected", "disjoint", "witness"}
