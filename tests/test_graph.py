import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridlab.embedding import map_graph, radial_graph
from gridlab.generators import (grid, partially_triangulated_grid,
                                random_canonical_map, random_graph)
from gridlab.graph import (Bipartition, BoundReport, CliqueWitness,
                           SimpleGraph, _bfs_parents, _power_with_balls,
                           k_neighborhood, power_clique_or_bound, power_graph)

from oracles import (all_pairs_distances, first_far_pair,
                     first_power_degree_at_least, half_square,
                     in_checked_form, power_max_degree)


def test_simple_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 3)])
    with pytest.raises(ValueError, match="^cycle needs at least 3 vertices$"):
        SimpleGraph.cycle(2)


@pytest.mark.parametrize("n, edges, message", [
    (2.0, (), "vertex count: expected an integer, got 2.0"),
    (True, (), "vertex count: expected an integer, got True"),
    ("3", (), "vertex count: expected an integer, got '3'"),
    (2, [(0, 1.0)], "edge (0, 1.0): expected an integer, got 1.0"),
    (2, [(0, True)], "edge (0, True): expected an integer, got True"),
    (3, [(0, 1), ("1", 2)], "edge ('1', 2): expected an integer, got '1'"),
])
def test_simple_graph_takes_only_int_vertices(n, edges, message):
    # 1.0 and True compare equal to 1 and would pass the range test
    with pytest.raises(ValueError) as exc:
        SimpleGraph(n, edges)
    assert str(exc.value) == message


def test_power_k1_is_identity():
    g = random_graph(8, 3)
    assert power_graph(g, 1) == g


def test_power_p5_squared():
    p5 = SimpleGraph.path(5)
    got = power_graph(p5, 2)
    assert got.edges == frozenset(
        {(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)})


def test_power_star_squared_complete():
    for m in (2, 5, 9):
        assert power_graph(SimpleGraph.star(m), 2).is_complete()


def test_power_rejects_k0():
    with pytest.raises(ValueError):
        power_graph(SimpleGraph.path(3), 0)


def test_power_matches_distance_oracle():
    graphs = [random_graph(9, seed) for seed in range(8)]
    # disconnected: sparse gnp graphs, isolated vertices, two paths
    graphs += [random_graph(12, seed, 0.1) for seed in range(8)]
    graphs += [SimpleGraph(4), SimpleGraph(9, [(0, 1), (1, 2), (2, 3),
                                               (5, 6), (6, 7), (7, 8)])]
    for g in graphs:
        dist = all_pairs_distances(g)
        for k in range(5):
            balls = [{v for v in range(g.n)
                      if dist[u][v] is not None and dist[u][v] <= k}
                     for u in range(g.n)]
            assert [k_neighborhood(g, u, k) for u in range(g.n)] == balls
            if k == 0:
                continue
            gk = power_graph(g, k)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    expect = dist[u][v] is not None and dist[u][v] <= k
                    assert gk.has_edge(u, v) == expect


def test_power_monotone_in_k():
    for seed in range(6):
        g = random_graph(10, seed, 0.25)
        prev = g
        for k in range(2, 5):
            cur = power_graph(g, k)
            assert prev.edges <= cur.edges
            prev = cur


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10 ** 6), st.sampled_from([2, 3]))
def test_iterated_power_distance_contraction(n, seed, a):
    # dist in G^a is ceil(dist_G / a) for reachable pairs
    g = random_graph(n, seed, 0.3)
    dist = all_pairs_distances(g)
    ga = power_graph(g, a)
    dist_a = all_pairs_distances(ga)
    for u in range(n):
        for v in range(n):
            if dist[u][v] is not None:
                assert dist_a[u][v] == -(-dist[u][v] // a)


def test_k_neighborhood_basics():
    g = SimpleGraph.path(5)
    assert k_neighborhood(g, 2, 0) == {2}
    assert k_neighborhood(g, 2, 1) == {1, 2, 3}
    center = grid(3, 3)
    assert len(k_neighborhood(center, 4, 1)) == 5
    with pytest.raises(ValueError):
        k_neighborhood(g, 7, 1)
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        k_neighborhood(g, 0, -1)


# True and 2.0 compare equal to 1 and 2: without a type test a bool
# vertex joins its own ball, power_graph(g, True) is g, and range
# refuses a float radius with a TypeError
@pytest.mark.parametrize("call, message", [
    (lambda g: k_neighborhood(g, True, 1),
     "expected an integer vertex and radius, got True and 1"),
    (lambda g: k_neighborhood(g, 1.0, 1),
     "expected an integer vertex and radius, got 1.0 and 1"),
    (lambda g: k_neighborhood(g, 0, 1.5),
     "expected an integer vertex and radius, got 0 and 1.5"),
    (lambda g: k_neighborhood(g, 0, True),
     "expected an integer vertex and radius, got 0 and True"),
    (lambda g: power_graph(g, True), "expected an integer, got True"),
    (lambda g: power_graph(g, 2.0), "expected an integer, got 2.0")],
    ids=["ball-vertex-bool", "ball-vertex-float", "ball-radius-float",
         "ball-radius-bool", "power-bool", "power-float"])
def test_power_radii_and_vertices_are_ints(call, message):
    with pytest.raises(ValueError) as exc:
        call(SimpleGraph.path(3))
    assert str(exc.value) == message


def test_half_square_tiny():
    g = SimpleGraph(2, [(0, 1)])
    assert half_square(g, {0}) == (set(), [0])
    path = SimpleGraph.path(3)  # u - x - w
    assert half_square(path, {0, 2}) == ({(0, 1)}, [0, 2])


def test_half_square_of_radial_is_map_graph():
    # nation-side half-square of the radial graph coincides with the
    # map graph under the shared nation indexing
    for seed in range(10):
        for nations in (2, 4, 6, 8):
            e, fl = random_canonical_map(nations, seed)
            r, bip = radial_graph(e, fl)
            edges, ids = half_square(r, bip.right)
            assert ids == sorted(bip.right)
            assert SimpleGraph(len(ids), edges) == map_graph(e, fl)


def test_bipartition_check():
    g = SimpleGraph(3, [(0, 1), (1, 2)])
    Bipartition({0, 2}, {1}).check(g)
    with pytest.raises(ValueError):
        Bipartition({0, 1}, {2}).check(g)
    with pytest.raises(ValueError):
        Bipartition({0}, {1}).check(g)


def test_clique_witness_verify():
    g = SimpleGraph.path(4)
    assert CliqueWitness({0, 1, 2}, 2).verify(g) is None
    assert CliqueWitness({0, 3}, 2).verify(g) == (0, 3)


def test_clique_witness_rejects_vertices_outside_the_graph():
    p3 = SimpleGraph.path(3)
    assert CliqueWitness({-1, 1}, 1).verify(p3) == (-1, 1)
    assert CliqueWitness({-3, 0}, 0).verify(p3) == (-3, 0)
    assert CliqueWitness({0, 3}, 5).verify(p3) == (0, 3)
    # the least outside vertex is reported, alone if nothing else
    assert CliqueWitness({7, 3, 1}, 5).verify(p3) == (1, 3)
    assert CliqueWitness({4}, 0).verify(p3) == (4, 4)
    assert CliqueWitness({0}, 1).verify(SimpleGraph(0)) == (0, 0)
    with pytest.raises(ValueError):
        CliqueWitness({0, 1}, -1)


def test_clique_witness_verify_matches_distance_oracle():
    rng = random.Random(11)
    for seed in range(60):
        n = 2 + seed % 10
        g = random_graph(n, seed, rng.choice([0.1, 0.25, 0.5]))
        dist = all_pairs_distances(g)
        for _ in range(5):
            verts = sorted(rng.sample(range(n), rng.randint(1, min(n, 5))))
            k = rng.randrange(4)
            bad = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
                   if dist[u][v] is None or dist[u][v] > k]
            assert CliqueWitness(verts, k).verify(g) == min(bad, default=None)


def test_bfs_with_a_target_stops_there_with_the_same_parents():
    rng = random.Random(5)
    for seed in range(60):
        g = random_graph(12 + seed % 9, seed, 0.15 + seed % 4 * 0.05)
        allowed = (None if seed % 3 == 0 else
                   set(rng.sample(range(g.n), g.n * 2 // 3)))
        full = _bfs_parents(g.adj, 0, allowed)
        order = list(full)
        for target in range(g.n):
            got = _bfs_parents(g.adj, 0, allowed, target=target)
            if target in full:
                # the full search's discovery order cut just after target
                assert list(got.items()) == [
                    (v, full[v]) for v in order[:order.index(target) + 1]]
            else:
                assert got == full


def test_subgraph_matches_definition():
    rng = random.Random(5)
    for seed in range(40):
        g = random_graph(2 + seed % 12, seed, 0.3)
        pool = list(range(g.n))
        for _ in range(5):
            verts = [rng.choice(pool) for _ in range(rng.randrange(8))]
            sub, old = g.subgraph(verts)
            assert old == sorted(set(verts))
            assert sub.n == len(old)
            assert sub.edges == {(i, j) for i in range(sub.n)
                                 for j in range(i + 1, sub.n)
                                 if (old[i], old[j]) in g.edges}


def test_unchecked_powers_and_subgraphs_are_in_checked_form():
    # _power_with_balls (power_graph, lift_power) and subgraph skip the
    # SimpleGraph checks
    rng = random.Random(29)
    graphs = [SimpleGraph(0), SimpleGraph(1), SimpleGraph.star(4)]
    graphs += [partially_triangulated_grid(rows, cols, seed)
               for rows, cols, seed in ((1, 1, 0), (2, 7, 1), (5, 5, 2),
                                        (9, 6, 3), (12, 12, 4))]
    graphs += [random_graph(n, seed, 0.2) for n, seed in ((2, 0), (9, 1),
                                                          (30, 2))]
    for nations in (1, 7, 40):
        e, fl = random_canonical_map(nations, rng.randrange(1000))
        graphs += [map_graph(e, fl), radial_graph(e, fl)[0]]
    for g in graphs:
        for k in (1, 2, 3):
            assert in_checked_form(_power_with_balls(g, k)[0])
            assert in_checked_form(power_graph(g, k))
        pool = list(range(g.n))
        subsets = [[], pool, pool[:1] * 3, pool + pool]
        subsets += [[rng.choice(pool)
                     for _ in range(rng.randrange(2 * g.n + 2))]
                    for _ in range(8 if pool else 0)]
        for verts in subsets:
            assert in_checked_form(g.subgraph(verts)[0])


@pytest.mark.parametrize("vertices, bad", [
    ([0, 1.5], "1.5"), ([True, 2], "True"), ((v for v in (2, "0")), "'0'"),
    ({0, None}, "None"), ([1, True], "True"),
    # an int names an id outside the graph; a negative one is named
    # before one that is too large
    ([0, -1, 1], -1), ([3, 0, 1], 3), ([-1, 3], -1), ([3], 3)])
def test_subgraph_takes_only_int_vertices(vertices, bad):
    # a float once raised a TypeError from the adjacency lists, a bool
    # came back among the old ids, and an id outside the graph came back
    # as an isolated vertex
    g = SimpleGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError) as exc:
        g.subgraph(vertices)
    want = "a vertex id in 0..2" if type(bad) is int else "an integer"
    assert str(exc.value) == f"subgraph vertex: expected {want}, got {bad}"


def test_power_clique_star():
    star = SimpleGraph.star(9)
    out = power_clique_or_bound(star, 2, 3)
    assert isinstance(out, CliqueWitness)
    assert len(out.vertices) >= 9
    assert out.verify(star) is None


def test_power_clique_takes_the_big_class_with_the_least_member():
    # center 0 with legs 1 and 2; leg 2 owns leaves 3..6, leg 1 leaves
    # 7..10, so both leg classes are big and the one holding 1 wins
    g = SimpleGraph(11, [(0, 1), (0, 2)] + [(2, x) for x in range(3, 7)]
                    + [(1, x) for x in range(7, 11)])
    for k in (2, 3):
        out = power_clique_or_bound(g, k, 2)
        assert out == CliqueWitness({1, 7, 8, 9, 10}, k)
        assert out.verify(g) is None


def test_power_bound_long_path():
    p = SimpleGraph.path(100)
    out = power_clique_or_bound(p, 4, 4)
    assert isinstance(out, BoundReport)
    assert out.parity == "even" and out.degree_bound == 256
    assert power_max_degree(p, 4) == 8 < 256
    out = power_clique_or_bound(p, 5, 4)
    assert isinstance(out, BoundReport)
    assert out.parity == "odd" and out.degree_bound == 4096


def test_bound_report_verify():
    p = SimpleGraph.path(100)
    for k in (4, 5):
        assert power_clique_or_bound(p, k, 4).verify(p) is None
    # r = 1 claims that no vertex of G^2 has a neighbor; with 0 and 1
    # isolated, vertex 2 is the first with one
    false_claim = BoundReport(k=2, r=1, center=0)
    assert false_claim.verify(SimpleGraph(4, [(2, 3)])) == 2
    # r = 2 claims degree < 16 in G^2: K_{1,15} squared is K_16, and
    # K_{1,16} squared is K_17
    claim = BoundReport(k=2, r=2, center=0)
    assert claim.verify(p) is None
    assert claim.verify(SimpleGraph.star(15)) is None
    assert claim.verify(SimpleGraph.star(16)) == 0


@pytest.mark.parametrize("fields", [
    dict(k=0, r=1, center=0),
    dict(k=2, r=0, center=0),
    dict(k=True, r=1, center=0),
    dict(k=2.0, r=1, center=0),
    dict(k=2, r=1, center="0"),
])
def test_bound_report_rejects_a_self_contradicting_claim(fields):
    with pytest.raises(ValueError):
        BoundReport(**fields)


@pytest.mark.parametrize("g, k, r, message", [
    (SimpleGraph(0), 2, 1, "graph must be nonempty"),
    (SimpleGraph.path(3), 0, 1, "k must be >= 1"),
    (SimpleGraph.path(3), 2, 0, "r must be >= 1"),
    (SimpleGraph.path(3), 2, 1.5, "expected an integer, got 1.5"),
    (SimpleGraph.star(9), 2, 1.5, "expected an integer, got 1.5"),
    (SimpleGraph.path(3), 2, True, "expected an integer, got True"),
    (SimpleGraph.path(3), 2.0, 1, "expected an integer, got 2.0")])
def test_power_clique_or_bound_refuses_its_arguments(g, k, r, message):
    with pytest.raises(ValueError) as exc:
        power_clique_or_bound(g, k, r)
    assert str(exc.value) == message


def test_power_clique_k1_checks_its_last_class_in_g():
    # for k = 1 the last stage's class is N_1(v), whose members may lie 2
    # apart: in K_5 it is a clique, in the star K_{1,4} it is not
    assert (power_clique_or_bound(SimpleGraph.complete(5), 1, 2)
            == CliqueWitness(range(5), 1))
    with pytest.raises(ValueError) as exc:
        power_clique_or_bound(SimpleGraph.star(4), 1, 2)
    assert str(exc.value) == (
        "k=1 stage-3 class is not a clique in G itself; "
        "power_clique_or_bound gives no certificate here")


@pytest.mark.parametrize("bound", [1.9, True, "2", None])
def test_clique_witness_takes_only_an_int_bound(bound):
    with pytest.raises(ValueError):
        CliqueWitness({0, 1}, bound)


def test_power_clique_or_bound_random_sound():
    for seed in range(12):
        g = random_graph(10, seed, 0.25)
        for k in (2, 3):
            out = power_clique_or_bound(g, k, 2)
            if isinstance(out, CliqueWitness):
                assert len(out.vertices) >= 4
                assert out.verify(g) is None
            else:
                assert power_max_degree(g, k) < out.degree_bound
                assert out.verify(g) is None


def test_power_clique_or_bound_results_are_pinned():
    # the BFS tie-breaking toward smaller ids decides which class wins;
    # a traversal change must not silently change the outcomes
    got = []
    for seed in range(20):
        g = random_graph(8 + seed % 7, seed, 0.2 + 0.05 * (seed % 4))
        for k in (1, 2, 3, 4):
            for r in (1, 2, 3):
                try:
                    out = power_clique_or_bound(g, k, r)
                except ValueError as exc:
                    got.append(("ValueError", str(exc)))
                    continue
                if isinstance(out, CliqueWitness):
                    got.append(("clique", sorted(out.vertices),
                                out.pairwise_distance_bound))
                else:
                    got.append(("bound", out.k, out.r, out.parity,
                                out.degree_bound, out.center))
    assert [sum(o[0] == kind for o in got)
            for kind in ("clique", "bound", "ValueError")] == [137, 84, 19]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "6807cf50ab8996d19e999583444fbc284d526b6920464cf1de01caa5485e910a")


@functools.lru_cache(maxsize=None)
def _power_certificates():
    """(graph, certificate) pairs that verify: what power_clique_or_bound
    returns on random graphs, a path, a cycle and a star."""
    graphs = [random_graph(6 + seed % 10, seed, 0.1 + 0.05 * (seed % 4))
              for seed in range(30)]
    graphs += [SimpleGraph.path(15), SimpleGraph.cycle(12),
               SimpleGraph.star(12)]
    cases = []
    for g in graphs:
        for k in (1, 2, 3, 4):
            for r in (1, 2):
                try:
                    out = power_clique_or_bound(g, k, r)
                except ValueError:  # k = 1 past the second stage
                    continue
                assert out.verify(g) is None
                cases.append((g, out))
    return cases


def _mutated_certificate(g, cert, rng):
    """(g, cert) after one change.  A clique witness gains a vertex of g
    or one outside it, loses a vertex, or has its bound lowered.  A
    degree bound is claimed for k + 1 or r - 1, or g gains an edge or a
    vertex with 12 or 16 new leaves."""
    kind = rng.randrange(4)
    if isinstance(cert, CliqueWitness):
        verts = set(cert.vertices)
        bound = cert.pairwise_distance_bound
        if kind == 0 and g.n:
            verts.add(rng.randrange(g.n))
        elif kind == 1:
            verts.add(rng.choice([-3, -1, g.n, g.n + 2]))
        elif kind == 2 and len(verts) > 1:
            verts.discard(rng.choice(sorted(verts)))
        else:
            bound = max(bound - 1, 0)
        return g, CliqueWitness(verts, bound)
    k, r = cert.k, cert.r
    if kind == 0:
        k += 1
    elif kind == 1:
        r = max(r - 1, 1)
    elif kind == 2:
        missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                   if (u, v) not in g.edges]
        if missing:
            g = SimpleGraph(g.n, g.edges | {rng.choice(missing)})
    else:
        hub = g.n
        leaves = rng.choice([12, 16])
        g = SimpleGraph(hub + 1 + leaves, g.edges
                        | {(rng.randrange(hub), hub)}
                        | {(hub, hub + 1 + i) for i in range(leaves)})
    return g, BoundReport(k=k, r=r, center=cert.center)


def _certificate_against_oracle(which, seeds):
    """Check verify on a certificate after the mutations against the
    distance-matrix oracles; returns the certificate's kind and what was
    found wrong, if anything."""
    g, cert = _power_certificates()[which]
    for seed in seeds:
        g, cert = _mutated_certificate(g, cert, random.Random(seed))
    got = cert.verify(g)
    if isinstance(cert, BoundReport):
        assert got == first_power_degree_at_least(g, cert.k,
                                                   cert.degree_bound)
        return "bound", None if got is None else "degree"
    assert got == first_far_pair(cert.vertices, cert.pairwise_distance_bound,
                                 g)
    if got is None:
        return "clique", None
    return "clique", "far" if 0 <= min(got) <= max(got) < g.n else "outside"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 16),
       st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3))
def test_power_certificates_match_distance_oracles(which, seeds):
    _certificate_against_oracle(which % len(_power_certificates()), seeds)


def test_power_certificate_mutations_reach_every_outcome():
    rng = random.Random(13)
    found = {_certificate_against_oracle(
        which, [rng.randrange(2 ** 32) for _ in range(rng.randint(1, 3))])
        for which in range(len(_power_certificates())) for _ in range(3)}
    assert found == {("clique", None), ("clique", "far"),
                     ("clique", "outside"), ("bound", None),
                     ("bound", "degree")}
