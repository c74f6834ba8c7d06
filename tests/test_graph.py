import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridlab.embedding import map_graph, radial_graph
from gridlab.errors import SizeLimitError
from gridlab.generators import grid, random_canonical_map, random_graph
from gridlab.graph import (Bipartition, BoundReport, CliqueWitness,
                           SimpleGraph, half_square, k_neighborhood,
                           max_clique_exact, power_clique_or_bound,
                           power_graph)

from oracles import all_pairs_distances, power_max_degree


def test_simple_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 3)])


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


def test_half_square_tiny():
    g = SimpleGraph(2, [(0, 1)])
    hs, ids = half_square(g, Bipartition({0}, {1}))
    assert hs.n == 1 and not hs.edges and ids == [0]
    path = SimpleGraph.path(3)  # u - x - w
    hs, ids = half_square(path, Bipartition({0, 2}, {1}))
    assert hs.edges == frozenset({(0, 1)}) and ids == [0, 2]


def test_half_square_of_radial_is_map_graph():
    # nation-side half-square of the radial graph coincides with the
    # map graph under the shared nation indexing
    for seed in range(10):
        for nations in (2, 4, 6, 8):
            e, fl = random_canonical_map(nations, seed)
            r, bip = radial_graph(e, fl)
            hs, ids = half_square(r, Bipartition(bip.right, bip.left))
            assert ids == sorted(bip.right)
            assert hs == map_graph(e, fl)


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


def test_subgraph_matches_definition():
    rng = random.Random(5)
    for seed in range(40):
        g = random_graph(2 + seed % 12, seed, 0.3)
        pool = list(range(-2, g.n + 2))
        for _ in range(5):
            verts = [rng.choice(pool) for _ in range(rng.randrange(8))]
            sub, old = g.subgraph(verts)
            assert old == sorted(set(verts))
            assert sub.n == len(old)
            assert sub.edges == {(i, j) for i in range(sub.n)
                                 for j in range(i + 1, sub.n)
                                 if (old[i], old[j]) in g.edges}


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
    # in P_100 squared, vertex 2 is the first with 4 neighbors
    false_claim = BoundReport(k=2, r=1, parity="even", degree_bound=4,
                              center=0)
    assert false_claim.verify(p) == 2
    assert BoundReport(k=2, r=2, parity="even", degree_bound=5,
                       center=0).verify(p) is None


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


def test_max_clique_known():
    assert max_clique_exact(SimpleGraph.complete(5)) == {0, 1, 2, 3, 4}
    c5 = SimpleGraph.cycle(5)
    clique = max_clique_exact(c5)
    assert len(clique) == 2
    u, v = sorted(clique)
    assert c5.has_edge(u, v)


def test_max_clique_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    petersen = SimpleGraph(10, outer + inner + spokes)
    assert len(max_clique_exact(petersen)) == 2


def test_max_clique_size_refusal():
    with pytest.raises(SizeLimitError):
        max_clique_exact(SimpleGraph(41))
