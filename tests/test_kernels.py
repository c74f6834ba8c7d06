import hashlib
import logging
import random

from hypothesis import given, settings, strategies as st
from oracles import (elimination_bags, max_clique_brute, min_fill_rescan,
                     minor_min_width_scan, reducible_by_definition,
                     treewidth_brute)

from gridlab import _kernels
from gridlab.decomposition import decomposition_from_order
from gridlab.embedding import all_nations, dual_graph, radial_graph
from gridlab.generators import (grid, partially_triangulated_grid,
                                random_canonical_map, random_graph,
                                random_planar_triangulation)
from gridlab.graph import SimpleGraph, power_graph


def _dual(n, seed):
    t = random_planar_triangulation(n, seed)
    return dual_graph(t, all_nations(t))


def test_implementation_tag():
    assert _kernels.IMPLEMENTATION == "pure"


def test_known_widths():
    cases = [
        (SimpleGraph(1), 0),
        (SimpleGraph.path(6), 1),
        (SimpleGraph.cycle(6), 2),
        (SimpleGraph.complete(7), 6),
        (grid(3, 3), 3),
        (grid(4, 4), 4),
        # cubic duals that MMW leaves open; the almost simplicial rule
        # closes them
        (_dual(11, 2), 4),
        (_dual(12, 1), 4),
    ]
    for g, want in cases:
        width, order = _kernels.treewidth_order(g.n, g.adjacency_masks())
        assert width == want
        assert sorted(order) == list(range(g.n))


def test_exact_matches_brute_on_small_graphs():
    graphs = []
    for seed in range(60):
        g = random_graph(4 + seed % 6, seed, 0.25 + 0.05 * (seed % 5))
        graphs += [g, power_graph(g, 2)]
    for n in (4, 5, 6):
        graphs += [_dual(n, seed) for seed in range(8)]
    for seed in range(60):
        graphs.append(random_graph(9, 100 + seed, 0.4))
    assert len(graphs) >= 200 and max(g.n for g in graphs) <= 9
    for g in graphs:
        width, order = _kernels.treewidth_order(g.n, g.adjacency_masks())
        assert width == treewidth_brute(g)
        assert decomposition_from_order(g, order).width == width


def test_bounds_bracket_exact():
    for seed in range(15):
        g = random_graph(11, seed, 0.3)
        masks = g.adjacency_masks()
        exact, _ = _kernels.treewidth_order(g.n, masks)
        hi, _ = _kernels.min_fill_order(g.n, masks)
        assert _kernels.degeneracy(g.n, masks) <= exact <= hi
        assert _kernels.minor_min_width(g.n, masks) <= exact


def test_search_statistics_are_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="gridlab.kernels")
    # the gnp graph is one of the pinned corpus below whose min-fill
    # width is not optimal
    for g in (_dual(12, 1), random_graph(13, 36, 0.3), grid(4, 4),
              SimpleGraph.complete(6)):
        _kernels.treewidth_order(g.n, g.adjacency_masks())
    refuted, searched, closed, tied = [rec.args for rec in caplog.records
                                       if rec.name == "gridlab.kernels"]
    # the first decision proves the min-fill width 4 optimal, so no
    # narrower level is asked
    assert refuted["n"] == 20 and not refuted["root_closed"]
    assert refuted["refuted"] and 0 < refuted["nodes"] < 100
    assert refuted["lb"] < refuted["ub"] == refuted["width"] == 4
    # a no expands only the sets it fails on
    assert refuted["nodes"] == refuted["memo"]
    # here a narrower order exists and the descending decisions find it
    assert not searched["root_closed"] and not searched["refuted"]
    assert searched["lb"] <= searched["width"] < searched["ub"]
    assert searched["nodes"] > 0 and searched["memo"] > 0
    # its one yes, at ub - 1, reaches lb and also expands the
    # n - ub sets along its order
    assert searched["width"] == searched["lb"]
    assert searched["nodes"] == (searched["memo"] + searched["n"]
                                 - searched["ub"])
    assert closed["root_closed"] and not closed["refuted"]
    assert closed["nodes"] == closed["memo"] == 0
    # on K6 minor-min-width reaches ub = 5
    assert tied["lb"] == 5 and tied["root_closed"]


def test_root_runs_one_minor_min_width(monkeypatch, caplog):
    # the root runs minor-min-width once, whether it closes the root
    # (K6) or not (the dual), and never the degeneracy
    caplog.set_level(logging.DEBUG, logger="gridlab.kernels")
    calls = []
    mmw, degeneracy = _kernels.minor_min_width, _kernels.degeneracy

    def counted_mmw(n, masks):
        calls.append("mmw")
        return mmw(n, masks)

    def counted_degeneracy(n, masks):
        calls.append("degeneracy")
        return degeneracy(n, masks)

    monkeypatch.setattr(_kernels, "minor_min_width", counted_mmw)
    monkeypatch.setattr(_kernels, "degeneracy", counted_degeneracy)
    for g, closed in ((SimpleGraph.complete(6), True), (_dual(12, 1), False)):
        calls.clear()
        _kernels.treewidth_order(g.n, g.adjacency_masks())
        assert caplog.records[-1].args["root_closed"] == closed
        assert calls == ["mmw"]
    # the logged lb is that one run's bound
    monkeypatch.undo()
    caplog.clear()
    graphs = _pinned_corpus()
    for g in graphs:
        _kernels.treewidth_order(g.n, g.adjacency_masks())
    stats = [rec.args for rec in caplog.records
             if rec.name == "gridlab.kernels"]
    assert [s["lb"] for s in stats] == [
        mmw(g.n, g.adjacency_masks()) for g in graphs]


def _disjoint_union(g, h):
    return SimpleGraph(g.n + h.n, list(g.edges)
                       + [(u + g.n, v + g.n) for u, v in h.edges])


def test_min_fill_matches_full_rescan():
    graphs = []
    for seed in range(40):
        g = random_graph(5 + seed % 20, seed, 0.1 + 0.05 * (seed % 5))
        graphs += [g, power_graph(g, 2)]
    for seed in range(30):
        graphs.append(radial_graph(*random_canonical_map(2 + seed % 25,
                                                         seed))[0])
    for seed in range(30):
        graphs.append(partially_triangulated_grid(2 + seed % 7,
                                                  3 + seed % 5, seed))
    # isolated vertices, several components, and graphs where every
    # vertex ties
    for seed in range(30):
        g = random_graph(8 + seed % 5, seed, 0.15)
        graphs += [SimpleGraph(g.n + 3, g.edges),
                   _disjoint_union(g, random_graph(6, seed, 0.5))]
    for n in range(1, 11):
        graphs += [SimpleGraph(n), SimpleGraph.complete(n)]
    for n in range(3, 13):
        graphs += [SimpleGraph.cycle(n),
                   _disjoint_union(SimpleGraph.cycle(n), SimpleGraph.cycle(n))]
    # eliminations that add many fill edges, so that the vertices outside
    # the eliminated neighborhood get large fill deltas
    for side in range(4, 9):
        graphs.append(power_graph(partially_triangulated_grid(side, side,
                                                              side), 2))
    for nations in (40, 50, 60):
        graphs.append(radial_graph(*random_canonical_map(nations,
                                                         nations))[0])
    assert len(graphs) >= 200
    for g in graphs:
        masks = g.adjacency_masks()
        assert _kernels.min_fill_order(g.n, masks) == min_fill_rescan(g.n,
                                                                      masks)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10 ** 6), st.floats(0.05, 0.6))
def test_min_fill_matches_full_rescan_on_random_graphs(n, seed, p):
    # the square has dense neighborhoods: eliminated neighbors both gain
    # edges and keep neighbors outside N[v]
    g = random_graph(n, seed, p)
    for h in (g, power_graph(g, 2)):
        masks = h.adjacency_masks()
        assert _kernels.min_fill_order(n, masks) == min_fill_rescan(n, masks)


def _fills_along(n, masks, order):
    """The fills of the live vertices before each step of `order`, each
    counted from scratch."""
    adj = list(masks)
    alive = (1 << n) - 1
    steps = []
    for v in order:
        fills = {}
        for x in range(n):
            if alive >> x & 1:
                nb = adj[x] & alive
                fills[x] = sum((nb & ~adj[u] & ~(1 << u)).bit_count()
                               for u in range(n) if nb >> u & 1) // 2
        steps.append(fills)
        nb = adj[v] & alive
        for u in range(n):
            if nb >> u & 1:
                adj[u] |= nb & ~(1 << u)
        alive &= ~(1 << v)
    return steps


def test_min_fill_bucket_moves_match_full_rescan():
    def checked(g):
        masks = g.adjacency_masks()
        width, order = _kernels.min_fill_order(g.n, masks)
        assert (width, order) == min_fill_rescan(g.n, masks)
        return order, _fills_along(g.n, masks, order)

    radial = radial_graph(*random_canonical_map(20, 20))[0]
    # a fill rises above every initial fill, so the bucket list grows
    for g in (random_graph(12, 0, 0.4), radial,
              partially_triangulated_grid(8, 8, 8)):
        _, steps = checked(g)
        assert max(max(s.values()) for s in steps) > max(steps[0].values())
    # a fill drops below the least bucket, the one v was taken from:
    # eliminating 0 from C4 joins 1 and 3, and every fill goes 1 -> 0
    for g in (SimpleGraph.cycle(4), random_graph(6, 0, 0.3), radial):
        order, steps = checked(g)
        assert any(min(after.values()) < before[v] for v, before, after
                   in zip(order, steps, steps[1:]))
    # ties among all vertices, and an isolated vertex in the middle: the
    # cube Q3 (every fill 3) with vertex 4 isolated, and the edgeless
    # graph (every fill 0)
    cube = [(u, u ^ 1 << i) for u in range(8) for i in range(3)
            if u < u ^ 1 << i]
    g = SimpleGraph(9, [(u + (u >= 4), v + (v >= 4)) for u, v in cube])
    order, steps = checked(g)
    assert sorted(steps[0].values()) == [0] + [3] * 8
    assert order[:2] == [4, 0]
    order, _ = checked(SimpleGraph(7))
    assert order == list(range(7))


def test_min_fill_orders_are_pinned():
    # the digests of the (width, order) lists at benchmark scale: radial
    # graphs of maps with 50-300 nations, partially triangulated grids
    # with sides 8-20 and the squares of those with sides 6-10
    families = {
        "radial": [radial_graph(*random_canonical_map(nations, nations))[0]
                   for nations in range(50, 301, 50)],
        "grid": [partially_triangulated_grid(side, side, side)
                 for side in range(8, 21, 2)],
        "square": [power_graph(partially_triangulated_grid(side, side,
                                                           side), 2)
                   for side in range(6, 11)],
    }
    digests = {
        "radial": "0e5bc6bbb53bfcd1ab602d12e440d6d1"
                  "ac34ebc462ca3610ecc6cfd0eefd21ee",
        "grid": "e3f6007eb11995294d240d7eae2651d1"
                "3ab8152fa154d5a9725474426e937008",
        "square": "3fb98eea8ab4599757e8b4b014deb155"
                  "7165adace6a39a4d1142ac260e1b8ad8",
    }
    for name, graphs in families.items():
        results = [_kernels.min_fill_order(g.n, g.adjacency_masks())
                   for g in graphs]
        assert hashlib.sha256(repr(results).encode()).hexdigest() == (
            digests[name]), name


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10 ** 6), st.floats(0.5, 1.0),
       st.integers(0, 2 ** 12 - 1), st.integers(0, 12))
def test_reducible_matches_definition(n, seed, p, q, cost):
    # dense random graphs, so that q is often a clique or one vertex
    # away from one
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    q &= (1 << n) - 1
    assert _kernels._reducible(adj, q, cost) == reducible_by_definition(
        adj, q, cost)


def test_minor_min_width_matches_scan():
    graphs = []
    for seed in range(300):
        graphs.append(random_graph(2 + seed % 29, seed,
                                   0.05 + 0.05 * (seed % 10)))
    # isolated vertices, several components, and graphs where every
    # vertex ties
    for seed in range(60):
        g = random_graph(6 + seed % 12, seed, 0.3)
        graphs += [SimpleGraph(g.n + 3, g.edges),
                   _disjoint_union(g, random_graph(5, seed, 0.5)),
                   power_graph(g, 2)]
    for n in range(2, 31):
        graphs += [SimpleGraph(n), SimpleGraph.complete(n),
                   SimpleGraph.path(n)]
    graphs += [SimpleGraph.cycle(n) for n in range(3, 31)]
    graphs += [_disjoint_union(SimpleGraph.cycle(n), SimpleGraph.cycle(n))
               for n in range(3, 16)]
    graphs += [grid(a, b) for a in range(2, 6) for b in range(2, 6)]
    assert len(graphs) >= 500 and max(g.n for g in graphs) <= 30
    for g in graphs:
        masks = g.adjacency_masks()
        assert _kernels.minor_min_width(g.n, masks) == minor_min_width_scan(
            g.n, masks)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10 ** 6), st.floats(0.05, 0.9))
def test_minor_min_width_is_at_least_the_degeneracy(n, seed, p):
    # so a degeneracy run at the kernel's root could never raise lb
    rng = random.Random(seed)
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    assert _kernels.minor_min_width(n, masks) >= _kernels.degeneracy(n,
                                                                     masks)


def _pinned_corpus():
    """100 gnp graphs with 12-18 vertices and 50 triangulation duals."""
    graphs = [random_graph(12 + seed % 7, seed, 0.3) for seed in range(100)]
    return graphs + [_dual(10 + seed % 3, seed) for seed in range(50)]


def test_exact_outputs_and_search_effort_are_pinned(caplog):
    # a change to the search must keep every width: the digest of the
    # widths of this corpus was recorded with the earlier branch and
    # bound kernel.  A speed-up must also return the same orders and
    # expand no more nodes: the digest of every (width, order) and the
    # summed search statistics are pinned.  Where the root's lower bound
    # is below the width, the last level asked is one below the width
    # and answers no: a lower bound adds to the sums, not to the orders
    caplog.set_level(logging.DEBUG, logger="gridlab.kernels")
    graphs = _pinned_corpus()
    results = [_kernels.treewidth_order(g.n, g.adjacency_masks())
               for g in graphs]
    stats = [rec.args for rec in caplog.records
             if rec.name == "gridlab.kernels"]
    assert len(stats) == len(graphs)
    widths = [width for width, _ in results]
    assert hashlib.sha256(repr(widths).encode()).hexdigest() == (
        "06ca192513f63a4eda4ee3c3c522ee23a9df29f1a8e3a2c90a29e6ccabcf343f")
    assert hashlib.sha256(repr(results).encode()).hexdigest() == (
        "9f41635511d6da63543348146f5502df144848183aa06c34f583dcd182307cab")
    assert sum(s["nodes"] for s in stats) == 2615
    assert sum(s["memo"] for s in stats) == 2587


def _small_graphs():
    """n = 0 and n = 1, and 750 seeded random graphs with 2-9 vertices
    and their squares."""
    graphs = [SimpleGraph(0), SimpleGraph(1)]
    for seed in range(750):
        g = random_graph(2 + seed % 8, seed, 0.1 + 0.1 * (seed % 7))
        graphs += [g, power_graph(g, 2)]
    return graphs


def test_width_at_most_matches_brute():
    checks = searched_no = 0
    for g in _small_graphs():
        masks = g.adjacency_masks()
        tw = treewidth_brute(g)
        clique = _kernels._max_clique(g.n, masks)
        # k walks down with one shared failure memo, as treewidth_order
        # carries it, and on past the first no
        failed = set()
        for k in range(g.n - 1, -2, -1):
            memo = len(failed)
            found = _kernels._width_at_most(g.n, masks, k, clique, failed)
            assert (found is not None) == (tw <= k), (g.n, sorted(g.edges),
                                                      k)
            checks += 1
            if found is None:
                searched_no += len(failed) > memo
                continue
            width, order = found
            assert sorted(order) == list(range(g.n))
            bags, _ = elimination_bags(g, order)
            assert max(map(len, bags)) - 1 == width <= k
    # most no-answers come from the clique bound alone
    assert checks > 9000 and searched_no > 100


def test_max_clique_matches_brute():
    for g in _small_graphs():
        clique = _kernels._max_clique(g.n, g.adjacency_masks())
        members = [v for v in range(g.n) if clique >> v & 1]
        assert all(g.has_edge(u, v) for i, u in enumerate(members)
                   for v in members[i + 1:])
        assert len(members) == max_clique_brute(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 16), st.integers(0, 10 ** 6), st.floats(0.1, 0.7))
def test_min_fill_width_comes_with_the_min_fill_order(n, seed, p):
    # the descending decisions replace the min-fill order only by a
    # narrower one, and a first no returns it as it is
    g = random_graph(n, seed, p)
    for h in (g, power_graph(g, 2)):
        masks = h.adjacency_masks()
        ub, ub_order = _kernels.min_fill_order(n, masks)
        width, order = _kernels.treewidth_order(n, masks)
        assert width <= ub
        if width == ub:
            assert order == ub_order
