import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridlab import _kernels
from gridlab.decomposition import (TreeDecomposition,
                                   decomposition_from_order, lift_power,
                                   lift_radial_to_map, td_dumps,
                                   treewidth_exact, treewidth_upper,
                                   vertex_cover_dp)
from gridlab.embedding import map_graph, radial_graph
from gridlab.errors import ConstructionError, SizeLimitError
from gridlab.generators import (grid, partially_triangulated_grid,
                                random_canonical_map, random_graph)
from gridlab.graph import SimpleGraph, power_graph

from oracles import (all_pairs_distances, first_decomposition_violation,
                     treewidth_brute, vertex_cover_brute)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_validate_accepts_path_decomposition():
    g = SimpleGraph.path(4)
    td = TreeDecomposition([{0, 1}, {1, 2}, {2, 3}], [(0, 1), (1, 2)])
    assert td.validate(g) is None
    assert td.width == 1


def test_validate_catches_each_condition():
    g = SimpleGraph.path(3)
    v = TreeDecomposition([{0, 1}, {1, 2}], []).validate(g)
    assert v is not None and v.condition == "tree"
    v = TreeDecomposition([{0, 1}], []).validate(g)
    assert v is not None and v.condition == "T1" and v.witness == 2
    v = TreeDecomposition([{0, 1, 3, -1}, {1, 2}], [(0, 1)]).validate(g)
    assert v is not None and v.condition == "T1" and v.witness == -1
    v = TreeDecomposition([{0, 1}, {2}], [(0, 1)]).validate(g)
    assert v is not None and v.condition == "T2" and v.witness == (1, 2)
    v = TreeDecomposition([{0, 1}, {1, 2}, {0, 2}],
                          [(0, 1), (1, 2)]).validate(g)
    assert v is not None and v.condition == "T3"


def test_decomposition_from_order_always_valid():
    for seed in range(10):
        g = random_graph(9, seed, 0.3)
        td = decomposition_from_order(g, list(range(g.n)))
        assert td.validate(g) is None
    with pytest.raises(ValueError):
        decomposition_from_order(SimpleGraph.path(3), [0, 1, 1])


def test_kernel_width_mismatch_names_the_stage(monkeypatch):
    kernel = _kernels.treewidth_order

    def off_by_one(n, masks):
        width, order = kernel(n, masks)
        return width + 1, order

    monkeypatch.setattr(_kernels, "treewidth_order", off_by_one)
    with pytest.raises(ConstructionError, match="treewidth_exact"):
        treewidth_exact(grid(2, 3))


def test_exact_matches_brute_oracle():
    corpus = [random_graph(n, seed, 0.35)
              for n in (4, 5, 6, 7, 8) for seed in range(4)]
    corpus += [grid(2, 4), SimpleGraph.cycle(7), SimpleGraph.star(6)]
    for g in corpus:
        width, td = treewidth_exact(g)
        assert width == treewidth_brute(g)
        assert td.validate(g) is None
        assert td.width == width


def test_upper_bound_is_valid_and_above_exact():
    for seed in range(8):
        g = random_graph(10, seed, 0.3)
        exact, _ = treewidth_exact(g)
        upper, td = treewidth_upper(g)
        assert td.validate(g) is None
        assert upper >= exact


def test_exact_size_refusal():
    with pytest.raises(SizeLimitError):
        treewidth_exact(SimpleGraph(21))


def test_lift_radial_to_map_on_random_maps():
    for seed in range(8):
        for nations in (2, 4, 6):
            e, fl = random_canonical_map(nations, seed)
            r, _ = radial_graph(e, fl)
            if r.n > 20:
                continue
            tw_r, td_r = treewidth_exact(r)
            td_m = lift_radial_to_map(td_r, e, fl)
            m = map_graph(e, fl)
            assert td_m.validate(m) is None
            assert td_m.width + 1 <= e.max_degree() * (tw_r + 1)


def _mutated(td, n, rng):
    """td with one bag vertex dropped, one or several vertices outside
    range(n) added, or one tree edge removed or rewired."""
    bags = [set(bag) for bag in td.bags]
    edges = list(td.tree_edges)
    kind = rng.randrange(5)
    if kind == 0:
        bag = rng.choice([bag for bag in bags if bag])
        bag.discard(rng.choice(sorted(bag)))
    elif kind == 1:
        rng.choice(bags).add(rng.choice([-1, n, n + 2]))
    elif kind == 4:
        for v in rng.sample([-9, -2, -1, n, n + 2, n + 8], rng.randint(2, 4)):
            rng.choice(bags).add(v)
    elif edges:
        a, b = edges.pop(rng.randrange(len(edges)))
        if kind == 3:
            c = rng.choice([x for x in range(len(bags)) if x != a])
            edges.append((a, c))
    return TreeDecomposition(bags, edges)


@functools.lru_cache(maxsize=None)
def _valid_decompositions():
    """(graph, valid decomposition) pairs: min-fill and shuffled-order
    decompositions of random graphs, and min-fill decompositions of
    radial graphs."""
    rng = random.Random(7)
    cases = []
    for seed in range(30):
        g = random_graph(6 + seed % 6, seed, 0.3)
        order = list(range(g.n))
        rng.shuffle(order)
        cases += [(g, treewidth_upper(g)[1]),
                  (g, decomposition_from_order(g, order))]
    for seed in range(10):
        r, _ = radial_graph(*random_canonical_map(3 + seed, seed))
        cases.append((r, treewidth_upper(r)[1]))
    for g, td in cases:
        assert td.validate(g) is None
    return cases


def _validate_against_oracle(which, seeds):
    g, td = _valid_decompositions()[which]
    for seed in seeds:
        td = _mutated(td, g.n, random.Random(seed))
    got = td.validate(g)
    expect = first_decomposition_violation(td.bags, td.tree_edges, g)
    assert (got and (got.condition, got.witness)) == expect
    return expect and expect[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 69),
       st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3))
def test_validate_matches_definition_oracle(which, seeds):
    _validate_against_oracle(which, seeds)


def test_decomposition_mutations_reach_every_condition():
    rng = random.Random(7)
    found = {_validate_against_oracle(
        which, [rng.randrange(2 ** 32) for _ in range(rng.randint(1, 3))])
        for which in range(70) for _ in range(4)}
    assert found == {None, "tree", "T1", "T2", "T3"}


def _large_lifts():
    """(graph, decomposition) pairs with large bags: G^2 lifts of
    partially triangulated grids and radial-to-map lifts of random
    maps."""
    for side in range(6, 13):
        g = partially_triangulated_grid(side, side, side)
        yield power_graph(g, 2), lift_power(treewidth_upper(g)[1], g, 2)
    for nations in range(30, 81, 10):
        e, fl = random_canonical_map(nations, nations)
        r, _ = radial_graph(e, fl)
        yield (map_graph(e, fl),
               lift_radial_to_map(treewidth_upper(r)[1], e, fl))


def _mutated_tree(td, g, rng):
    """td with one vertex dropped from an interior bag, one endpoint of
    a least-shared edge dropped from every bag holding both ends, or a
    leaf bag hung from another node."""
    bags = [set(bag) for bag in td.bags]
    edges = list(td.tree_edges)
    degree = [0] * len(bags)
    for a, c in edges:
        degree[a] += 1
        degree[c] += 1
    kind = rng.randrange(3)
    if kind == 0:
        bag = bags[rng.choice([x for x, d in enumerate(degree) if d > 1])]
        bag.discard(rng.choice(sorted(bag)))
    elif kind == 1:
        shared = {e: [bag for bag in bags if e[0] in bag and e[1] in bag]
                  for e in sorted(g.edges)}
        fewest = min(map(len, shared.values()))
        edge = rng.choice([e for e, held in shared.items()
                           if len(held) == fewest])
        w = rng.choice(edge)
        for bag in shared[edge]:
            bag.discard(w)
    else:
        x = rng.choice([x for x, d in enumerate(degree) if d == 1])
        i = next(i for i, e in enumerate(edges) if x in e)
        edges[i] = (x, rng.choice([y for y in range(len(bags))
                                   if y not in edges[i]]))
    return TreeDecomposition(bags, edges)


def test_validate_matches_definition_oracle_on_large_lifts():
    found = set()
    for which, (g, td) in enumerate(_large_lifts()):
        assert td.validate(g) is None
        td = _mutated_tree(td, g, random.Random(which))
        got = td.validate(g)
        expect = first_decomposition_violation(td.bags, td.tree_edges, g)
        assert (got and (got.condition, got.witness)) == expect
        found.add(expect and expect[0])
    assert {"T2", "T3"} <= found


def test_validate_reports_t3_when_an_edge_meets_one_piece():
    # a path of bags 0-1-2-3 in which the bags of vertex 1 form two
    # pieces, and edge (0, 1) lies in only one of them: in the lower
    # piece (bag 3, vertex 0's top node is bag 2), or in the upper one
    # (bag 1, vertex 0's top node is bag 0).  The edge is covered, so the
    # violation is T3 at vertex 1, not T2, whichever piece's top node a
    # top-node test would take for vertex 1.
    g = SimpleGraph(2, [(0, 1)])
    for bags in ([{1}, set(), {0}, {0, 1}], [{0}, {0, 1}, set(), {1}]):
        td = TreeDecomposition(bags, [(0, 1), (1, 2), (2, 3)])
        expect = first_decomposition_violation(td.bags, td.tree_edges, g)
        assert expect == ("T3", 1)
        v = td.validate(g)
        assert (v.condition, v.witness) == expect


def test_lifted_decompositions_and_covers_are_pinned():
    # a change to min-fill, the lifts or the cover DP must not silently
    # change their outputs: (sha256 of the lifted .td text, cover size,
    # sha256 of the sorted cover)
    maps = {
        (30, 1): (
            "4e0fe84c822d410cd9f95813a810eb2f5109498719e156181a609a5f1665a9d5",
            24,
            "55b01614afe47a3fa1b3c43f4fbd071befe87bac330254078166848e4a774067"),
        (80, 2): (
            "ebab0bbbe4e50e8c91cc8eefd7c0b62213e6f20fa190187766e167b054712f3c",
            42,
            "59e645864def6c121fe96b3369b33179b7ee4983673ea272db64fa3db9d02989"),
    }
    for (nations, seed), (td_digest, size, cover_digest) in maps.items():
        e, fl = random_canonical_map(nations, seed)
        r, _ = radial_graph(e, fl)
        _, td = treewidth_upper(r)
        lifted = lift_radial_to_map(td, e, fl)
        assert _sha256(td_dumps(lifted, len(fl.nations))) == td_digest
        got_size, cover = vertex_cover_dp(r, td)
        assert got_size == size
        assert _sha256(" ".join(map(str, sorted(cover)))) == cover_digest
    grids = {
        (8, 3): (
            "30c628a2baedac5f98b26722a77c489706c8a67d1f287618d4620e3191956227",
            41,
            "14b7318167ba6eae6f7ee5e2a87206d6bdd75c4ec1a41c0489ce23756191cbe3"),
        (10, 5): (
            "11e020f499c2fe73b1627b9b90b903800c6870c4959366db4585893e06cd7676",
            61,
            "d18ece15dcf14447782abb9b67d1971840bb7bf58adc8c1f4a1cdb93bed7e4c8"),
    }
    for (side, seed), (td_digest, size, cover_digest) in grids.items():
        g = partially_triangulated_grid(side, side, seed)
        _, td = treewidth_upper(g)
        assert _sha256(td_dumps(lift_power(td, g, 2), g.n)) == td_digest
        got_size, cover = vertex_cover_dp(g, td)
        assert got_size == size
        assert _sha256(" ".join(map(str, sorted(cover)))) == cover_digest


def test_lift_radial_rejects_invalid_input():
    e, fl = random_canonical_map(3, 0)
    r, _ = radial_graph(e, fl)
    bogus = TreeDecomposition([set(range(r.n))], [])
    good = lift_radial_to_map(bogus, e, fl)  # one big bag is always valid
    assert good.validate(map_graph(e, fl)) is None
    with pytest.raises(ValueError):
        lift_radial_to_map(TreeDecomposition([{0}], []), e, fl)


def test_lift_power():
    graphs = [random_graph(9, seed, 0.3) for seed in range(6)]
    graphs += [random_graph(12, seed, 0.1) for seed in range(4)]
    for g in graphs:
        _, td = treewidth_exact(g)
        dist = all_pairs_distances(g)
        for k in (1, 2, 3):
            td_k = lift_power(td, g, k)
            gk = power_graph(g, k)
            assert td_k.validate(gk) is None
            # each occurrence of v in a bag brings its radius-k ball
            assert td_k.bags == [
                frozenset(u for v in bag for u in range(g.n)
                          if dist[v][u] is not None and dist[v][u] <= k)
                for bag in td.bags]


def test_lift_power_refuses_k_below_one():
    g = SimpleGraph.path(4)
    _, td = treewidth_exact(g)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            lift_power(td, g, k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            power_graph(g, k)


def test_lift_power_validates_against_the_distance_power():
    graphs = [random_graph(n, seed, 0.15) for n, seed in
              zip(range(12, 30, 3), range(6))]
    graphs += [partially_triangulated_grid(5, 6, seed) for seed in range(2)]
    for g in graphs:
        _, td = treewidth_upper(g)
        dist = all_pairs_distances(g)
        for k in (1, 2, 3):
            gk = power_graph(g, k)
            assert gk.edges == {
                (u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if dist[u][v] is not None and dist[u][v] <= k}
            assert lift_power(td, g, k).validate(gk) is None


def test_vertex_cover_dp_matches_brute():
    for seed in range(10):
        g = random_graph(9, seed, 0.35)
        for maker in (treewidth_exact, treewidth_upper):
            _, td = maker(g)
            size, cover = vertex_cover_dp(g, td)
            assert size == vertex_cover_brute(g)[0]
            assert all(u in cover or v in cover for u, v in g.edges)


def test_vertex_cover_known():
    _, td = treewidth_exact(grid(3, 4))
    assert vertex_cover_dp(grid(3, 4), td)[0] == 6
    _, td = treewidth_exact(SimpleGraph.star(5))
    assert vertex_cover_dp(SimpleGraph.star(5), td) == (1, {0})


def test_vertex_cover_ties_are_pinned():
    # the DP keeps the first cover of least size in increasing mask
    # order; a change of that order changes which optimum comes back
    graphs = [random_graph(6 + seed % 11, seed, 0.2 + 0.05 * (seed % 5))
              for seed in range(150)]
    graphs += [radial_graph(*random_canonical_map(2 + seed % 6, seed))[0]
               for seed in range(50)]
    results = []
    for g in graphs:
        size, cover = vertex_cover_dp(g, treewidth_upper(g)[1])
        results.append((size, sorted(cover)))
    assert _sha256(repr(results)) == (
        "8a969eb7fcee6caf7ad22631b43967038e1d2d2e31d434ccadbdac07b21d9bfc")


def test_vertex_cover_dp_on_bipartite_bags_matches_brute():
    # bipartite graphs have many independent sets per bag, so many
    # covers per bag reach the join
    checked = 0
    for seed in range(30):
        rng = random.Random(seed)
        left = rng.randint(5, 7)
        g = SimpleGraph(14, [(u, v) for u in range(left)
                             for v in range(left, 14) if rng.random() < 0.6])
        order = list(range(g.n))
        rng.shuffle(order)
        td = decomposition_from_order(g, order)
        if not 7 <= td.width + 1 <= 9:
            continue
        size, cover = vertex_cover_dp(g, td)
        assert size == vertex_cover_brute(g)[0]
        checked += 1
    assert checked >= 20


def test_td_dumps_names_bag_vertices_outside_the_carrier():
    # recorded before td_dumps kept a name table: -1 is written as 0
    # and 5 as 6, though the carrier has 3 vertices
    td = TreeDecomposition([{-1, 5}, {0}], [(0, 1)])
    assert td_dumps(td, 3) == "s td 2 2 3\nb 1 0 6\nb 2 1\n1 2\n"
