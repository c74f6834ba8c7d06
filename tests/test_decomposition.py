import hashlib
import random

import pytest

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


def test_validate_matches_definition_oracle():
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
    found = set()
    for g, td in cases:
        assert td.validate(g) is None
        for _ in range(8):
            bad = _mutated(td, g.n, rng)
            got = bad.validate(g)
            expect = first_decomposition_violation(bad.bags,
                                                   bad.tree_edges, g)
            assert (got and (got.condition, got.witness)) == expect
            found.add(expect and expect[0])
    assert found == {None, "tree", "T1", "T2", "T3"}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


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
