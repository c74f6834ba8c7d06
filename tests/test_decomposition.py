import pytest

from gridlab import _kernels
from gridlab.decomposition import (TreeDecomposition,
                                   decomposition_from_order, lift_power,
                                   lift_radial_to_map, treewidth_exact,
                                   treewidth_upper, vertex_cover_dp)
from gridlab.embedding import map_graph, radial_graph
from gridlab.errors import ConstructionError, SizeLimitError
from gridlab.generators import grid, random_canonical_map, random_graph
from gridlab.graph import SimpleGraph, power_graph

from oracles import treewidth_brute, vertex_cover_brute


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


def test_lift_radial_rejects_invalid_input():
    e, fl = random_canonical_map(3, 0)
    r, _ = radial_graph(e, fl)
    bogus = TreeDecomposition([set(range(r.n))], [])
    good = lift_radial_to_map(bogus, e, fl)  # one big bag is always valid
    assert good.validate(map_graph(e, fl)) is None
    with pytest.raises(ValueError):
        lift_radial_to_map(TreeDecomposition([{0}], []), e, fl)


def test_lift_power():
    for seed in range(6):
        g = random_graph(9, seed, 0.3)
        _, td = treewidth_exact(g)
        for k in (2, 3):
            td_k = lift_power(td, g, k)
            gk = power_graph(g, k)
            assert td_k.validate(gk) is None


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
