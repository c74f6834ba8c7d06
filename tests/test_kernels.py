from gridlab import _kernels
from gridlab.generators import grid, random_graph
from gridlab.graph import SimpleGraph


def test_implementation_tag():
    assert _kernels.IMPLEMENTATION == "pure"


def test_q_set_is_fill_neighborhood():
    # path 0-1-2: eliminating 1 makes 0 and 2 neighbors
    masks = SimpleGraph.path(3).adjacency_masks()
    assert _kernels.q_set(masks, 0b010, 0) == 0b100
    assert _kernels.q_set(masks, 0, 0) == 0b010


def test_known_widths():
    cases = [
        (SimpleGraph(1), 0),
        (SimpleGraph.path(6), 1),
        (SimpleGraph.cycle(6), 2),
        (SimpleGraph.complete(7), 6),
        (grid(3, 3), 3),
        (grid(4, 4), 4),
    ]
    for g, want in cases:
        width, order = _kernels.treewidth_order(g.n, g.adjacency_masks())
        assert width == want
        assert sorted(order) == list(range(g.n))


def test_bounds_bracket_exact():
    for seed in range(15):
        g = random_graph(11, seed, 0.3)
        masks = g.adjacency_masks()
        lo = _kernels.degeneracy(g.n, masks)
        exact, _ = _kernels.treewidth_order(g.n, masks)
        hi, _ = _kernels.min_fill_order(g.n, masks)
        assert lo <= exact <= hi

