import hashlib

import pytest

from gridlab.embedding import radial_embedding, union_radial_dual
from gridlab.errors import ConstructionError, SizeLimitError
from gridlab.generators import (_build_from_rotations, _triangle, grid,
                                grid_map, random_canonical_map, random_graph,
                                random_planar_triangulation, wheel_map)
from gridlab.graph import SimpleGraph, max_clique_exact
from gridlab.minors import (ContractionSequence, MinorModel, _assign_grid_coords,
                            _is_two_connected, _nation_fan, clean_subgrid, clique_to_grid, double_radial_minor,
                            largest_grid_minor, minor_containment_exact,
                            model_dumps, model_loads,
                            model_to_contraction_sequence,
                            nation_grid_transfer_instance,
                            primal_dual_width_report,
                            radial_grid_to_dual_grid, sequence_dumps,
                            sequence_loads, verify_model)

from oracles import all_pairs_distances


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
    assert v.kind == "coverage"
    v = verify_model(MinorModel(h, g, {0: {0, 1}, 1: {1, 2}},
                                {(0, 1): (1, 2)}))
    assert v.kind == "disjoint"
    v = verify_model(MinorModel(h, g, {0: {0, 2}, 1: {3}},
                                {(0, 1): (2, 3)}))
    assert v.kind == "connected"
    v = verify_model(MinorModel(h, g, {0: {0, 1}, 1: {2, 3}},
                                {(0, 1): (0, 3)}))
    assert v.kind == "witness"


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


def test_minor_containment_size_refusals():
    with pytest.raises(SizeLimitError):
        minor_containment_exact(SimpleGraph(11), SimpleGraph(16))
    with pytest.raises(SizeLimitError):
        minor_containment_exact(SimpleGraph(3), SimpleGraph(17))


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


def test_clique_to_grid():
    k9 = SimpleGraph.complete(9)
    clique = max_clique_exact(k9)
    m = clique_to_grid(type("W", (), {"vertices": clique})(), 3, k9)
    assert verify_model(m) is None
    assert m.pattern == grid(3, 3)
    with pytest.raises(ConstructionError):
        clique_to_grid(type("W", (), {"vertices": {0, 1, 2}})(), 2, k9)
    with pytest.raises(ConstructionError):
        clique_to_grid(type("W", (), {"vertices": {0, 1, 2, 3}})(), 2,
                       SimpleGraph.path(4))


def test_contraction_sequence_replay():
    g = SimpleGraph.cycle(4)
    seq = ContractionSequence(g, [("contract", 0, 1), ("delete_edge", 0, 2)])
    verts, edges, labels = seq.replay()
    assert verts == {0, 2, 3}
    assert edges == {(0, 3), (2, 3)}
    assert labels[0] == {0, 1}
    verts, edges, _ = seq.replay(skip_edge_deletions=True)
    assert (0, 2) in edges
    final, old = seq.result()
    assert old == [0, 2, 3]
    assert final.edges == frozenset({(0, 2), (1, 2)})


def test_contraction_sequence_rejects_bad_ops():
    g = SimpleGraph.path(3)
    with pytest.raises(ValueError):
        ContractionSequence(g, [("frobnicate", 0, 1)])
    with pytest.raises(ConstructionError):
        ContractionSequence(g, [("contract", 0, 2)]).replay()
    with pytest.raises(ConstructionError):
        ContractionSequence(g, [("delete_vertex", 1),
                                ("delete_edge", 0, 1)]).replay()


def test_clean_subgrid_no_extras_keeps_everything():
    (top, left, side), seq = clean_subgrid(5, 7, [])
    assert (top, left, side) == (0, 0, 5)
    verts, edges, _ = seq.replay()
    assert len(verts) == 25


def test_clean_subgrid_center_endpoint():
    # one chord into the middle of a 9x9 grid still leaves a window of
    # side at least 3
    extra = [(4 * 9 + 4, 0)]
    (top, left, side), seq = clean_subgrid(9, 9, extra)
    assert side >= 3
    final, _ = seq.result()
    assert final == grid(side, side)


def test_clean_subgrid_two_extras():
    extra = [(5 * 12 + 5, 6 * 12 + 6), (2 * 12 + 9, 9 * 12 + 2)]
    (top, left, side), seq = clean_subgrid(12, 12, extra)
    assert side >= 12 // 5
    final, _ = seq.result()
    assert final == grid(side, side)
    # no extra-edge endpoint strictly inside the window
    for u, v in extra:
        for x in (u, v):
            i, j = divmod(x, 12)
            assert not (top < i < top + side - 1
                        and left < j < left + side - 1)


def test_model_to_contraction_sequence_consistent():
    for seed in range(6):
        g = random_graph(9, seed, 0.45)
        for h in (SimpleGraph.cycle(4), SimpleGraph.path(3),
                  SimpleGraph.complete(3)):
            m = minor_containment_exact(h, g)
            if m is None:
                continue
            seq = model_to_contraction_sequence(m)
            final, old = seq.result()
            assert final == h or final.num_edges() == h.num_edges()
            # labels reproduce the branch sets
            _, _, labels = seq.replay()
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


def test_transfer_contraction_heavy_instance():
    # 2x2 block coarsening of the window grid forces the transfer to
    # walk through real contraction labels
    size = 36
    e, fl, seq = nation_grid_transfer_instance(size)
    verts, edges, _ = seq.replay()
    k, coords = _assign_grid_coords(verts, edges)
    at = {c: v for v, c in coords.items()}
    ops = list(seq.ops)
    if k % 2:  # drop the last row and column so the side is even
        for y in range(k):
            ops.append(("delete_vertex", at[(k - 1, y)]))
        for x in range(k - 1):
            ops.append(("delete_vertex", at[(x, k - 1)]))
    q = k - (k % 2)
    for bx in range(q // 2):
        for by in range(q // 2):
            root = at[(2 * bx, 2 * by)]
            ops.append(("contract", root, at[(2 * bx + 1, 2 * by)]))
            ops.append(("contract", root, at[(2 * bx, 2 * by + 1)]))
            ops.append(("contract", root, at[(2 * bx + 1, 2 * by + 1)]))
    seq2 = ContractionSequence(seq.host, ops)
    v2, e2, _ = seq2.replay()
    k2, _ = _assign_grid_coords(v2, e2)
    assert k2 == q // 2
    m = radial_grid_to_dual_grid(seq2, e, fl)
    assert verify_model(m) is None
    assert len(m.branch_sets) == (k2 // 6 - 1) ** 2


def test_transfer_rejects_small_grids():
    for r in (1, 2):
        e, fl = wheel_map(r)
        host = union_radial_dual(e, fl)
        side, model = largest_grid_minor(host)
        assert side < 12
        seq = model_to_contraction_sequence(model)
        with pytest.raises(ConstructionError):
            radial_grid_to_dual_grid(seq, e, fl)


def test_transfer_rejects_wrong_host():
    e, fl, seq = nation_grid_transfer_instance(12)
    e2, fl2, _ = nation_grid_transfer_instance(14)
    with pytest.raises(ConstructionError):
        radial_grid_to_dual_grid(seq, e2, fl2)


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


def test_double_radial_minor_rejects_low_connectivity():
    # a path embedding is not 2-connected
    rots = [[(1, "a")], [(0, "a"), (2, "b")], [(1, "b")]]
    path_emb = _build_from_rotations(rots)
    with pytest.raises(ConstructionError):
        double_radial_minor(path_emb)


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
    seq = ContractionSequence(g, [("contract", 0, 1), ("delete_edge", 0, 2),
                                  ("delete_vertex", 3)])
    text = sequence_dumps(seq)
    seq2 = sequence_loads(text)
    assert sequence_dumps(seq2) == text
    assert seq2.replay() == seq.replay()


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
    }
    models = {}
    for size, digest in transfer.items():
        e, fl, seq = nation_grid_transfer_instance(size)
        models[size] = radial_grid_to_dual_grid(seq, e, fl)
        assert _sha256(model_dumps(models[size])) == digest
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
        18: "17e33ebaa48eaa2237854b38366a5f6bdb62e460e7b256649bca70a5ab3926b2",
        (9, 1):
            "b95c1d903883ca0d9777d4c16d47f5fac7d321e6797d7a2c93f3436f26f6bc9c",
    }
    for key, digest in sequences.items():
        seq = model_to_contraction_sequence(models[key])
        assert _sha256(sequence_dumps(seq)) == digest


def test_nation_fans_are_pinned():
    # every fan around every vertex, with and without a rejected nation;
    # the outer face of the grid map puts lake corners on its border
    pins = {
        "grid_map(3, 4)": (
            grid_map(3, 4), 14, 280,
            "6298aea94c9ef99ef0858818434a0369f7658b16641cac9e0f29bbd2ffd76f52"),
        "random_canonical_map(12, 1)": (
            random_canonical_map(12, 1), 12, 352,
            "94b79f17e9dfe5e679043658ccc8ceb6ac34339eaa52a64c4c4df0e8ed93f458"),
    }
    for name, ((e, fl), lake_vertices, count, digest) in pins.items():
        fans = []
        lakes = 0
        for u in range(e.num_vertices):
            corners = [fl.nation_of.get(e.face_of[d])
                       for d in e.vertex_darts(u)]
            lakes += None in corners
            nations = sorted(set(corners) - {None})
            for a in nations:
                for b in nations:
                    for acceptable in (lambda c: True, lambda c: c % 3 != 1):
                        try:
                            fans.append(
                                _nation_fan(e, fl, u, a, b, acceptable))
                        except ConstructionError:
                            fans.append(None)
        assert (lakes, len(fans), _sha256(repr(fans))) == (
            lake_vertices, count, digest), name


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
        two = g.n >= 3 and connected and all(
            _connected_by_distances(
                g.n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges
                          if v not in (a, b)])
            for v in range(g.n))
        assert g.is_connected() == connected
        assert _is_two_connected(g) == two
        seen.add((connected, two))
    assert seen == {(False, False), (True, False), (True, True)}
