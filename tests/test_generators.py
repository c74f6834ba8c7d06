import hashlib

import pytest
from oracles import (is_three_connected_by_deletion,
                     stacked_triangulation_by_insertion)

from gridlab import generators
from gridlab.embedding import (dual_graph, emb_dumps, is_canonical, map_graph,
                               radial_graph)
from gridlab.errors import ConstructionError
from gridlab.generators import (grid, grid_map, partially_triangulated_grid,
                                random_canonical_map, random_graph,
                                random_planar_triangulation, wheel_map)
from gridlab.graph import SimpleGraph


def test_grid_trivia():
    assert grid(1, 1) == SimpleGraph(1)
    assert grid(2, 2) == SimpleGraph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    g = grid(3, 5)
    assert g.n == 15 and g.num_edges() == 3 * 4 + 5 * 2
    with pytest.raises(ValueError):
        grid(0, 4)


def test_partially_triangulated_grid_contains_grid():
    for seed in range(6):
        g = partially_triangulated_grid(4, 5, seed)
        base = grid(4, 5)
        assert g.n == base.n
        assert base.edges <= g.edges
        # added edges are diagonals of unit cells
        for u, v in g.edges - base.edges:
            iu, ju = divmod(u, 5)
            iv, jv = divmod(v, 5)
            assert abs(iu - iv) == 1 and abs(ju - jv) == 1
    assert (partially_triangulated_grid(4, 5, 3)
            == partially_triangulated_grid(4, 5, 3))


def test_wheel_map_graphs():
    for r in (1, 2, 3):
        e, fl = wheel_map(r)
        m = map_graph(e, fl)
        assert m.n == r * r
        assert m.is_complete()
    e, fl = wheel_map(2)
    d = dual_graph(e, fl)
    # consecutive sectors share a spoke edge, opposite ones only a vertex
    assert d == SimpleGraph.cycle(4)


def test_wheel_map_radial_size():
    for r in (1, 2, 3):
        e, fl = wheel_map(r)
        rad, bip = radial_graph(e, fl)
        assert len(bip.right) == r * r
        bip.check(rad)


def test_grid_map_counts():
    e, fl = grid_map(3, 4)
    assert len(fl.nations) == 12
    assert is_canonical(e, fl)
    assert e.genus() == 0
    e1, fl1 = grid_map(1, 1)
    assert len(fl1.nations) == 1 and is_canonical(e1, fl1)


def test_random_graph_deterministic_and_nonempty():
    for n in (2, 6, 12):
        for seed in (0, 7):
            g = random_graph(n, seed)
            assert g == random_graph(n, seed)
            assert g.num_edges() >= 1


def test_random_planar_triangulation_properties():
    cases = [(n, seed) for n in (3, 4, 5, 8, 12) for seed in range(4)]
    for n, seed in cases + [(300, 0)]:
        t = random_planar_triangulation(n, seed)
        assert t == random_planar_triangulation(n, seed)
        assert t.num_vertices == n
        assert t.genus() == 0
        assert all(len(w) == 3 for w in t.faces)
        assert t.num_edges() == 3 * n - 6
        g = t.simple_graph()
        # no parallel edges: the simple graph keeps every edge
        assert len(g.edges) == 3 * n - 6
        assert g.is_connected()
        if 4 <= n <= 12:
            assert is_three_connected_by_deletion(g)


def test_triangulations_match_the_per_vertex_insertion():
    # the generator stacks every vertex on rotation lists and builds one
    # embedding; the oracle rebuilds and checks one after each vertex
    cases = [(n, seed) for n in range(3, 61) for seed in range(5)]
    for n, seed in cases + [(150, 0), (300, 0)]:
        assert (emb_dumps(random_planar_triangulation(n, seed))
                == emb_dumps(stacked_triangulation_by_insertion(n, seed)))


def test_random_canonical_map_properties():
    for nations in (1, 2, 5, 9, 12):
        for seed in range(3):
            e, fl = random_canonical_map(nations, seed)
            e2, fl2 = random_canonical_map(nations, seed)
            assert e == e2 and fl == fl2
            assert len(fl.nations) == nations
            assert is_canonical(e, fl)
            assert e.genus() == 0
            assert len(e.components()) == 1


def test_random_canonical_map_raises_a_failed_surgery(monkeypatch):
    # a retry would hide the surgery's own error behind "no ... found"
    def broken(e, fl):
        raise ConstructionError("surgery broke")

    monkeypatch.setattr(generators, "canonicalize_components", broken)
    with pytest.raises(ConstructionError, match="surgery broke"):
        random_canonical_map(5, 1)


def test_random_canonical_map_raises_a_non_canonical_result(monkeypatch):
    monkeypatch.setattr(generators, "is_canonical", lambda e, fl: False)
    with pytest.raises(ConstructionError,
                       match=r"random_canonical_map\(nations=5, seed=1\)"):
        random_canonical_map(5, 1)


def _emb_sha256(e, fl=None):
    return hashlib.sha256(emb_dumps(e, fl).encode()).hexdigest()


def test_generated_instances_are_pinned():
    # a generator change must not silently change the instances
    triangulations = {
        (3, 0):
            "595a63658a1ca5c26e3e9f57e49485985e29e18c38b1c53b3d892ca02a41e32c",
        (10, 1):
            "84d4ae75ea682f248402e26884b4a37c1d7331be8023f2f5c25e7bf01d8d67ea",
        (30, 2):
            "f9142165a9448144a499f1dc787a338f6f91a817a416ce469b5be7e998d7da3b",
        (100, 3):
            "b0ce3ffc38db12e751afc1d15dcd269a2f86a42e179e5eb2a14bd834bea35f1b",
    }
    for (n, seed), digest in triangulations.items():
        assert _emb_sha256(random_planar_triangulation(n, seed)) == digest
    maps = {
        (1, 0):
            "22e71dcee48bca0e6fbe4c6121c0c5ffac845816a91713fffd1d64061bcd4968",
        (5, 1):
            "41358d2653b8fb7345e72fbb17ac4e1d3749498bd041a1f4084e8f9c5a4f4c6e",
        (12, 2):
            "3ef5f51da842616213112cc4cd967a092a6faf4f9da379207562d83824a558fc",
        (40, 3):
            "b248da53051cca6c834163a6ed71e00c42b22494b37f25047c2638aab2764deb",
    }
    for (nations, seed), digest in maps.items():
        assert _emb_sha256(*random_canonical_map(nations, seed)) == digest
    wheels = {
        1: "42d52a1127aaf62c216c7bb08b6353687fe04e4a0dd1ccf3088bcda079eb1538",
        2: "49d17568eee9951e4e5bcea957894e2481777e8caad628f5a016c939c477f7df",
        3: "73bbdabe03b70ff1c98f99cc00852bd0b1bccff5fbee007824b31c3efa737dd9",
        4: "9ded2379e019adb2f11dc534b0ec2819c91ef6a31f1ed2d908643768b4fd31c1",
    }
    for r, digest in wheels.items():
        assert _emb_sha256(*wheel_map(r)) == digest
    grid_maps = {
        (1, 1):
            "4cccdf48b3e29d889d0d1c5abf1c53bcf17702b1a2815841f1bb340317e06d2e",
        (1, 3):
            "8d4dab017f46dd1325e10a3c5210bfe676b09320d610d3eb0f6c87b4f9aec457",
        (3, 4):
            "25fb59601bb4083cc8c3c4ab9302df47aeff9a5f2d043639187af461c0535d0b",
        (12, 12):
            "950f2f2d9b386c5d8994463c60d5800a910efed0bc32df3a062d6a85b3cda9db",
    }
    for (rows, cols), digest in grid_maps.items():
        assert _emb_sha256(*grid_map(rows, cols)) == digest
    every_small_grid = hashlib.sha256()
    for rows in range(1, 6):
        for cols in range(1, 6):
            every_small_grid.update(emb_dumps(*grid_map(rows, cols)).encode())
    assert every_small_grid.hexdigest() == (
        "99c91e3d1b21605510f179083ad9a47de031856d22f0bd074e1c3df310948b9f")
