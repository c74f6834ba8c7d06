import hashlib
import random

import pytest

from gridlab.embedding import (EmbeddedGraph, FaceLabeling, all_nations,
                               canonicalize, canonicalize_components,
                               dual_graph, emb_dumps, is_canonical, map_graph,
                               radial_embedding, radial_graph,
                               union_radial_dual)
from gridlab.errors import GridlabError
from gridlab.generators import (_build_from_rotations, _triangle, grid_map,
                                random_canonical_map,
                                random_planar_triangulation, wheel_map)
from gridlab.graph import SimpleGraph
from oracles import (face_of_by_walks, in_checked_form,
                     is_canonical_per_vertex, radial_and_dual_by_definition)


def bowtie():
    """Two triangles sharing one vertex (vertex 0)."""
    rots = [[(1, "a"), (2, "b"), (3, "c"), (4, "d")],
            [(2, "e"), (0, "a")],
            [(0, "b"), (1, "e")],
            [(4, "f"), (0, "c")],
            [(0, "d"), (3, "f")]]
    return _build_from_rotations(rots)


def test_rejects_bad_dart_structure():
    with pytest.raises(ValueError):
        EmbeddedGraph([0, 1], [0, 1], [0, 1])  # twin has fixed points
    with pytest.raises(ValueError):
        EmbeddedGraph([1, 0], [0, 0], [0, 1])  # next not a permutation
    with pytest.raises(ValueError):
        # vertex 0 owns two rotation orbits
        EmbeddedGraph([1, 0, 3, 2], [0, 1, 2, 3], [0, 0, 1, 1])


@pytest.mark.parametrize("twin, nxt, vertex_of, message", [
    ([True, 0], [0, 1], [0, 1], "twin of dart 0: expected an integer, "
                                "got True"),
    ([1, 0.0], [0, 1], [0, 1], "twin of dart 1: expected an integer, "
                               "got 0.0"),
    (["1", 0], [0, 1], [0, 1], "twin of dart 0: expected an integer, "
                               "got '1'"),
    ([1, 0], [False, 1], [0, 1], "next of dart 0: expected an integer, "
                                 "got False"),
    ([1, 0], [0, 1.0], [0, 1], "next of dart 1: expected an integer, "
                               "got 1.0"),
    ([1, 0], [0, "1"], [0, 1], "next of dart 1: expected an integer, "
                               "got '1'"),
    ([1, 0], [0, 1], [False, True], "vertex_of of dart 0: expected an "
                                    "integer, got False"),
    ([1, 0], [0, 1], [0, 1.0], "vertex_of of dart 1: expected an integer, "
                               "got 1.0"),
    ([1, 0], [0, 1], ["0", 1], "vertex_of of dart 0: expected an integer, "
                               "got '0'"),
    # a twin past the end once escaped as an IndexError, and a negative
    # one was read from the end of the array
    ([5, 0], [0, 1], [0, 0], "twin of dart 0: expected a dart id in 0..1, "
                             "got 5"),
    ([1, 2], [0, 1], [0, 0], "twin of dart 1: expected a dart id in 0..1, "
                             "got 2"),
    ([-1, 0], [0, 1], [0, 0], "twin of dart 0: expected a dart id in 0..1, "
                              "got -1"),
    ([1, 0, 3, -4], [0, 1, 2, 3], [0, 1, 2, 3],
     "twin of dart 3: expected a dart id in 0..3, got -4"),
    ([1, 0, 0, 2], [0, 1, 2, 3], [0, 1, 2, 3],
     "twin is not a fixed-point-free involution at dart 2"),
    ([1, 0, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3],
     "twin is not a fixed-point-free involution at dart 2"),
])
def test_dart_arrays_take_only_ints(twin, nxt, vertex_of, message):
    # graphs derived from an embedding are built unchecked, so a bool,
    # float or str id, or a twin that is no dart, must stop here
    with pytest.raises(ValueError) as exc:
        EmbeddedGraph(twin, nxt, vertex_of)
    assert str(exc.value) == message


def test_triangle_faces_and_genus():
    t = _triangle()
    assert t.num_vertices == 3 and t.num_edges() == 3
    assert len(t.faces) == 2
    assert all(len(w) == 3 for w in t.faces)
    assert t.genus() == 0


def test_genus_counts_components_separately():
    b = bowtie()
    assert len(b.faces) == 3
    assert b.genus() == 0
    # one vertex with two interleaved loops: one face, Euler genus 2
    loops = EmbeddedGraph([2, 3, 0, 1], [1, 2, 3, 0], [0, 0, 0, 0])
    assert len(loops.faces) == 1
    assert loops.genus() == 2
    # two disjoint edges: each component is a sphere (2 - V + E - F
    # over the whole graph would give -2)
    edges = EmbeddedGraph([1, 0, 3, 2], [0, 1, 2, 3], [0, 1, 2, 3])
    assert len(edges.components()) == 2
    assert edges.genus() == 0
    # the two interleaved loops at vertex 0 plus a disjoint edge {1, 2}:
    # a torus (2) and a sphere (0)
    torus_and_edge = EmbeddedGraph([2, 3, 0, 1, 5, 4], [1, 2, 3, 0, 4, 5],
                                   [0, 0, 0, 0, 2, 1])
    assert torus_and_edge.components() == [[0], [1, 2]]
    assert torus_and_edge.genus() == 2


def test_grid_map_derived_graphs():
    e, fl = grid_map(2, 3)
    assert e.genus() == 0
    d = dual_graph(e, fl)
    # nations form a 2x3 grid in the dual
    assert d.edges == frozenset({(0, 1), (1, 2), (3, 4), (4, 5),
                                 (0, 3), (1, 4), (2, 5)})
    m = map_graph(e, fl)
    assert d.edges <= m.edges
    assert m.has_edge(0, 4) and not m.has_edge(0, 5)
    r, bip = radial_graph(e, fl)
    bip.check(r)
    u = union_radial_dual(e, fl)
    n = e.num_vertices
    assert u.edges == r.edges | {(n + a, n + b) for a, b in d.edges}


def test_dual_is_subgraph_of_map_graph():
    for seed in range(12):
        for nations in (2, 3, 5, 8):
            e, fl = random_canonical_map(nations, seed)
            assert dual_graph(e, fl).edges <= map_graph(e, fl).edges


def test_face_labeling_validation():
    t = _triangle()
    with pytest.raises(ValueError, match="at least one nation"):
        FaceLabeling(t, [])
    for nations, named in (([0, 0], "duplicate nation face id 0"),
                           ([-1], "nation -1 "), ([2], "nation 2 "),
                           ([0, 7], "nation 7 "), ([1.0], "nation 1.0 "),
                           (["1"], "nation '1' "), ([True], "nation True ")):
        with pytest.raises(ValueError, match=named):
            FaceLabeling(t, nations)
    fl = FaceLabeling(t, [1])
    assert fl.lakes == {0}
    assert fl == FaceLabeling(t, (1,))


def test_labelings_of_another_embedding_are_refused():
    _, grid_labels = grid_map(2, 3)
    # two 4-dart embeddings: two disjoint edges (2 faces) and one vertex
    # with two interleaved loops (1 face)
    edges = EmbeddedGraph([1, 0, 3, 2], [0, 1, 2, 3], [0, 1, 2, 3])
    loops = EmbeddedGraph([2, 3, 0, 1], [1, 2, 3, 0], [0, 0, 0, 0])
    for e, fl in ((grid_map(2, 2)[0], grid_labels),
                  (loops, FaceLabeling(edges, [0, 1]))):
        for derive in (dual_graph, map_graph, radial_graph, is_canonical,
                       canonicalize_components,
                       lambda e, fl: e.incident_nations(fl)):
            with pytest.raises(ValueError, match="another embedding"):
                derive(e, fl)


def test_canonicalize_is_idempotent():
    for seed in range(10):
        for nations in (1, 3, 6):
            e, fl = random_canonical_map(nations, seed)
            assert is_canonical(e, fl)
            e2, fl2 = canonicalize(e, fl)
            assert e2 == e and fl2 == fl


def test_canonicalize_moves_extra_lake_corners():
    # the shared vertex of the bowtie touches the lake twice; surgery
    # peels both wedges onto fresh vertices and stays connected
    b = bowtie()
    tri_faces = [f for f, w in enumerate(b.faces) if len(w) == 3]
    lake = ({0, 1, 2} - set(tri_faces)).pop()
    fl = FaceLabeling(b, tri_faces)
    assert fl.lakes == {lake}
    assert not is_canonical(b, fl)
    e2, fl2 = canonicalize(b, fl)
    assert is_canonical(e2, fl2)
    assert e2.genus() == 0
    assert len(fl2.nations) == 2
    assert e2.num_vertices > b.num_vertices


def test_canonicalize_separates_lake_bridge():
    # two triangles joined by an edge with lake on both sides: the
    # bridge goes away and each triangle survives as its own component
    rots = [[(1, "a"), (2, "b")],
            [(2, "c"), (0, "a")],
            [(0, "b"), (1, "c"), (3, "x")],
            [(2, "x"), (4, "d"), (5, "e")],
            [(5, "f"), (3, "d")],
            [(3, "e"), (4, "f")]]
    g = _build_from_rotations(rots)
    tri_faces = [f for f, w in enumerate(g.faces) if len(w) == 3]
    assert len(tri_faces) == 2
    fl = FaceLabeling(g, tri_faces)
    with pytest.raises(GridlabError):
        canonicalize(g, fl)
    parts = canonicalize_components(g, fl)
    assert len(parts) == 2
    covered = []
    for e2, fl2, nation_ids in parts:
        assert is_canonical(e2, fl2)
        assert e2.num_vertices == 3
        covered.extend(nation_ids)
    assert sorted(covered) == [0, 1]


def test_canonicalize_drops_lake_lake_edges():
    # all faces of a triangulation marked lake except two: the surgery
    # must trim everything not bordering a nation
    tri = random_planar_triangulation(8, 2)
    fl = FaceLabeling(tri, [0, 1])
    for e2, fl2, _ in canonicalize_components(tri, fl):
        assert is_canonical(e2, fl2)



def test_canonicalize_components_outputs_are_pinned():
    # random triangulations with seeded random nation subsets (in random
    # order); a surgery change must not silently change the canonical
    # maps, their lakes or the nation indices they map back to
    pins = {
        (4, 14):
            "f8c3ce75a61e0fb50006ff5008d3bd9a0d8e6e6beabc5ed985780fb28115635c",
        (14, 26):
            "be499759e4be2263d43198046fe6347d5e21318b8c6376ebf65f7fd7763d54c4",
        (26, 38):
            "857845dd1ec4e73c015cbc86b5cb3ccc88c0561d782fc530958838a8ba105b13",
    }
    multi_component = lake_split = 0

    def feed(h, e, rng):
        nonlocal multi_component, lake_split
        faces = range(len(e.faces))
        nations = rng.sample(faces, rng.randint(1, len(faces)))
        parts = canonicalize_components(e, FaceLabeling(e, nations))
        for e2, fl2, nation_ids in parts:
            assert is_canonical(e2, fl2)
            h.update(emb_dumps(e2, fl2).encode())
            h.update(repr((sorted(fl2.lakes), nation_ids)).encode())
        h.update(b"|")
        multi_component += len(parts) > 1
        lake_split += (sum(e2.num_vertices for e2, _, _ in parts)
                       > e.num_vertices)

    for (lo, hi), digest in pins.items():
        h = hashlib.sha256()
        for n in range(lo, hi):
            for seed in range(14):
                feed(h, random_planar_triangulation(n, seed),
                     random.Random(f"canon:{n}:{seed}"))
        assert h.hexdigest() == digest, (lo, hi)
    assert multi_component >= 1 and lake_split >= 1
    # random rotation systems: loops, parallel edges, any genus
    multi_component = lake_split = 0
    h = hashlib.sha256()
    for trial in range(2000):
        rng = random.Random(f"canon-rot:{trial}")
        feed(h, random_rotation_system(rng, 1 + trial % 12), rng)
    assert h.hexdigest() == (
        "8b477d6f63c34fe7e365ef7a362940901c9b2a948bbcca7149b9f05260dec052")
    assert multi_component >= 1 and lake_split >= 1


def test_wheel_is_canonical():
    for r in (1, 2, 3):
        e, fl = wheel_map(r)
        assert is_canonical(e, fl)


def test_radial_embedding_structure():
    # (n, seed) of the triangulation -> sha256 of the radial .emb text
    pins = {
        (3, 0):
            "b96f40e0f85fce4a55784a3aaccb2e36d2aa94644285b6fe38b53115fcf1c750",
        (6, 1):
            "558c225f605c61c326c53f66e9cf0b683ed5932719b2a800861a21926a409206",
        (10, 4):
            "b6e09a6e5894dd268905fe4899e80dc2eaa7d3ac68b0a1e126c3a919335f917b",
        (40, 2):
            "8c7e92c41b412effe419fefbef50ba89fa4f29f78fbd915a2328c1a67abf2b2b",
    }
    for (n, seed), digest in pins.items():
        t = random_planar_triangulation(n, seed)
        r = radial_embedding(t)
        assert hashlib.sha256(emb_dumps(r).encode()).hexdigest() == digest
        assert r.genus() == 0
        assert r.num_vertices == t.num_vertices + len(t.faces)
        assert r.num_edges() == t.num_darts()
        # faces of the radial graph are the diamonds, one per edge
        assert all(len(w) == 4 for w in r.faces)
        assert len(r.faces) == t.num_edges()
        # radial graph of the embedding matches the abstract construction
        g, _ = radial_graph(t, all_nations(t))
        assert r.simple_graph() == g


def test_incident_nations():
    e, fl = grid_map(2, 2)
    inc = e.incident_nations(fl)
    # the center vertex of a 2x2 nation grid touches all four nations
    center = [v for v in range(e.num_vertices) if len(inc[v]) == 4]
    assert len(center) == 1


def random_rotation_system(rng, n):
    """Random embedding on n vertices with loops, parallel edges and
    pendant vertices; darts are numbered at random, so a vertex's
    smallest dart sits anywhere in its rotation."""
    # every vertex owns a dart; an edge (v, v) is a loop
    ends = [(v, rng.randrange(v + 1)) for v in range(n)]
    ends += [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(2 * n))]
    ends += [ends[rng.randrange(len(ends))] for _ in range(n // 3)]
    ids = rng.sample(range(2 * len(ends)), 2 * len(ends))
    twin = [0] * len(ids)
    vertex_of = [0] * len(ids)
    rot = [[] for _ in range(n)]
    for i, (u, v) in enumerate(ends):
        a, b = ids[2 * i], ids[2 * i + 1]
        twin[a], twin[b] = b, a
        vertex_of[a], vertex_of[b] = u, v
        rot[u].append(a)
        rot[v].append(b)
    nxt = [0] * len(ids)
    for r in rot:
        rng.shuffle(r)
        for i, d in enumerate(r):
            nxt[d] = r[(i + 1) % len(r)]
    return EmbeddedGraph(twin, nxt, vertex_of)


def test_vertex_darts_and_max_degree_match_a_dart_scan():
    rng = random.Random(5)
    for trial in range(300):
        e = random_rotation_system(rng, 1 + trial % 12)
        degrees = []
        for v in range(e.num_vertices):
            own = [d for d in range(e.num_darts()) if e.vertex_of[d] == v]
            walk = [min(own)]
            while e.nxt[walk[-1]] != walk[0]:
                walk.append(e.nxt[walk[-1]])
            assert sorted(walk) == own
            got = e.vertex_darts(v)
            assert got == tuple(walk)
            assert got is e.rotations[v]  # the stored tuple, not a copy
            degrees.append(len(own))
        assert e.max_degree() == max(degrees)


def test_is_canonical_matches_the_per_vertex_oracle():
    rng = random.Random(11)
    verdicts = set()
    for trial in range(1500):
        e = random_rotation_system(rng, 1 + trial % 10)
        faces = list(range(len(e.faces)))
        lakes = set(rng.sample(faces, rng.randrange(len(faces))))
        fl = FaceLabeling(e, [f for f in faces if f not in lakes])
        want = is_canonical_per_vertex(e, fl)
        assert is_canonical(e, fl) == want
        verdicts.add(want)
    assert verdicts == {True, False}
    # a triangle with a pendant vertex whose only corner lies on a lake
    e = _build_from_rotations([[(1, "a"), (2, "c")],
                               [(2, "b"), (0, "a")],
                               [(0, "c"), (3, "p"), (1, "b")],
                               [(2, "p")]])
    pendant_face = e.face_of[e.vertex_darts(3)[0]]
    other = 1 - pendant_face
    fl = FaceLabeling(e, [other])
    assert not is_canonical_per_vertex(e, fl)
    assert not is_canonical(e, fl)
    assert is_canonical(e, FaceLabeling(e, [pendant_face]))
    # an isolated edge on a lake: no vertex has two lake corners, so the
    # lake-lake edge is the only fault
    e = _build_from_rotations([[(1, "a"), (2, "c")],
                               [(2, "b"), (0, "a")],
                               [(0, "c"), (1, "b")],
                               [(4, "x")],
                               [(3, "x")]])
    lake = e.face_of[e.vertex_darts(3)[0]]
    fl = FaceLabeling(e, [f for f in range(3) if f != lake])
    assert not is_canonical_per_vertex(e, fl)
    assert not is_canonical(e, fl)


def test_dart_nation_matches_a_face_walk_lookup():
    rng = random.Random(3)
    for trial in range(300):
        e = random_rotation_system(rng, 1 + trial % 12)
        face_of = face_of_by_walks(e)
        faces = sorted(set(face_of.values()))
        nations = rng.sample(faces, rng.randint(1, len(faces)))
        fl = FaceLabeling(e, nations)
        assert fl.dart_nation == tuple(
            nations.index(face_of[d]) if face_of[d] in nations else None
            for d in range(e.num_darts()))
        assert fl.lakes == set(faces) - set(nations)


def test_union_and_dual_match_the_definition_oracle():
    rng = random.Random(19)
    cases = [random_canonical_map(nations, seed)
             for nations in (1, 2, 5, 12, 30) for seed in range(3)]
    cases += [wheel_map(r) for r in (1, 2, 3)]
    for n, seed in ((4, 0), (7, 1), (15, 2), (30, 3)):
        t = random_planar_triangulation(n, seed)
        faces = list(range(len(t.faces)))
        cases.append((t, all_nations(t)))
        # lakes on a random face subset, canonical or not
        cases.append((t, FaceLabeling(t, rng.sample(
            faces, rng.randint(1, len(faces))))))
    # a loop at vertex 0 and two parallel edges between 0 and 1, with
    # every face a nation and with one face a lake
    loop = _build_from_rotations([[(1, "a"), (0, "c"), (0, "c"), (1, "b")],
                                  [(0, "b"), (0, "a")]])
    cases += [(loop, all_nations(loop)), (loop, FaceLabeling(loop, [0, 1]))]
    for trial in range(60):
        e = random_rotation_system(rng, 1 + trial % 10)
        faces = list(range(len(e.faces)))
        cases.append((e, FaceLabeling(e, rng.sample(
            faces, rng.randint(1, len(faces))))))
    for e, fl in cases:
        radial, dual = radial_and_dual_by_definition(e, fl)
        n, nations = e.num_vertices, len(fl.nations)
        assert dual_graph(e, fl) == SimpleGraph(nations, dual)
        assert radial_graph(e, fl)[0] == SimpleGraph(
            n + nations, {(v, n + i) for v, i in radial})
        assert union_radial_dual(e, fl) == SimpleGraph(
            n + nations, {(v, n + i) for v, i in radial}
            | {(n + a, n + b) for a, b in dual})


def test_unchecked_derived_graphs_are_in_checked_form():
    # the graphs derived from an embedding skip the SimpleGraph checks
    rng = random.Random(23)
    cases = [random_canonical_map(nations, rng.randrange(1000))
             for nations in (1, 2, 3, 5, 8, 20, 60, 150, 300)]
    cases += [wheel_map(r) for r in (1, 2, 3)]
    cases += [grid_map(rows, cols) for rows, cols in ((1, 1), (2, 5), (7, 4))]
    for n in (3, 4, 9, 40, 150):
        t = random_planar_triangulation(n, rng.randrange(1000))
        r = radial_embedding(t)
        cases += [(t, all_nations(t)), (r, all_nations(r)),
                  (t, FaceLabeling(t, rng.sample(range(len(t.faces)), 2)))]
    for trial in range(60):
        e = random_rotation_system(rng, 1 + trial % 10)
        faces = list(range(len(e.faces)))
        cases.append((e, FaceLabeling(e, rng.sample(
            faces, rng.randint(1, len(faces))))))
    for e, fl in cases:
        for g in (e.simple_graph(), dual_graph(e, fl), map_graph(e, fl),
                  radial_graph(e, fl)[0], union_radial_dual(e, fl)):
            assert in_checked_form(g)
