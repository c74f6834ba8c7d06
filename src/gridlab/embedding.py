"""Embedded multigraphs as rotation systems (combinatorial maps).

Darts are half-edges 0..2m-1.  `twin` pairs darts into edges, `nxt`
gives the counterclockwise successor around the base vertex, and
`vertex_of` assigns each dart its base vertex.  Faces are the orbits of
d -> nxt[twin[d]].  Multiple edges and loops are allowed; SimpleGraph
outputs always collapse duplicates and drop loops.
"""

from __future__ import annotations

import operator

from .errors import (FormatError, GridlabError, _int_token,
                     _raises_format_error)
from .graph import Bipartition, SimpleGraph, _components, _write_text


class EmbeddedGraph:
    """Immutable rotation-system embedding of a connected-or-not
    multigraph.

    `rotations[v]` is the tuple of darts based at v in rotation order,
    starting at the smallest; it is stored when the constructor checks
    the rotation orbits.  `faces` lists the face walks, the orbits of
    d -> nxt[twin[d]], as dart tuples; each starts at its smallest dart
    and they are sorted by it.  `face_of[d]` is the index of dart d's
    walk.  Both are built with the embedding."""

    __slots__ = ("num_vertices", "twin", "nxt", "vertex_of", "rotations",
                 "faces", "face_of")

    def __init__(self, twin, nxt, vertex_of):
        twin = tuple(twin)
        nxt = tuple(nxt)
        vertex_of = tuple(vertex_of)
        # the one test that keeps a float, bool or str id out of the
        # graphs derived from an embedding, which are built unchecked
        for name, a in (("twin", twin), ("next", nxt),
                        ("vertex_of", vertex_of)):
            if set(map(type, a)) - {int}:
                i = next(i for i, x in enumerate(a) if type(x) is not int)
                raise ValueError(f"{name} of dart {i}: expected an "
                                 f"integer, got {a[i]!r}")
        d = len(twin)
        if d % 2 or len(nxt) != d or len(vertex_of) != d:
            raise ValueError("dart arrays must have equal even length")
        # whole-array tests, and a search for the dart only on failure;
        # a negative twin reads from the end of the array, so it fails
        # the involution test too
        darts = list(range(d))
        try:
            involution = [twin[t] for t in twin] == darts
        except IndexError:
            involution = False
        if not involution or any(map(operator.eq, twin, darts)):
            i = next((i for i, t in enumerate(twin) if not 0 <= t < d), None)
            if i is not None:
                raise ValueError(f"twin of dart {i}: expected a dart id in "
                                 f"0..{d - 1}, got {twin[i]}")
            i = next(i for i in darts if twin[i] == i or twin[twin[i]] != i)
            raise ValueError(f"twin is not a fixed-point-free "
                             f"involution at dart {i}")
        if sorted(nxt) != darts:
            raise ValueError("next is not a permutation of the darts")
        # rotation orbits must be exactly the per-vertex dart classes;
        # the first dart met of each vertex is its smallest
        orbit_of = {}
        visited = [False] * d
        for start in range(d):
            if visited[start]:
                continue
            v = vertex_of[start]
            if v in orbit_of:
                raise ValueError(
                    f"vertex {v} has more than one rotation orbit")
            orbit = []
            cur = start
            while not visited[cur]:
                visited[cur] = True
                if vertex_of[cur] != v:
                    raise ValueError(
                        f"rotation orbit of dart {start} mixes vertices")
                orbit.append(cur)
                cur = nxt[cur]
            orbit_of[v] = tuple(orbit)
        n = (max(vertex_of) + 1) if vertex_of else 0
        if set(orbit_of) != set(range(n)):
            raise ValueError("vertex ids must be contiguous from 0")
        self.twin = twin
        self.nxt = nxt
        self.vertex_of = vertex_of
        self.rotations = tuple(orbit_of[v] for v in range(n))
        self.num_vertices = n
        face_of = [None] * d
        walks = []
        for start in range(d):
            if face_of[start] is not None:
                continue
            walk = []
            cur = start
            while face_of[cur] is None:
                face_of[cur] = len(walks)
                walk.append(cur)
                cur = nxt[twin[cur]]
            walks.append(tuple(walk))
        self.faces = walks
        self.face_of = face_of

    def num_edges(self):
        return len(self.twin) // 2

    def vertex_darts(self, v):
        """Darts based at v in rotation order, starting at the smallest."""
        return self.rotations[v]

    def max_degree(self):
        return max(map(len, self.rotations), default=0)

    def components(self):
        """Vertex sets of connected components, each sorted, in the order
        of their least vertex."""
        neighbors = [{self.vertex_of[self.twin[d]] for d in rot}
                     for rot in self.rotations]
        return _components(neighbors, range(self.num_vertices))

    def genus(self):
        """Euler genus 2 - V + E - F of the stored embedding, summed over
        connected components (each component on its own surface).

        Every vertex owns a rotation orbit and every dart and face lies
        in exactly one component, so the per-component sums collapse to
        2C - V + E - F."""
        return (2 * len(self.components()) - self.num_vertices
                + self.num_edges() - len(self.faces))

    def simple_graph(self):
        """Underlying SimpleGraph: loops dropped, multi-edges collapsed."""
        edges = set()
        for d in range(len(self.twin)):
            u, v = self.vertex_of[d], self.vertex_of[self.twin[d]]
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return SimpleGraph._trusted(self.num_vertices, edges)

    def incident_nations(self, fl):
        """vertex -> set of nation indices whose face touches it."""
        fl.check(self)
        out = [set() for _ in range(self.num_vertices)]
        for v, i in zip(self.vertex_of, fl.dart_nation):
            if i is not None:
                out[v].add(i)
        return out

    def __eq__(self, other):
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return (self.twin == other.twin and self.nxt == other.nxt
                and self.vertex_of == other.vertex_of)

    def __repr__(self):
        return (f"EmbeddedGraph(V={self.num_vertices}, "
                f"E={self.num_edges()}, F={len(self.faces)})")


def _from_rotations(twin, rotations):
    """EmbeddedGraph with these twins whose vertex v has the darts of
    `rotations[v]`, in that rotation order."""
    nxt = [0] * len(twin)
    vertex_of = [0] * len(twin)
    for v, rot in enumerate(rotations):
        for d, d_next in zip(rot, rot[1:] + rot[:1]):
            nxt[d] = d_next
            vertex_of[d] = v
    return EmbeddedGraph(twin, nxt, vertex_of)


class FaceLabeling:
    """The nations of embedding e, given as face ids; every other face
    of e is a lake.

    `nations` is an ordered tuple: nation i of every derived graph
    (dual, map, radial) is nations[i].  Order is preserved by
    canonicalize, which is what map-graph identity tests rely on.
    `lakes` is the frozenset of the other faces, and `dart_nation[d]`
    is the nation index of dart d's face, or None on a lake; both are
    derived once here, so that no consumer looks up a face again.
    """

    __slots__ = ("nations", "lakes", "dart_nation", "_shape")

    def __init__(self, e, nations):
        nations = tuple(nations)
        if not nations:
            raise ValueError("at least one nation is required")
        num_faces = len(e.faces)
        index = [None] * num_faces
        for i, f in enumerate(nations):
            if type(f) is not int or not 0 <= f < num_faces:
                raise ValueError(f"nation {f!r} is not a face of an "
                                 f"embedding with {num_faces} faces")
            if index[f] is not None:
                raise ValueError(f"duplicate nation face id {f}")
            index[f] = i
        self.nations = nations
        self.lakes = frozenset(f for f, i in enumerate(index) if i is None)
        self.dart_nation = tuple(index[f] for f in e.face_of)
        self._shape = (len(e.twin), num_faces)

    def check(self, e):
        """Refuse an embedding whose dart or face count differs from
        the one this labeling was built for."""
        if (len(e.twin), len(e.faces)) != self._shape:
            raise ValueError("face labeling of another embedding")

    def __eq__(self, other):
        if not isinstance(other, FaceLabeling):
            return NotImplemented
        return self.nations == other.nations and self.lakes == other.lakes

    def __repr__(self):
        return (f"FaceLabeling(nations={list(self.nations)}, "
                f"lakes={sorted(self.lakes)})")


def all_nations(e):
    """FaceLabeling marking every face a nation (the no-lakes setting)."""
    return FaceLabeling(e, range(len(e.faces)))


def _radial_edges(e, fl):
    """Edge (v, n + i) for each dart at v that lies on nation i, where
    n is the vertex count."""
    n = e.num_vertices
    return {(v, n + i) for v, i in zip(e.vertex_of, fl.dart_nation)
            if i is not None}


def _dual_edges(e, fl, shift=0):
    """Edge (shift + a, shift + b) for each primal edge with nation a on
    one side and nation b > a on the other."""
    edges = set()
    dart_nation = fl.dart_nation
    # each edge is taken once, at the dart whose nation is the smaller
    for a, t in zip(dart_nation, e.twin):
        b = dart_nation[t]
        if a is not None and b is not None and a < b:
            edges.add((shift + a, shift + b))
    return edges


def dual_graph(e, fl):
    """Modified dual on nations: edge iff two nations share a primal edge."""
    fl.check(e)
    return SimpleGraph._trusted(len(fl.nations), _dual_edges(e, fl))


def map_graph(e, fl):
    """Map graph on nations: edge iff two nations share a primal vertex."""
    edges = set()
    for touching in e.incident_nations(fl):
        touching = sorted(touching)
        for i, a in enumerate(touching):
            for b in touching[i + 1:]:
                edges.add((a, b))
    return SimpleGraph._trusted(len(fl.nations), edges)


def radial_graph(e, fl):
    """Vertex-nation incidence graph.

    Vertices 0..n-1 are the embedded graph's vertices; n+i is nation i.
    Returns (graph, bipartition) with the graph vertices on the left.
    """
    fl.check(e)
    n = e.num_vertices
    g = SimpleGraph._trusted(n + len(fl.nations), _radial_edges(e, fl))
    bip = Bipartition(range(n), range(n, n + len(fl.nations)))
    return g, bip


def union_radial_dual(e, fl):
    """The radial edges plus the dual edges under the shared nation ids:
    nation i is vertex n + i of both."""
    fl.check(e)
    n = e.num_vertices
    return SimpleGraph._trusted(n + len(fl.nations),
                                _radial_edges(e, fl) | _dual_edges(e, fl, n))


# ---------------------------------------------------------------------------
# canonicalization

def canonicalize_components(e, fl):
    """Canonical form, one (EmbeddedGraph, FaceLabeling, nation_indices)
    triple per surviving connected component.

    nation_indices maps the component's nations back to positions in the
    input fl.nations.
    """
    fl.check(e)
    # the surgery edits plain copies that keep the original dart and
    # vertex ids and append new ones; `label[d]` is the index of the
    # nation on dart d's face, or None on a lake
    rot = [list(r) for r in e.rotations]
    twin = list(e.twin)
    vertex_of = list(e.vertex_of)
    label = list(fl.dart_nation)

    # step 2 (and implicitly step 1): drop lake-lake edges from their
    # rotations, where alone a removed dart could be read again; one
    # pass suffices, because a deletion changes no other dart's label
    for d, t in enumerate(e.twin):
        if d < t and label[d] is None and label[t] is None:
            rot[vertex_of[d]].remove(d)
            rot[vertex_of[t]].remove(t)

    # step 3: vertices touching lakes more than once get split
    for v in range(e.num_vertices):
        rot_v = rot[v]
        corners = [d for d in rot_v if label[d] is None]
        if len(corners) < 2:
            continue
        for c in corners:
            # move the lake wedge [p, c] to a fresh vertex v1 joined to v
            # by a star edge s-s1 drawn inside the neighboring nation
            # twin(p) precedes c on c's lake and twin(c) precedes a on a's
            # face; step 2 left no lake-lake edge, so p and a lie on
            # nations, p != c, and no lake is left at v after the splits
            i = rot_v.index(c)
            p = rot_v[i - 1]
            a = rot_v[(i + 1) % len(rot_v)]
            v1, s = len(rot), len(twin)
            twin += [s + 1, s]
            vertex_of += [v, v1]
            vertex_of[p] = vertex_of[c] = v1
            # the face walks now run twin(pp) -> s -> p and twin(c) -> s1
            # -> a, and every other dart keeps its face
            label += [label[p], label[a]]
            rot.append([s + 1, p, c])
            # v keeps its rotation with the wedge [p, c] replaced by s
            rot_v[i - 1] = s
            del rot_v[i]

    # compact each component, keeping the order of darts, vertices and
    # nations; every edge left has a nation on one side, so every
    # component keeps a nation, and a vertex without darts is dropped
    adj = [{vertex_of[twin[d]] for d in r} for r in rot]
    out = []
    for comp in _components(adj, [v for v, r in enumerate(rot) if r]):
        dart_ids = sorted(d for v in comp for d in rot[v])
        dmap = {d: i for i, d in enumerate(dart_ids)}
        e2 = _from_rotations([dmap[twin[d]] for d in dart_ids],
                             [[dmap[d] for d in rot[v]] for v in comp])
        nation_face = {}
        for f, walk in enumerate(e2.faces):
            labels = {label[dart_ids[d]] for d in walk}
            if len(labels) != 1:
                raise GridlabError("inconsistent face labels after surgery")
            nation = labels.pop()
            if nation in nation_face:
                raise GridlabError(f"nation {nation} split by surgery")
            if nation is not None:
                nation_face[nation] = f
        nation_ids = tuple(sorted(nation_face))
        out.append((e2, FaceLabeling(e2, [nation_face[i]
                                          for i in nation_ids]),
                    nation_ids))
    kept = sorted(i for _, _, nation_ids in out for i in nation_ids)
    if kept != list(range(len(fl.nations))):
        raise GridlabError("nation set changed by surgery")
    return out


def canonicalize(e, fl):
    """Canonical form of a map whose result stays connected.

    Raises GridlabError when the surgery separates the embedded graph;
    use canonicalize_components for the per-component form.
    """
    parts = canonicalize_components(e, fl)
    if len(parts) != 1:
        raise GridlabError(
            f"canonical form has {len(parts)} components; use "
            f"canonicalize_components")
    e2, fl2, _ = parts[0]
    return e2, fl2


def is_canonical(e, fl):
    """All three canonical-map properties: no lake-lake edge, no vertex
    with two lake corners, no lake-only vertex."""
    fl.check(e)
    dart_nation = fl.dart_nation
    lake_vertices = set()
    # one pass over the corners checks the first two properties, and
    # they imply the third: every vertex owns a dart, so a lake-only
    # vertex has two lake corners or degree 1, and at a degree-1 vertex
    # the dart and its twin lie on the same face, so its lake corner is
    # a lake-lake edge
    for d, i in enumerate(dart_nation):
        if i is None:
            v = e.vertex_of[d]
            if dart_nation[e.twin[d]] is None or v in lake_vertices:
                return False
            lake_vertices.add(v)
    return True


# ---------------------------------------------------------------------------
# embedded radial graph (all faces nations)

def radial_embedding(e):
    """Embedding of the all-faces radial graph on the same surface.

    Vertex ids: 0..n-1 original vertices, n+f for face f.  One radial
    edge per corner (per dart of e).
    """
    # darts of R: 2*d is based at vertex_of(d), 2*d+1 at the face vertex
    # of d; around a face vertex the corners appear in reverse walk order
    rotations = [[2 * d for d in rot] for rot in e.rotations]
    rotations += [[2 * d + 1 for d in walk[:1] + walk[:0:-1]]
                  for walk in e.faces]
    return _from_rotations([d ^ 1 for d in range(2 * len(e.twin))],
                           rotations)


# ---------------------------------------------------------------------------
# .emb text format

def emb_dumps(e, fl=None):
    lines = [f"emb {len(e.twin)}",
             "twin " + " ".join(map(str, e.twin)),
             "next " + " ".join(map(str, e.nxt)),
             "vertex_of " + " ".join(map(str, e.vertex_of))]
    if fl is not None:
        lines.append("nations " + " ".join(map(str, fl.nations)))
    return "\n".join(lines) + "\n"


@_raises_format_error
def emb_loads(text):
    """Parse .emb text: (EmbeddedGraph, FaceLabeling or None)."""
    lines = [(lineno, line.split())
             for lineno, line in enumerate(text.splitlines(), start=1)
             if line.strip()]
    lineno, header = lines[0] if lines else (1, [])
    if header[:1] != ["emb"] or len(header) != 2:
        raise FormatError("expected an 'emb <n_darts>' header", lineno)
    n_darts = _int_token(header[1], lineno)
    fields = {}
    for lineno, parts in lines[1:]:
        key = parts[0]
        if key not in ("twin", "next", "vertex_of", "nations"):
            raise FormatError(f"unknown field {key!r}", lineno)
        if key in fields:
            raise FormatError(f"duplicate field {key!r}", lineno)
        fields[key] = [_int_token(x, lineno) for x in parts[1:]]
    for key in ("twin", "next", "vertex_of"):
        if key not in fields:
            raise FormatError(f"missing field {key!r}")
        if len(fields[key]) != n_darts:
            raise FormatError(
                f"field {key!r} has {len(fields[key])} entries, "
                f"expected {n_darts}")
    e = EmbeddedGraph(fields["twin"], fields["next"], fields["vertex_of"])
    fl = None
    if "nations" in fields:
        fl = FaceLabeling(e, fields["nations"])
    return e, fl


def emb_dump(e, fl, path):
    _write_text(path, emb_dumps(e, fl))

