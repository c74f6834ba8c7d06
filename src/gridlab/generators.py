"""Instance generators: wheel maps, grids, grid maps, random planar
triangulations and random canonical maps.

All generators are deterministic functions of their parameters and seed
(PRNG: Python's random.Random, i.e. Mersenne Twister).
"""

from __future__ import annotations

import random
from bisect import insort

from .embedding import (FaceLabeling, _from_rotations,
                        canonicalize_components, is_canonical)
from .errors import ConstructionError, GridlabError
from .graph import SimpleGraph, _strict_int


def grid(rows, cols):
    """rows x cols grid graph, vertex (i,j) -> i*cols + j."""
    if _strict_int(rows) < 1 or _strict_int(cols) < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return SimpleGraph(rows * cols, edges)


def partially_triangulated_grid(rows, cols, seed):
    """Grid plus at most one seeded random diagonal per bounded face."""
    g = grid(rows, cols)
    rng = random.Random((rows, cols, seed).__repr__())
    edges = set(g.edges)
    for i in range(rows - 1):
        for j in range(cols - 1):
            a = i * cols + j          # (i, j)
            b = a + 1                 # (i, j+1)
            c = a + cols              # (i+1, j)
            d = c + 1                 # (i+1, j+1)
            pick = rng.choice(("none", "main", "anti"))
            if pick == "main":
                edges.add((a, d))
            elif pick == "anti":
                edges.add((b, c))
    return SimpleGraph(rows * cols, edges)


# ---------------------------------------------------------------------------
# embedded maps

def _build_from_rotations(neighbor_lists):
    """EmbeddedGraph from per-vertex rotations given as neighbor-id lists
    (parallel edges allowed if distinguished by key; a loop lists its
    vertex twice with one key).

    neighbor_lists[v] lists, in rotation order, (neighbor, edge_key)
    pairs; the two endpoints of an edge must use the same key.
    """
    rotations = []
    darts = []
    for v, rot in enumerate(neighbor_lists):
        rotations.append(list(range(len(darts), len(darts) + len(rot))))
        darts += [(v, w, key) for w, key in rot]
    twin = [None] * len(darts)
    by_key = {}
    for d, (v, w, key) in enumerate(darts):
        k = (min(v, w), max(v, w), key)
        if k in by_key:
            other = by_key.pop(k)
            twin[d] = other
            twin[other] = d
        else:
            by_key[k] = d
    if by_key:
        raise ValueError(f"unmatched darts: {sorted(by_key)}")
    return _from_rotations(twin, rotations)


def wheel_map(r):
    """Embedded wheel with r^2 spokes; bounded faces are nations (in
    spoke order), the outer face is the lake.  At r = 1 the rim is a
    loop around the single spoke."""
    if _strict_int(r) < 1:
        raise ValueError("r must be >= 1")
    s = r * r
    rots = [[(i, ("spoke", i)) for i in range(1, s + 1)]]
    for i in range(1, s + 1):
        nxt_rim = i % s + 1
        prev_rim = (i - 2) % s + 1
        rots.append([(0, ("spoke", i)),
                     (prev_rim, ("rim", min(i, prev_rim), max(i, prev_rim))),
                     (nxt_rim, ("rim", min(i, nxt_rim), max(i, nxt_rim)))])
    e = _build_from_rotations(rots)
    # the face after each hub dart is that spoke's triangle
    nations = [e.face_of[d] for d in e.rotations[0]]
    if len(e.faces) != s + 1 or len(set(nations)) != s:
        raise ConstructionError(f"wheel_map: the {s}-spoke wheel has "
                                f"{len(e.faces)} faces, expected {s + 1}")
    return e, FaceLabeling(e, nations)


def grid_map(rows, cols):
    """Map whose nations are the rows x cols unit cells of a planar grid;
    the unbounded face is the lake.  Nation (i,j) has index i*cols + j."""
    if _strict_int(rows) < 1 or _strict_int(cols) < 1:
        raise ValueError("grid dimensions must be positive")
    w = cols + 1
    # each corner takes the next dart ids in its rotation order,
    # counterclockwise with y pointing down: E, N, W, S; an N dart is
    # the twin of the S dart of the corner above, a W dart that of the
    # E dart of the corner to its left
    twin = [0] * (2 * ((rows + 1) * cols + rows * w))
    rotations = []
    south = [0] * w  # the S dart of each corner of the row above
    d = 0
    for i in range(rows + 1):
        east = 0  # the E dart of the corner to the left
        for j in range(w):
            first = d
            if j < cols:
                d += 1
            if i > 0:
                twin[d], twin[south[j]] = south[j], d
                d += 1
            if j > 0:
                twin[d], twin[east] = east, d
                d += 1
            if i < rows:
                south[j] = d
                d += 1
            east = first
            rotations.append(list(range(first, d)))
    e = _from_rotations(twin, rotations)
    # the smallest dart at corner (i, j) points east and walks cell (i, j)
    nations = [e.face_of[e.rotations[i * w + j][0]]
               for i in range(rows) for j in range(cols)]
    if len(e.faces) != rows * cols + 1 or len(set(nations)) != rows * cols:
        raise ConstructionError(f"grid_map: the {rows}x{cols} grid "
                                f"embedding has {len(e.faces)} faces, "
                                f"expected {rows * cols + 1}")
    return e, FaceLabeling(e, nations)


def random_graph(n, seed, edge_prob=0.4):
    """Seeded Erdos-Renyi style graph with at least one edge."""
    if _strict_int(n) < 2:
        raise ValueError("need at least 2 vertices")
    rng = random.Random(f"gnp:{n}:{seed}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_prob]
    if not edges:
        u = rng.randrange(n - 1)
        edges = [(u, u + 1)]
    return SimpleGraph(n, edges)


def _triangle():
    rots = [[(1, "a"), (2, "c")],
            [(2, "b"), (0, "a")],
            [(0, "c"), (1, "b")]]
    return _build_from_rotations(rots)


def random_planar_triangulation(n, seed):
    """Stacked planar triangulation on n >= 3 vertices: repeated seeded
    insertion of a degree-3 vertex into a random face.  Simple,
    3-connected for n >= 4, genus 0.

    The vertices are stacked on rotation lists and one embedding is
    built and checked at the end.  Each new face starts at an old dart
    of the face it splits, as every new dart is larger, so the faces
    keyed by their least dart keep the order of `EmbeddedGraph.faces`."""
    if _strict_int(n) < 3:
        raise ValueError("need at least 3 vertices")
    rng = random.Random(f"tri:{n}:{seed}")
    start = _triangle()
    twin = list(start.twin)
    vertex_of = list(start.vertex_of)
    rotations = [list(rot) for rot in start.rotations]
    faces = {walk[0]: walk for walk in start.faces}
    keys = sorted(faces)
    for v in range(3, n):
        walk = faces[keys[rng.randrange(len(keys))]]
        base = len(twin)
        for i, d in enumerate(walk):
            # corner dart base+2i goes just before d; its twin is at v
            twin += [base + 2 * i + 1, base + 2 * i]
            vertex_of += [vertex_of[d], v]
            rot = rotations[vertex_of[d]]
            rot.insert(rot.index(d), base + 2 * i)
            faces[d] = (d, base + (2 * i + 2) % 6, base + 2 * i + 1)
        # around v the spokes turn against the walk
        rotations.append([base + 1, base + 5, base + 3])
        insort(keys, walk[1])
        insort(keys, walk[2])
    e = _from_rotations(twin, rotations)
    if e.genus() != 0 or any(len(walk) != 3 for walk in e.faces):
        raise ConstructionError(f"random_planar_triangulation(n={n}, "
                                f"seed={seed}) is not a triangulation")
    return e


def random_canonical_map(nations, seed):
    """Random canonical map with the requested number of nations and a
    connected map graph.  Built triangulation-first, then a random face
    subset is marked as lakes and the result canonicalized."""
    if _strict_int(nations) < 1:
        raise ValueError("need at least one nation")
    rng = random.Random(f"map:{nations}:{seed}")
    for _ in range(500):
        n_tri = max(4, (nations + 5) // 2 + rng.randint(0, 3))
        # 2 * n_tri - 4 >= nations, since n_tri >= (nations + 5) // 2
        num_faces = 2 * n_tri - 4
        tri = random_planar_triangulation(n_tri, rng.randrange(2 ** 30))
        fl = FaceLabeling(tri, sorted(rng.sample(range(num_faces),
                                                 nations)))
        # a split map is a miss and retried; a surgery error or a
        # non-canonical result is a fault, raised
        parts = canonicalize_components(tri, fl)
        if len(parts) != 1:
            continue
        e2, fl2, _ = parts[0]
        if not is_canonical(e2, fl2):
            raise ConstructionError(
                f"random_canonical_map(nations={nations}, seed={seed}): "
                f"canonicalization returned a non-canonical map")
        # one component has a connected map graph: a canonical map has
        # no lake-lake edge, so each edge uv has a nation on one side,
        # whose face walk passes through u and v; along a path between
        # two nations' vertices, consecutive edges give nations that
        # share a vertex
        return e2, fl2
    raise GridlabError(
        f"no connected canonical map with {nations} nations found for "
        f"seed {seed}")
