"""Minor certificates and the constructive minor arguments: the
radial-to-dual grid transfer and embedding a graph into its double
radial graph."""

from __future__ import annotations

import json
import math

from . import _json_writer
from .decomposition import Violation, treewidth_exact
from .embedding import (all_nations, dual_graph, is_canonical,
                        radial_embedding, radial_graph, union_radial_dual)
from .errors import ConstructionError, SizeLimitError, _raises_format_error
from .generators import grid, grid_map
from .graph import SimpleGraph, _bfs_parents, _strict_int

MINOR_PATTERN_LIMIT = 10   # documented desk-scale limits
MINOR_HOST_LIMIT = 16


class MinorModel:
    """Certificate that `pattern` is a minor of `host`: pairwise disjoint
    connected branch sets plus one host edge per pattern edge."""

    __slots__ = ("pattern", "host", "branch_sets", "edge_witness")

    def __init__(self, pattern, host, branch_sets, edge_witness):
        """Branch-set keys and members and both ends of every witness
        key and edge must be ints.  `edge_witness` maps pattern edges to
        host edges, as a mapping or a sequence of pairs; no two of its
        keys may name the same pattern edge."""
        self.pattern = pattern
        self.host = host
        self.branch_sets = {_strict_int(v): frozenset(map(_strict_int, s))
                            for v, s in dict(branch_sets).items()}
        self.edge_witness = {}
        pairs = (edge_witness.items() if isinstance(edge_witness, dict)
                 else edge_witness)
        for (u, v), (a, b) in pairs:
            u, v, a, b = map(_strict_int, (u, v, a, b))
            key = (min(u, v), max(u, v))
            if key in self.edge_witness:
                raise ValueError(f"pattern edge {key} is witnessed twice")
            self.edge_witness[key] = (min(a, b), max(a, b))

    def __repr__(self):
        return (f"MinorModel(pattern={self.pattern!r}, host={self.host!r})")


def verify_model(m):
    """None when every MinorModel invariant holds, else a Violation
    whose condition is "coverage", "disjoint", "connected" or
    "witness"."""
    h, g = m.pattern, m.host
    for v in sorted(m.branch_sets):
        if not 0 <= v < h.n:
            return Violation("coverage", v,
                             f"branch set for {v}, which is not a "
                             f"pattern vertex")
    for key in sorted(m.edge_witness):
        if key not in h.edges:
            return Violation("witness", key,
                             f"witness for {key}, which is not a "
                             f"pattern edge")
    # owner[x] is the least pattern vertex whose branch set holds x; the
    # least overlapping pair is the least (owner[x], v) with v another
    # owner of x, reported once coverage and connectivity hold for all
    owner = {}
    overlap = None
    for v in range(h.n):
        s = m.branch_sets.get(v)
        if not s:
            return Violation("coverage", v,
                             f"pattern vertex {v} has no branch set")
        for x in s:
            if not 0 <= x < g.n:
                return Violation("coverage", v,
                                 f"branch vertex {x} not in host")
            u = owner.setdefault(x, v)
            if u != v and (overlap is None or (u, v) < overlap):
                overlap = (u, v)
        sub, _ = g.subgraph(s)
        if not sub.is_connected():
            return Violation("connected", v,
                             f"branch set of {v} is disconnected")
    if overlap is not None:
        u, v = overlap
        return Violation("disjoint", overlap,
                         f"branch sets of {u} and {v} overlap")
    for u, v in sorted(h.edges):
        w = m.edge_witness.get((u, v))
        if w is None:
            return Violation("witness", (u, v),
                             f"pattern edge {(u, v)} has no witness")
        a, b = w
        if not g.has_edge(a, b):
            return Violation("witness", (u, v),
                             f"witness {(a, b)} is not a host edge")
        bu, bv = m.branch_sets[u], m.branch_sets[v]
        if not ((a in bu and b in bv) or (a in bv and b in bu)):
            return Violation(
                "witness", (u, v),
                f"witness {(a, b)} does not join the two branch sets")
    return None


def _checked(model, what):
    violation = verify_model(model)
    if violation is not None:
        raise ConstructionError(f"{what} produced an invalid model: "
                                f"{violation}")
    return model


class ContractionSequence:
    """Ordered edge contractions / edge deletions / vertex deletions on a
    host graph.  Vertices keep their host ids; contract(u, v) merges v
    into u."""

    __slots__ = ("host", "ops")

    CONTRACT = "contract"
    DELETE_EDGE = "delete_edge"
    DELETE_VERTEX = "delete_vertex"

    def __init__(self, host, ops=()):
        self.host = host
        self.ops = [self._check_op(op) for op in ops]

    @staticmethod
    def _check_op(op):
        kind = op[0]
        if kind in (ContractionSequence.CONTRACT,
                    ContractionSequence.DELETE_EDGE):
            _, u, v = op
            return (kind, _strict_int(u), _strict_int(v))
        if kind == ContractionSequence.DELETE_VERTEX:
            _, v = op
            return (kind, _strict_int(v))
        raise ValueError(f"unknown operation {kind!r}")

    def replay(self):
        """Apply the operations.  Returns (vertices, edges, labels) where
        edges holds each surviving edge once as (u, w) with u < w and
        labels[v] is the set of host vertices contracted into v.

        Works on a copy of the host's cached adjacency, so the host is
        left as it was and a second replay returns an equal triple."""
        adj = dict(enumerate(map(set, self.host.adj)))
        labels = {v: {v} for v in adj}

        for op in self.ops:
            kind, u, v = op[0], op[1], op[-1]  # u == v for delete_vertex
            if u not in adj or v not in adj:
                raise ConstructionError(f"{kind} {op}: missing vertex")
            if kind == self.DELETE_VERTEX:
                for w in adj.pop(v):
                    adj[w].discard(v)
                del labels[v]
                continue
            if v not in adj[u]:
                raise ConstructionError(f"{kind} {op}: edge not present")
            adj[u].discard(v)
            adj[v].discard(u)
            if kind == self.CONTRACT:
                for w in adj.pop(v):
                    adj[w].discard(v)
                    adj[u].add(w)
                    adj[w].add(u)
                labels[u] |= labels.pop(v)
        edges = {(u, w) for u in adj for w in adj[u] if u < w}
        return set(adj), edges, labels

    def result(self):
        """Final graph as a re-indexed SimpleGraph plus old-id list."""
        verts, edges, _ = self.replay()
        old_ids = sorted(verts)
        index = {v: i for i, v in enumerate(old_ids)}
        return (SimpleGraph(len(old_ids),
                            [(index[u], index[v]) for u, v in edges]),
                old_ids)

    def __repr__(self):
        return (f"ContractionSequence(host={self.host!r}, "
                f"ops={len(self.ops)})")


# ---------------------------------------------------------------------------
# exact minor search (desk-scale oracle)

def _nb_mask(masks, mask):
    """Union of the adjacency masks of the vertices in `mask`."""
    out = 0
    while mask:
        b = mask & -mask
        out |= masks[b.bit_length() - 1]
        mask ^= b
    return out


def _connected_masks(g):
    """All nonempty connected vertex subsets of g as bitmasks, sorted by
    (popcount, value)."""
    masks = g.adjacency_masks()
    out = []
    for s in range(1, 1 << g.n):
        reach = s & -s
        while True:
            nb = (reach | _nb_mask(masks, reach)) & s
            if nb == reach:
                break
            reach = nb
        if reach == s:
            out.append(s)
    out.sort(key=lambda s: (s.bit_count(), s))
    return out


def minor_containment_exact(h, g):
    """A verified MinorModel of h in g, or None (exhaustive).

    Backtracking over branch-set assignments; deterministic first-found
    model with branch sets tried smallest-first.  Limits: |V(h)| <= 10,
    |V(g)| <= 16.
    """
    if h.n > MINOR_PATTERN_LIMIT:
        raise SizeLimitError(
            f"pattern limited to {MINOR_PATTERN_LIMIT} vertices, got {h.n}")
    if g.n > MINOR_HOST_LIMIT:
        raise SizeLimitError(
            f"host limited to {MINOR_HOST_LIMIT} vertices, got {g.n}")
    if h.n == 0:
        return MinorModel(h, g, {}, {})
    if h.n > g.n or len(h.edges) > len(g.edges):
        return None

    g_masks = g.adjacency_masks()
    subsets = _connected_masks(g)
    # place high-degree pattern vertices first, preferring connectivity
    # to already-placed ones
    order = []
    remaining = set(range(h.n))
    while remaining:
        placed = set(order)
        anchored = [v for v in remaining if h.adj[v] & placed]
        pool = anchored or remaining
        nxt = max(sorted(pool), key=lambda v: h.degree(v))
        order.append(nxt)
        remaining.discard(nxt)
    pos = {v: i for i, v in enumerate(order)}

    assignment = [0] * h.n  # pattern vertex -> branch mask

    def search(step, free):
        if step == h.n:
            return True
        v = order[step]
        # the neighbours of each placed neighbour's branch set, which the
        # branch set of v must meet inside `free`
        touch = [_nb_mask(g_masks, assignment[u]) for u in h.adj[v]
                 if pos[u] < step]
        if not all(m & free for m in touch):
            return False
        budget = free.bit_count() - (h.n - step)
        for s in subsets:
            if s.bit_count() - 1 > budget:
                break
            if s & ~free or not all(s & m for m in touch):
                continue
            assignment[v] = s
            if search(step + 1, free & ~s):
                return True
        assignment[v] = 0
        return False

    if not search(0, (1 << g.n) - 1):
        return None
    branch_sets = {v: {x for x in range(g.n) if assignment[v] >> x & 1}
                   for v in range(h.n)}
    witness = {}
    for u, v in sorted(h.edges):
        pair = min((min(a, b), max(a, b))
                   for a in branch_sets[u] for b in branch_sets[v]
                   if g.has_edge(a, b))
        witness[(u, v)] = pair
    return _checked(MinorModel(h, g, branch_sets, witness),
                    "minor_containment_exact")


def largest_grid_minor(g):
    """(r, MinorModel of the r x r grid), maximizing r.

    Analytic fast path for complete graphs (r = floor(sqrt(n)), since a
    minor never has more vertices than its host); otherwise exhaustive
    search at desk scale.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    if g.is_complete():
        r = math.isqrt(g.n)
        pattern = grid(r, r)
        branch = {v: {v} for v in range(pattern.n)}
        witness = {(u, v): (u, v) for u, v in pattern.edges}
        return r, _checked(MinorModel(pattern, g, branch, witness),
                           "largest_grid_minor")
    if g.n > MINOR_HOST_LIMIT:
        raise SizeLimitError(
            f"largest_grid_minor needs a complete graph or at most "
            f"{MINOR_HOST_LIMIT} vertices, got {g.n}")
    for r in range(math.isqrt(g.n), 0, -1):
        model = minor_containment_exact(grid(r, r), g)
        if model is not None:
            return r, model
    raise AssertionError("unreachable: the 1x1 grid is always a minor")


# ---------------------------------------------------------------------------
# radial-to-dual grid transfer

def _assign_grid_coords(verts, edges):
    """(k, coords) when (verts, edges) is exactly a k x k grid, placing
    one corner at (0,0); raises ConstructionError otherwise.  `edges`
    names each edge once, as `ContractionSequence.replay` returns them."""
    k = math.isqrt(len(verts))
    if k * k != len(verts):
        raise ConstructionError(f"{len(verts)} vertices is not a square")
    if k == 1:
        if edges:
            raise ConstructionError("1x1 grid cannot have edges")
        return 1, {next(iter(verts)): (0, 0)}
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def bfs(src):
        dist = {}
        for w, u in _bfs_parents(adj, src).items():
            dist[w] = 0 if u is None else dist[u] + 1
        return dist

    corners = sorted(v for v in verts if len(adj[v]) == 2)
    if not corners:
        raise ConstructionError("no degree-2 corner found")
    c1 = corners[0]
    d1 = bfs(c1)
    if len(d1) != len(verts):
        raise ConstructionError("grid candidate is disconnected")
    far = [v for v in corners if d1.get(v) == k - 1]
    if not far:
        raise ConstructionError("no corner at distance k-1")
    d2 = bfs(far[0])
    coords = {}
    for v in verts:
        x, y = d1[v] + d2[v] - (k - 1), d1[v] - d2[v] + (k - 1)
        if x % 2 or y % 2:
            raise ConstructionError("corner distances have wrong parity")
        coords[v] = (x // 2, y // 2)
    if sorted(coords.values()) != [(x, y) for x in range(k)
                                   for y in range(k)]:
        raise ConstructionError("vertices do not fill the k x k grid")
    # the coordinates are a bijection onto the grid, so the edges are
    # its 2k(k-1) edges iff there are that many and each is a unit step.
    # An edge changes each corner distance by at most one, so with the
    # parity above only a loop can fail the step test
    def unit_step(u, v):
        (x1, y1), (x2, y2) = coords[u], coords[v]
        return abs(x1 - x2) + abs(y1 - y2) == 1

    if len(edges) != 2 * k * (k - 1) or not all(
            unit_step(u, v) for u, v in edges):
        raise ConstructionError("edge set is not the k x k grid")
    return k, coords


def _shortest_path(neighbors, src, dst, allowed):
    """BFS path within `allowed`, neighbors explored in increasing id."""
    parent = _bfs_parents(neighbors, src, allowed, target=dst)
    if dst not in parent:
        return None
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def _nation_fan(e, fl, u, a, b, acceptable):
    """Path of nations from a to b in the rotation around shared vertex u
    (indices into fl.nations), every member passing `acceptable`.

    Both cyclic directions are tried, preferring the shorter (then
    lexicographically smaller) one.  A canonical map gives u at most one
    lake corner, and no fan passes through it.
    """
    # None marks the lake corner
    corners = [fl.dart_nation[d] for d in e.vertex_darts(u)]
    m = len(corners)
    pa = [i for i, c in enumerate(corners) if c == a]
    pb = [i for i, c in enumerate(corners) if c == b]
    candidates = []
    for i in pa:
        for j in pb:
            fwd = [corners[(i + t) % m] for t in range((j - i) % m + 1)]
            bwd = [corners[(i - t) % m] for t in range((i - j) % m + 1)]
            candidates.extend([fwd, bwd])
    candidates = [seg for seg in candidates
                  if None not in seg and all(acceptable(c) for c in seg)]
    if not candidates:
        raise ConstructionError(
            f"no nation fan from {a} to {b} around vertex {u} stays in "
            f"the allowed rectangle")
    return min(candidates, key=lambda seg: (len(seg), seg))


def _uncut_graph(host, labels):
    """(owner, adj) of a successful replay's graph with its edge
    deletions undone: owner maps each host vertex to the survivor whose
    label set holds it; adj joins two survivors when a host edge runs
    between their label sets.  Exact, as contractions only merge label
    sets and vertex deletions drop whole ones."""
    owner = {u: v for v, lab in labels.items() for u in lab}
    adj = {v: set() for v in labels}
    for a, b in host.edges:
        u, v = owner.get(a), owner.get(b)
        if u is not None and v is not None and u != v:
            adj[u].add(v)
            adj[v].add(u)
    return owner, adj


def radial_grid_to_dual_grid(seq, e, fl):
    """Convert a k x k grid minor of the radial-dual union into a
    (floor(k/6)-1) x (floor(k/6)-1) grid minor of the dual graph.

    `seq` must contract/delete the union graph of (e, fl) down to a
    k x k grid with k >= 12; the map must be canonical.
    """
    if not is_canonical(e, fl):
        raise ConstructionError("map is not canonical")
    if seq.host != union_radial_dual(e, fl):
        raise ConstructionError(
            "sequence host differs from the union of radial and dual")
    # one host, whose cached adjacency the replay copies and the
    # transfer paths search
    host = seq.host
    verts, edges, labels = seq.replay()
    k, coords = _assign_grid_coords(verts, edges)
    t = k // 6 - 1
    if t < 1:
        raise ConstructionError(
            f"grid side {k} too small: need k >= 12 for a nonempty output")
    at = {coords[v]: v for v in verts}

    # the partially triangulated grid: the contractions without the
    # edge deletions, on the same vertices and coordinates
    owner_of, adj_p = _uncut_graph(host, labels)
    for u in adj_p:
        x1, y1 = coords[u]
        for v in adj_p[u]:
            x2, y2 = coords[v]
            if abs(x1 - x2) > 1 or abs(y1 - y2) > 1:
                raise ConstructionError(
                    f"edge {(u, v)} spans non-neighboring grid cells; the "
                    f"contracted graph is not a partially triangulated "
                    f"grid")
    n = e.num_vertices

    def facial(v):
        return any(u >= n for u in labels[v])

    host_adj = host.adj
    dual = dual_graph(e, fl)

    vhat = {}
    anchor = {}
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            a = at[(6 * i + 1, 6 * j + 1)]
            b = at[(6 * i + 2, 6 * j + 1)]
            v_ij = a if facial(a) else b
            if not facial(v_ij):
                raise ConstructionError(
                    f"both candidate vertices at block ({i}, {j}) are "
                    f"nonfacial, contradicting their adjacency")
            anchor[(i, j)] = v_ij
            vhat[(i, j)] = min(u for u in labels[v_ij] if u >= n)

    def in_rect(v, rect):
        x, y = coords[v]
        x0, x1, y0, y1 = rect
        return x0 <= x <= x1 and y0 <= y <= y1

    def transfer_path(src_key, dst_key, cut_axis, cut_line):
        """Simple path in the dual between vhat[src_key] and
        vhat[dst_key], plus its cut position (index of the last vertex
        contracted toward src).  The grid path stays in the narrow
        rectangle spanning both blocks; its nations stay in `wide`, that
        rectangle thickened by one."""
        (i, j), (i2, j2) = src_key, dst_key
        wide = (6 * i, 6 * i2 + 3, 6 * j, 6 * j2 + 3)
        allowed_p = {at[x, y] for x in range(6 * i + 1, 6 * i2 + 3)
                     for y in range(6 * j + 1, 6 * j2 + 3)}
        p_grid = _shortest_path(adj_p, anchor[src_key], anchor[dst_key],
                                allowed_p)
        if p_grid is None:
            raise ConstructionError(
                f"no path between blocks {src_key} and {dst_key} inside "
                f"the narrow rectangle")
        # lift into the union graph: witness edges between consecutive
        # label sets, stitched by paths inside each (connected) label set
        hops = [min((x, y) for x in labels[a] for y in labels[b]
                    if host.has_edge(x, y))
                for a, b in zip(p_grid, p_grid[1:])]
        entries = [vhat[src_key]] + [y for _, y in hops]
        exits = [x for x, _ in hops] + [vhat[dst_key]]
        walk = []
        for a, enter, leave in zip(p_grid, entries, exits):
            inner = _shortest_path(host_adj, enter, leave, labels[a])
            if inner is None:
                raise ConstructionError(
                    f"radial_grid_to_dual_grid: label set of {a} is not "
                    f"connected")
            walk.extend(inner)
        # make it simple within its own vertex set
        walk = _shortest_path(host_adj, walk[0], walk[-1], set(walk))

        def acceptable(nation):
            v = owner_of.get(n + nation)
            return v is not None and in_rect(v, wide)

        # project onto the dual: replace each shared primal vertex by a
        # nation fan around it
        path = [walk[0] - n]
        for idx in range(1, len(walk)):
            u = walk[idx]
            if u >= n:
                if u - n != path[-1]:
                    path.append(u - n)
                continue
            w = walk[idx + 1]  # a primal vertex is never last on the walk
            fan = _nation_fan(e, fl, u, path[-1], w - n, acceptable)
            path.extend(fan[1:])
        for nation in path:
            if not acceptable(nation):
                raise ConstructionError(
                    f"nation {nation} on the transfer path leaves the "
                    f"thickened rectangle")
        path = _shortest_path(dual.adj, path[0], path[-1], set(path))
        # cut at the first edge crossing the mid line of the block gap
        axis_coord = [coords[owner_of[n + d]][cut_axis] for d in path]
        cut = None
        for idx in range(len(path) - 1):
            if axis_coord[idx] <= cut_line and axis_coord[idx + 1] > \
                    cut_line:
                cut = idx
                break
        if cut is None:
            raise ConstructionError(
                f"transfer path between {src_key} and {dst_key} never "
                f"crosses its cut line")
        return path, cut

    # nation -> the block whose branch set holds it
    claimed = {vhat[key] - n: key for key in vhat}
    witness = {}

    def grid_id(i, j):
        return (i - 1) * t + (j - 1)

    def absorb(key, nations):
        for d in nations:
            other = claimed.setdefault(d, key)
            if other != key:
                raise ConstructionError(
                    f"dual vertex {d} claimed by blocks {other} and "
                    f"{key}; transfer paths are not disjoint")

    for i in range(1, t + 1):
        for j in range(1, t + 1):
            for di, dj in ((0, 1), (1, 0)):
                src, dst = (i, j), (i + di, j + dj)
                if max(dst) > t:
                    continue
                path, cut = transfer_path(src, dst, cut_axis=dj,
                                          cut_line=6 * (i * di + j * dj) + 4)
                absorb(src, path[1:cut + 1])
                absorb(dst, path[cut + 1:-1])
                witness[(grid_id(*src), grid_id(*dst))] = (
                    path[cut], path[cut + 1])

    branch_sets = {grid_id(i, j): set()
                   for i in range(1, t + 1) for j in range(1, t + 1)}
    for d, key in claimed.items():
        branch_sets[grid_id(*key)].add(d)
    return _checked(MinorModel(grid(t, t), dual, branch_sets, witness),
                    "radial_grid_to_dual_grid")


def nation_grid_transfer_instance(size):
    """(e, fl, seq): size x size nation grid map plus a deletion-only
    sequence turning its radial-dual union into a k x k grid,
    k = 2*floor(size/2) + 1.

    In rotated coordinates (i+j, i-j) the radial edges of the nation
    grid become unit steps and the dual edges become face diagonals, so
    deleting everything outside the largest inscribed square window and
    the diagonals inside it leaves exactly the k x k grid.
    """
    e, fl = grid_map(size, size)
    host = union_radial_dual(e, fl)
    n = e.num_vertices
    w = size + 1
    pos = {}
    for i in range(w):
        for j in range(w):
            pos[i * w + j] = (i + j, i - j)
    for a in range(size):
        for b in range(size):
            pos[n + a * size + b] = (a + b + 1, a - b)
    half = size // 2
    k = 2 * half + 1
    u0, v0 = size - half, -half
    window = {v for v, (u, q) in pos.items()
              if u0 <= u < u0 + k and v0 <= q < v0 + k}
    if len(window) != k * k:
        raise ConstructionError(
            f"nation_grid_transfer_instance: the window has {len(window)} "
            f"vertices, expected {k * k}")
    ops = [("delete_vertex", v)
           for v in sorted(set(range(host.n)) - window)]
    for a, b in sorted(host.edges):
        if a in window and b in window and a >= n and b >= n:
            ops.append(("delete_edge", a, b))
    return e, fl, ContractionSequence(host, ops)


# ---------------------------------------------------------------------------
# graph vs. double radial

def double_radial_minor(e):
    """Verified model of G inside R(R(G)), G the simple graph of any
    rotation system e with every face a nation.

    Each edge uv of e has its own face of R(G), the diamond u-f1-v-f2,
    whose vertex in R(R(G)) is adjacent to u and v; it joins the branch
    set of min(u, v) and its edge to max(u, v) witnesses uv.  Each branch
    set is a star, so connected, and each diamond joins one of them.
    Neither simplicity nor connectivity nor genus 0 is used: a loop's
    diamond witnesses nothing, and parallel edges share one star.
    """
    g = e.simple_graph()
    r1 = radial_embedding(e)
    # nation f of all_nations(r1) is face f, so the host's vertex n1 + f
    # is the diamond vertex of face f
    host, _ = radial_graph(r1, all_nations(r1))
    n = e.num_vertices
    n1 = r1.num_vertices
    branch = {v: {v} for v in range(g.n)}
    diamond_of = {}
    for f, walk in enumerate(r1.faces):
        cycle = [r1.vertex_of[d] for d in walk]
        prim = sorted(v for v in cycle if v < n)
        if len(cycle) != 4 or len(prim) != 2:
            raise ConstructionError(
                f"face {f} of the radial graph is not a diamond")
        w = n1 + f
        branch[prim[0]].add(w)
        diamond_of.setdefault((prim[0], prim[1]), w)
    witness = {}
    for u, v in sorted(g.edges):
        w = diamond_of[(u, v)]
        witness[(u, v)] = (w, v)
    return _checked(MinorModel(g, host, branch, witness),
                    "double_radial_minor")


def primal_dual_width_report(e):
    """Exact treewidth of the embedded graph and of its all-faces dual,
    plus the embedding's Euler genus."""
    g = e.simple_graph()
    d = dual_graph(e, all_nations(e))
    tw_primal, _ = treewidth_exact(g)
    tw_dual, _ = treewidth_exact(d)
    return {"tw_primal": tw_primal, "tw_dual": tw_dual,
            "genus": e.genus()}


# ---------------------------------------------------------------------------
# JSON serialization

def _graph_to_json(g):
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def _json_key(k):
    # int() also takes "00", "+1", " 1" and "1_0"; only the form that
    # model_dumps writes is accepted, so distinct keys name distinct
    # vertices
    try:
        v = int(k)
    except ValueError:
        v = None
    if v is None or str(v) != k:
        raise ValueError(f"branch set key {k!r} is not a canonical integer")
    return v


def _unique_keys(pairs):
    # json.loads would keep only the last of two equal keys
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise ValueError(f"duplicate key {k!r}")
        obj[k] = v
    return obj


def _graph_from_json(obj):
    return SimpleGraph(_strict_int(obj["n"]),
                       [(_strict_int(u), _strict_int(v))
                        for u, v in obj["edges"]])


def model_dumps(m):
    obj = {
        "pattern": _graph_to_json(m.pattern),
        "host": _graph_to_json(m.host),
        "branch_sets": {str(v): sorted(s)
                        for v, s in m.branch_sets.items()},
        "edge_witness": [[list(k), list(w)]
                         for k, w in sorted(m.edge_witness.items())],
    }
    return _json_writer.dumps(obj) + "\n"


@_raises_format_error
def model_loads(text):
    obj = json.loads(text, object_pairs_hook=_unique_keys)
    return MinorModel(
        _graph_from_json(obj["pattern"]),
        _graph_from_json(obj["host"]),
        {_json_key(v): s for v, s in obj["branch_sets"].items()},
        obj["edge_witness"],
    )


def sequence_dumps(seq):
    obj = {"host": _graph_to_json(seq.host),
           "ops": [list(op) for op in seq.ops]}
    return _json_writer.dumps(obj) + "\n"


@_raises_format_error
def sequence_loads(text):
    obj = json.loads(text, object_pairs_hook=_unique_keys)
    return ContractionSequence(_graph_from_json(obj["host"]), obj["ops"])
