"""Minor certificates and the constructive minor arguments: the
radial-to-dual grid transfer, clique-to-grid conversion, clean-subgrid
extraction, and embedding a graph into its double radial graph."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .decomposition import treewidth_exact
from .embedding import (all_nations, dual_graph, is_canonical,
                        radial_embedding, union_radial_dual)
from .errors import ConstructionError, SizeLimitError, _raises_format_error
from .generators import grid, grid_map
from .graph import SimpleGraph, _bfs_parents

MINOR_PATTERN_LIMIT = 10   # documented desk-scale limits
MINOR_HOST_LIMIT = 16


@dataclass(frozen=True)
class ModelViolation:
    kind: str  # "coverage", "disjoint", "connected", "witness"
    witness: object
    message: str

    def __str__(self):
        return f"{self.kind}: {self.message}"


class MinorModel:
    """Certificate that `pattern` is a minor of `host`: pairwise disjoint
    connected branch sets plus one host edge per pattern edge."""

    __slots__ = ("pattern", "host", "branch_sets", "edge_witness")

    def __init__(self, pattern, host, branch_sets, edge_witness):
        self.pattern = pattern
        self.host = host
        self.branch_sets = {int(v): frozenset(s)
                            for v, s in dict(branch_sets).items()}
        self.edge_witness = {}
        for (u, v), (a, b) in dict(edge_witness).items():
            key = (min(u, v), max(u, v))
            self.edge_witness[key] = (min(a, b), max(a, b))

    def __repr__(self):
        return (f"MinorModel(pattern={self.pattern!r}, host={self.host!r})")


def verify_model(m):
    """None when every MinorModel invariant holds, else a ModelViolation."""
    h, g = m.pattern, m.host
    for v in sorted(m.branch_sets):
        if not 0 <= v < h.n:
            return ModelViolation("coverage", v,
                                  f"branch set for {v}, which is not a "
                                  f"pattern vertex")
    for key in sorted(m.edge_witness):
        if key not in h.edges:
            return ModelViolation("witness", key,
                                  f"witness for {key}, which is not a "
                                  f"pattern edge")
    for v in range(h.n):
        s = m.branch_sets.get(v)
        if not s:
            return ModelViolation("coverage", v,
                                  f"pattern vertex {v} has no branch set")
        for x in s:
            if not 0 <= x < g.n:
                return ModelViolation("coverage", v,
                                      f"branch vertex {x} not in host")
        sub, _ = g.subgraph(s)
        if not sub.is_connected():
            return ModelViolation("connected", v,
                                  f"branch set of {v} is disconnected")
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if m.branch_sets.get(u, frozenset()) & m.branch_sets.get(
                    v, frozenset()):
                return ModelViolation("disjoint", (u, v),
                                      f"branch sets of {u} and {v} overlap")
    for u, v in sorted(h.edges):
        w = m.edge_witness.get((u, v))
        if w is None:
            return ModelViolation("witness", (u, v),
                                  f"pattern edge {(u, v)} has no witness")
        a, b = w
        if not g.has_edge(a, b):
            return ModelViolation("witness", (u, v),
                                  f"witness {(a, b)} is not a host edge")
        bu, bv = m.branch_sets[u], m.branch_sets[v]
        if not ((a in bu and b in bv) or (a in bv and b in bu)):
            return ModelViolation(
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
            return (kind, int(u), int(v))
        if kind == ContractionSequence.DELETE_VERTEX:
            _, v = op
            return (kind, int(v))
        raise ValueError(f"unknown operation {kind!r}")

    def replay(self, skip_edge_deletions=False):
        """Apply the operations.  Returns (vertices, edges, labels) where
        labels[v] is the set of host vertices contracted into v.

        With skip_edge_deletions the edge deletions become no-ops (loops
        and duplicate edges from contractions are still removed); the
        surviving vertex set is unchanged by that switch.
        """
        adj = {v: set() for v in range(self.host.n)}
        for u, v in self.host.edges:
            adj[u].add(v)
            adj[v].add(u)
        labels = {v: {v} for v in adj}

        for op in self.ops:
            if op[0] == self.CONTRACT:
                _, u, v = op
                if u not in adj or v not in adj:
                    raise ConstructionError(f"contract {op}: missing vertex")
                if v not in adj[u]:
                    raise ConstructionError(
                        f"contract {op}: edge not present")
                for w in adj.pop(v):
                    adj[w].discard(v)
                    if w != u:
                        adj[u].add(w)
                        adj[w].add(u)
                labels[u] |= labels.pop(v)
            elif op[0] == self.DELETE_EDGE:
                _, u, v = op
                if u not in adj or v not in adj:
                    raise ConstructionError(
                        f"delete_edge {op}: missing vertex")
                if not skip_edge_deletions:
                    if v not in adj[u]:
                        raise ConstructionError(
                            f"delete_edge {op}: edge not present")
                    adj[u].discard(v)
                    adj[v].discard(u)
            else:
                _, v = op
                if v not in adj:
                    raise ConstructionError(
                        f"delete_vertex {op}: missing vertex")
                for w in adj.pop(v):
                    adj[w].discard(v)
                del labels[v]
        edges = {(min(u, w), max(u, w)) for u in adj for w in adj[u]}
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

def _connected_masks(g):
    """All nonempty connected vertex subsets of g as bitmasks, sorted by
    (popcount, value)."""
    masks = g.adjacency_masks()
    out = []
    for s in range(1, 1 << g.n):
        low = s & -s
        reach = low
        while True:
            nb = reach
            m = reach
            while m:
                b = m & -m
                nb |= masks[b.bit_length() - 1]
                m ^= b
            nb &= s
            if nb == reach:
                break
            reach = nb
        if reach == s:
            out.append(s)
    out.sort(key=lambda s: (bin(s).count("1"), s))
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

    def nb_mask(mask):
        out = 0
        while mask:
            b = mask & -mask
            out |= g_masks[b.bit_length() - 1]
            mask ^= b
        return out

    def search(step, free):
        if step == h.n:
            return True
        v = order[step]
        earlier = [u for u in h.adj[v] if pos[u] < step]
        need = 0
        for u in earlier:
            need |= nb_mask(assignment[u])
        if earlier and not (need & free):
            return False
        budget = bin(free).count("1") - (h.n - step)
        for s in subsets:
            if bin(s).count("1") - 1 > budget:
                break
            if s & ~free:
                continue
            if any(not (s & nb_mask(assignment[u])) for u in earlier):
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


def clique_to_grid(witness, r, host):
    """r x r grid model from a clique witness of size >= r^2 whose
    vertices are pairwise adjacent in the host."""
    verts = sorted(witness.vertices)
    if len(verts) < r * r:
        raise ConstructionError(
            f"witness has {len(verts)} vertices, need {r * r}")
    chosen = verts[:r * r]
    for i, a in enumerate(chosen):
        for b in chosen[i + 1:]:
            if not host.has_edge(a, b):
                raise ConstructionError(
                    f"witness pair {(a, b)} not adjacent in host")
    pattern = grid(r, r)
    branch = {v: {chosen[v]} for v in range(r * r)}
    ew = {(u, v): (chosen[u], chosen[v]) for u, v in pattern.edges}
    return _checked(MinorModel(pattern, host, branch, ew), "clique_to_grid")


# ---------------------------------------------------------------------------
# radial-to-dual grid transfer

def _assign_grid_coords(verts, edges):
    """(k, coords) when (verts, edges) is exactly a k x k grid, placing
    one corner at (0,0); raises ConstructionError otherwise."""
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
    want = set()
    for x in range(k):
        for y in range(k):
            if x + 1 < k:
                want.add(((x, y), (x + 1, y)))
            if y + 1 < k:
                want.add(((x, y), (x, y + 1)))
    have = {tuple(sorted((coords[u], coords[v]))) for u, v in edges}
    if have != want:
        raise ConstructionError("edge set is not the k x k grid")
    return k, coords


def _shortest_path(neighbors, src, dst, allowed):
    """BFS path within `allowed`, neighbors explored in increasing id."""
    parent = _bfs_parents(neighbors, src, allowed)
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
    corners = [fl.nation_of.get(e.face_of[d]) for d in e.vertex_darts(u)]
    if corners.count(None) > 1:
        raise ConstructionError(f"vertex {u} has several lake corners; "
                                f"map is not canonical")
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


def radial_grid_to_dual_grid(seq, e, fl):
    """Convert a k x k grid minor of the radial-dual union into a
    (floor(k/6)-1) x (floor(k/6)-1) grid minor of the dual graph.

    `seq` must contract/delete the union graph of (e, fl) down to a
    k x k grid with k >= 12; the map must be canonical.
    """
    if not is_canonical(e, fl):
        raise ConstructionError("map is not canonical")
    host = union_radial_dual(e, fl)
    if seq.host != host:
        raise ConstructionError(
            "sequence host differs from the union of radial and dual")
    verts, edges, _ = seq.replay()
    k, coords = _assign_grid_coords(verts, edges)
    t = k // 6 - 1
    if t < 1:
        raise ConstructionError(
            f"grid side {k} too small: need k >= 12 for a nonempty output")

    # keep the contractions, discard edge deletions: the partially
    # triangulated grid, with the same vertex set and coordinates
    verts_p, edges_p, labels = seq.replay(skip_edge_deletions=True)
    if verts_p != verts:
        raise ConstructionError(
            "radial_grid_to_dual_grid: skipping the edge deletions "
            "changed the surviving vertices")
    for u, v in edges_p:
        (x1, y1), (x2, y2) = coords[u], coords[v]
        if max(abs(x1 - x2), abs(y1 - y2)) > 1:
            raise ConstructionError(
                f"edge {(u, v)} spans non-neighboring grid cells; the "
                f"contracted graph is not a partially triangulated grid")
    at = {coords[v]: v for v in verts}
    adj_p = {v: set() for v in verts}
    for u, v in edges_p:
        adj_p[u].add(v)
        adj_p[v].add(u)

    n = e.num_vertices
    owner_of = {}  # union-graph vertex -> contracted vertex carrying it
    for v, lab in labels.items():
        for u in lab:
            owner_of[u] = v

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

    def transfer_path(src_key, dst_key, narrow, wide, cut_axis, cut_line):
        """Simple path in the dual between vhat[src_key] and
        vhat[dst_key], routed through the label sets of `wide`, plus its
        cut position (index of the last vertex contracted toward src)."""
        src, dst = anchor[src_key], anchor[dst_key]
        allowed_p = {v for v in verts if in_rect(v, narrow)}
        p_grid = _shortest_path(adj_p, src, dst, allowed_p)
        if p_grid is None:
            raise ConstructionError(
                f"no path between blocks {src_key} and {dst_key} inside "
                f"the narrow rectangle")
        # lift into the union graph: witness edges between consecutive
        # label sets, stitched by paths inside each (connected) label set
        walk = [vhat[src_key]]
        cursor = vhat[src_key]
        for a, b in zip(p_grid, p_grid[1:]):
            ua, ub = min(
                (x, y) for x in labels[a] for y in labels[b]
                if host.has_edge(x, y))
            inner = _shortest_path(host_adj, cursor, ua, labels[a])
            if inner is None:
                raise ConstructionError(
                    f"radial_grid_to_dual_grid: label set of {a} is not "
                    f"connected")
            walk.extend(inner[1:])
            walk.append(ub)
            cursor = ub
        inner = _shortest_path(host_adj, cursor, vhat[dst_key],
                               labels[p_grid[-1]])
        if inner is None:
            raise ConstructionError(
                f"radial_grid_to_dual_grid: label set of {p_grid[-1]} is "
                f"not connected")
        walk.extend(inner[1:])
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

    branch = {key: {vhat[key] - n} for key in vhat}
    witness = {}

    def grid_id(i, j):
        return (i - 1) * t + (j - 1)

    def absorb(key, nations):
        for d in nations:
            for other, s in branch.items():
                if d in s and other != key:
                    raise ConstructionError(
                        f"dual vertex {d} claimed by blocks {other} and "
                        f"{key}; transfer paths are not disjoint")
            branch[key].add(d)

    for i in range(1, t + 1):
        for j in range(1, t + 1):
            if j + 1 <= t:
                path, cut = transfer_path(
                    (i, j), (i, j + 1),
                    (6 * i + 1, 6 * i + 2, 6 * j + 1, 6 * (j + 1) + 2),
                    (6 * i, 6 * i + 3, 6 * j, 6 * (j + 1) + 3),
                    cut_axis=1, cut_line=6 * j + 4)
                absorb((i, j), path[1:cut + 1])
                absorb((i, j + 1), path[cut + 1:-1])
                witness[(grid_id(i, j), grid_id(i, j + 1))] = (
                    path[cut], path[cut + 1])
            if i + 1 <= t:
                path, cut = transfer_path(
                    (i, j), (i + 1, j),
                    (6 * i + 1, 6 * (i + 1) + 2, 6 * j + 1, 6 * j + 2),
                    (6 * i, 6 * (i + 1) + 3, 6 * j, 6 * j + 3),
                    cut_axis=0, cut_line=6 * i + 4)
                absorb((i, j), path[1:cut + 1])
                absorb((i + 1, j), path[cut + 1:-1])
                witness[(grid_id(i, j), grid_id(i + 1, j))] = (
                    path[cut], path[cut + 1])

    branch_sets = {grid_id(i, j): branch[(i, j)]
                   for i in range(1, t + 1) for j in range(1, t + 1)}
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
# clean subgrid extraction

def clean_subgrid(grid_rows, grid_cols, extra_edges):
    """Largest square window of the grid with no extra-edge endpoint in
    its interior, plus the contraction sequence folding everything
    outside the window into its boundary.

    Returns ((top, left, side), ContractionSequence).  The window side is
    at least floor(min(rows, cols) / (2*len(extra_edges) + 1)).
    """
    if grid_rows < 1 or grid_cols < 1:
        raise ValueError("grid must be nonempty")
    base = grid(grid_rows, grid_cols)
    extra = []
    for u, v in extra_edges:
        if not (0 <= u < base.n and 0 <= v < base.n) or u == v:
            raise ValueError(f"bad extra edge {(u, v)}")
        extra.append((min(u, v), max(u, v)))
    host = SimpleGraph(base.n, set(base.edges) | set(extra))
    endpoints = {divmod(x, grid_cols) for e in extra for x in e}

    found = None
    for side in range(min(grid_rows, grid_cols), 0, -1):
        for top in range(grid_rows - side + 1):
            for left in range(grid_cols - side + 1):
                interior = all(
                    not (top < i < top + side - 1
                         and left < j < left + side - 1)
                    for i, j in endpoints)
                if interior:
                    found = (top, left, side)
                    break
            if found:
                break
        if found:
            break
    top, left, side = found
    guarantee = min(grid_rows, grid_cols) // (2 * len(extra) + 1)
    if side < guarantee:
        raise ConstructionError(f"clean_subgrid: window side {side} is "
                                f"below the guaranteed {guarantee}")

    def vid(i, j):
        return i * grid_cols + j

    ops = []
    # fold rows above and below the window inward (farthest row first so
    # each contraction edge still exists), then columns
    for i in range(top):
        for j in range(grid_cols):
            ops.append(("contract", vid(i + 1, j), vid(i, j)))
    for i in range(grid_rows - 1, top + side - 1, -1):
        for j in range(grid_cols):
            ops.append(("contract", vid(i - 1, j), vid(i, j)))
    for j in range(left):
        for i in range(top, top + side):
            ops.append(("contract", vid(i, j + 1), vid(i, j)))
    for j in range(grid_cols - 1, left + side - 1, -1):
        for i in range(top, top + side):
            ops.append(("contract", vid(i, j - 1), vid(i, j)))
    seq = ContractionSequence(host, ops)
    verts, edges, _ = seq.replay()
    window_ids = {vid(i, j) for i in range(top, top + side)
                  for j in range(left, left + side)}
    if verts != window_ids:
        raise ConstructionError("clean_subgrid: folding left vertices "
                                "outside the window")
    keep = set()
    for i in range(top, top + side):
        for j in range(left, left + side):
            if j + 1 < left + side:
                keep.add((vid(i, j), vid(i, j + 1)))
            if i + 1 < top + side:
                keep.add((vid(i, j), vid(i + 1, j)))
    if not keep <= edges:
        raise ConstructionError(f"clean_subgrid: folding lost grid edge "
                                f"{min(keep - edges)}")
    for u, v in sorted(edges - keep):
        seq.ops.append(("delete_edge", u, v))
    verts, edges, _ = seq.replay()
    if edges != keep:
        raise ConstructionError("clean_subgrid: the edge deletions leave "
                                "a graph other than the window grid")
    return (top, left, side), seq


# ---------------------------------------------------------------------------
# graph vs. double radial

def _is_two_connected(g):
    if g.n < 3 or not g.is_connected():
        return False
    for v in range(g.n):
        rest = set(range(g.n)) - {v}
        if len(_bfs_parents(g.adj, 0 if v else 1, rest)) != g.n - 1:
            return False
    return True


def double_radial_minor(e):
    """Verified model of G inside R(R(G)), G the graph embedded by e
    with every face a nation.

    Each face of R(G) is a diamond spanning one edge {v1, v2} of G; the
    diamond vertex of R(R(G)) is contracted into min(v1, v2).
    """
    g = e.simple_graph()
    if len(g.edges) != e.num_edges():
        raise ConstructionError(
            "embedded graph has loops or parallel edges")
    if not _is_two_connected(g):
        raise ConstructionError("graph is not 2-connected")
    r1 = radial_embedding(e)
    r2 = radial_embedding(r1)
    host = r2.simple_graph()
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
# conversions and JSON serialization

def model_to_contraction_sequence(m):
    """ContractionSequence realizing the model: delete non-branch
    vertices, contract each branch set into its smallest member, delete
    the leftover non-pattern edges."""
    g = m.host
    used = set().union(*m.branch_sets.values()) if m.branch_sets else set()
    ops = [("delete_vertex", v) for v in sorted(set(range(g.n)) - used)]
    for v in sorted(m.branch_sets):
        s = m.branch_sets[v]
        # contract along a BFS tree, leaves inward
        parent = _bfs_parents(g.adj, min(s), s)
        for x in reversed(list(parent)[1:]):
            ops.append(("contract", parent[x], x))
    seq = ContractionSequence(g, ops)
    verts, edges, _ = seq.replay()
    pattern_edges = {tuple(sorted((min(m.branch_sets[u]),
                                   min(m.branch_sets[v]))))
                     for u, v in m.pattern.edges}
    for u, v in sorted(edges - pattern_edges):
        seq.ops.append(("delete_edge", u, v))
    return seq


def _graph_to_json(g):
    return {"n": g.n, "edges": sorted(list(e) for e in g.edges)}


def _json_int(x):
    # bool is an int subclass in Python, but `true` is no JSON integer
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _json_ints(xs):
    return [_json_int(x) for x in xs]


def _graph_from_json(obj):
    return SimpleGraph(_json_int(obj["n"]),
                       [_json_ints(e) for e in obj["edges"]])


def model_dumps(m):
    obj = {
        "pattern": _graph_to_json(m.pattern),
        "host": _graph_to_json(m.host),
        "branch_sets": {str(v): sorted(s)
                        for v, s in m.branch_sets.items()},
        "edge_witness": [[list(k), list(w)]
                         for k, w in sorted(m.edge_witness.items())],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@_raises_format_error
def model_loads(text):
    obj = json.loads(text)
    return MinorModel(
        _graph_from_json(obj["pattern"]),
        _graph_from_json(obj["host"]),
        {int(v): _json_ints(s) for v, s in obj["branch_sets"].items()},
        {tuple(_json_ints(k)): tuple(_json_ints(w))
         for k, w in obj["edge_witness"]},
    )


def sequence_dumps(seq):
    obj = {"host": _graph_to_json(seq.host),
           "ops": [list(op) for op in seq.ops]}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@_raises_format_error
def sequence_loads(text):
    obj = json.loads(text)
    return ContractionSequence(_graph_from_json(obj["host"]),
                               [(op[0], *_json_ints(op[1:]))
                                for op in obj["ops"]])
