"""Minor certificates and the constructive minor arguments: the
radial-to-dual grid transfer and embedding a graph into its double
radial graph."""

from __future__ import annotations

import json
import math
from itertools import starmap

from .decomposition import Violation, treewidth_exact
from .embedding import (_dual_edges, all_nations, dual_graph, is_canonical,
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
        for entry in pairs:
            try:
                (u, v), (a, b) = entry
            except (TypeError, ValueError):
                raise ValueError(f"witness entry {entry!r} is not a pair "
                                 f"of vertex pairs") from None
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
    """Ordered edge contractions / edge deletions / vertex deletions,
    replayed on a host graph the caller passes in.  Vertices keep their
    host ids; contract(u, v) merges v into u."""

    __slots__ = ("ops",)

    def __init__(self, ops=()):
        self.ops = [self._check_op(op) for op in ops]

    @staticmethod
    def _check_op(op):
        kind = op[0] if isinstance(op, (list, tuple)) and op else None
        if kind in ("contract", "delete_edge"):
            if len(op) == 3:
                return (kind, _strict_int(op[1]), _strict_int(op[2]))
            form = "u, v"
        elif kind == "delete_vertex":
            if len(op) == 2:
                return (kind, _strict_int(op[1]))
            form = "v"
        else:
            raise ValueError(f"unknown operation {op!r}")
        raise ValueError(f"operation {op!r} is not [{kind!r}, {form}]")

    def replay(self, host):
        """Apply the operations to `host`.  Returns (vertices, edges,
        labels) where edges holds each surviving edge once as (u, w) with
        u < w and labels[v] is the set of host vertices contracted into v.

        Works on a copy of the host's cached adjacency, so the host is
        left as it was and a second replay returns an equal triple."""
        adj = dict(enumerate(map(set, host.adj)))
        labels = {v: {v} for v in adj}

        for op in self.ops:
            kind, u, v = op[0], op[1], op[-1]  # u == v for delete_vertex
            if u not in adj or v not in adj:
                raise ConstructionError(f"{op}: missing vertex")
            if kind == "delete_vertex":
                for w in adj.pop(v):
                    adj[w].discard(v)
                del labels[v]
                continue
            if v not in adj[u]:
                raise ConstructionError(f"{op}: edge not present")
            adj[u].discard(v)
            adj[v].discard(u)
            if kind == "contract":
                for w in adj.pop(v):
                    adj[w].discard(v)
                    adj[u].add(w)
                    adj[w].add(u)
                labels[u] |= labels.pop(v)
        edges = {(u, w) for u in adj for w in adj[u] if u < w}
        return set(adj), edges, labels

    def __repr__(self):
        return f"ContractionSequence(ops={len(self.ops)})"


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
        nxt = max(sorted(pool), key=lambda v: len(h.adj[v]))
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
    search at desk scale from r = floor(sqrt(n)) down, so the host may
    have at most 15 vertices: the r x r pattern must stay within
    MINOR_PATTERN_LIMIT.
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
    limit = min(MINOR_HOST_LIMIT,
                (math.isqrt(MINOR_PATTERN_LIMIT) + 1) ** 2 - 1)
    if g.n > limit:
        raise SizeLimitError(
            f"largest_grid_minor needs a complete graph or at most "
            f"{limit} vertices, got {g.n}")
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


def radial_grid_to_dual_grid(seq, e, fl):
    """Convert a k x k grid minor of the radial-dual union into a
    (floor(k/6)-1) x (floor(k/6)-1) grid minor of the dual graph.

    Builds the union graph of (e, fl) and replays `seq` on it; `seq`
    must contract/delete the union down to a k x k grid with k >= 12.
    The map must be canonical.
    """
    if not is_canonical(e, fl):
        raise ConstructionError("map is not canonical")
    # one host, whose cached adjacency the replay copies and the
    # transfer paths search
    host = union_radial_dual(e, fl)
    try:
        verts, edges, labels = seq.replay(host)
    except ConstructionError as exc:
        raise ConstructionError(
            f"the sequence does not fit the radial-dual union of this map "
            f"({host.n} vertices): {exc}") from exc
    k, coords = _assign_grid_coords(verts, edges)
    t = k // 6 - 1
    if t < 1:
        raise ConstructionError(
            f"grid side {k} too small: need k >= 12 for a nonempty output")
    at = {coords[v]: v for v in verts}
    # owner[x] is the survivor whose label set holds host vertex x
    owner = {x: v for v, lab in labels.items() for x in lab}

    # without its edge deletions the sequence must leave a partially
    # triangulated grid: no host edge joins the label sets of two cells
    # more than one step apart
    long_edges = []
    for a, b in host.edges:
        if a in owner and b in owner:
            u, v = sorted((owner[a], owner[b]))
            (x1, y1), (x2, y2) = coords[u], coords[v]
            if abs(x1 - x2) > 1 or abs(y1 - y2) > 1:
                long_edges.append((u, v))
    if long_edges:
        raise ConstructionError(
            f"edge {min(long_edges)} spans non-neighboring grid cells; "
            f"the contracted graph is not a partially triangulated grid")
    n = e.num_vertices
    dual = dual_graph(e, fl)

    # vhat[i, j] is the least nation in the label set of the cell
    # (6i+1, 6j+1), or else of its neighbour (6i+2, 6j+1).  One of them
    # holds a nation: the union has no primal-primal edge, so a label set
    # without a nation is one primal vertex, and two of those are never
    # grid neighbours
    vhat = {}
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            a = at[(6 * i + 1, 6 * j + 1)]
            b = at[(6 * i + 2, 6 * j + 1)]
            vhat[(i, j)] = min([u for u in labels[a] if u >= n]
                               or [u for u in labels[b] if u >= n])

    def transfer_path(src_key, dst_key, cut_axis, cut_line):
        """Simple path in the dual between vhat[src_key] and
        vhat[dst_key], plus its cut position (index of the last vertex
        contracted toward src).  Its union-graph walk stays inside the
        label sets of the narrow rectangle spanning both blocks, and the
        dual path stays in the walk's corridor, whose nations all have
        their owners in that rectangle thickened by one."""
        (i, j), (i2, j2) = src_key, dst_key
        narrow = set().union(*(labels[at[x, y]]
                               for x in range(6 * i + 1, 6 * i2 + 3)
                               for y in range(6 * j + 1, 6 * j2 + 3)))
        # the walk exists: replay contracts only along present edges, so
        # each label set is connected and each grid edge is a host edge
        # between two label sets, and the narrow rectangle is connected
        walk = _shortest_path(host.adj, vhat[src_key], vhat[dst_key],
                              narrow)

        def acceptable(nation):
            v = owner.get(n + nation)
            if v is None:
                return False
            x, y = coords[v]
            return 6 * i <= x <= 6 * i2 + 3 and 6 * j <= y <= 6 * j2 + 3

        # the corridor: the walk's nations, whose owners lie in the narrow
        # rectangle, and each acceptable nation on a corner of a primal
        # vertex of the walk (None marks the lake corner)
        corners = {fl.dart_nation[d] for u in walk if u < n
                   for d in e.vertex_darts(u)}
        allowed = {u - n for u in walk if u >= n}
        allowed.update(c for c in corners
                       if c is not None and acceptable(c))
        path = _shortest_path(dual.adj, walk[0] - n, walk[-1] - n, allowed)
        if path is None:
            raise ConstructionError(
                f"no dual path from block {src_key} to {dst_key} stays in "
                f"its rectangle")
        # cut at the first edge crossing the mid line of the block gap.
        # One exists: with c the source block's index on the cut axis, the
        # path starts at or below the line, since the source vhat cell
        # lies at 6c+1 or 6c+2 and the line at 6c+4, and it ends above
        # it, at 6c+7 or more
        axis_coord = [coords[owner[n + d]][cut_axis] for d in path]
        cut = next(idx for idx in range(len(path) - 1)
                   if axis_coord[idx] <= cut_line < axis_coord[idx + 1])
        return path, cut

    def grid_id(i, j):
        return (i - 1) * t + (j - 1)

    # each block's branch set grows from its vhat along the transfer
    # paths; `_checked` refuses branch sets that overlap
    branch_sets = {grid_id(*key): {vhat[key] - n} for key in vhat}
    witness = {}
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            for di, dj in ((0, 1), (1, 0)):
                src, dst = (i, j), (i + di, j + dj)
                if max(dst) > t:
                    continue
                path, cut = transfer_path(src, dst, cut_axis=dj,
                                          cut_line=6 * (i * di + j * dj) + 4)
                branch_sets[grid_id(*src)].update(path[:cut + 1])
                branch_sets[grid_id(*dst)].update(path[cut + 1:])
                witness[(grid_id(*src), grid_id(*dst))] = (
                    path[cut], path[cut + 1])
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
    # the union's vertices are range(n + size*size), and its edges with
    # both ends in the nations are the dual edges shifted by n
    ops = [("delete_vertex", v)
           for v in range(n + size * size) if v not in window]
    ops += [("delete_edge", a, b) for a, b in sorted(_dual_edges(e, fl, n))
            if a in window and b in window]
    return e, fl, ContractionSequence(ops)


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
        # every face of a radial map is the quadrilateral v-f-w-f' of one
        # edge vw, so prim holds two primal vertices (v = w for a loop)
        prim = sorted(v for v in (r1.vertex_of[d] for d in walk) if v < n)
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


_JSON_TYPE = {dict: "object", list: "array", int: "integer", float: "number",
              str: "string", bool: "boolean", type(None): "null"}


def _typed(value, kind, what):
    """`value`, which must have the JSON type `kind` (bool is no int)."""
    if type(value) is not kind:
        raise ValueError(f"{what}: expected a JSON {_JSON_TYPE[kind]}, "
                         f"found {_JSON_TYPE[type(value)]}")
    return value


def _fields(obj, keys, what):
    """The values in `obj`, a JSON object that must hold exactly the
    keys of `keys`, each with the JSON type that `keys` maps it to."""
    if _typed(obj, dict, what).keys() != keys.keys():
        raise ValueError(f"{what}: expected a JSON object with exactly the "
                         f"keys {sorted(keys)}, found {sorted(obj)}")
    return [_typed(obj[k], kind, f"{what} {k}") for k, kind in keys.items()]


def _graph_from_json(obj, what):
    n, edges = _fields(obj, {"n": int, "edges": list}, what)
    # name only a bad edge: a name per edge adds a third to model_loads
    for i, e in enumerate(edges):
        if type(e) is not list:
            _typed(e, list, f"{what} edges[{i}]")
        if len(e) != 2:
            raise ValueError(f"{what} edges[{i}]: expected a pair of "
                             f"vertices, found {len(e)} "
                             f"{'entry' if len(e) == 1 else 'entries'}")
    # SimpleGraph refuses an edge end that is not an int
    return SimpleGraph(n, edges)


# model_dumps writes the text of json.dumps(obj, indent=2, sort_keys=True)
# for the model's one fixed shape without CPython's pure-Python indented
# encoder; nl is a newline plus the indent of the line a value starts
# on, and every int goes through format spec "d", so a non-int raises

def _array(items, nl, brackets="[]"):
    # an array (or, with brackets "{}", an object) of written items
    if not items:
        return brackets
    inner = nl + "  "
    return (brackets[0] + inner + ("," + inner).join(items) + nl
            + brackets[1])


def _pairs(pairs, nl):
    inner = nl + "  "
    deeper = inner + "  "
    pair = "[" + deeper + "{:d}," + deeper + "{:d}" + inner + "]"
    return _array(list(starmap(pair.format, pairs)), nl)


def _graph(g, nl):
    return _array([f'"edges": {_pairs(sorted(g.edges), nl + "  ")}',
                   f'"n": {g.n:d}'], nl, "{}")


def model_dumps(m):
    nl = "\n  "
    inner = nl + "  "
    # sort_keys orders branch-set keys as strings: "10" before "2"
    sets = [f'"{v:d}": ' + _array([f"{x:d}" for x in sorted(s)], inner)
            for v, s in sorted(m.branch_sets.items(),
                               key=lambda vs: str(vs[0]))]
    witness = [_pairs(entry, inner)
               for entry in sorted(m.edge_witness.items())]
    return _array([f'"branch_sets": {_array(sets, nl, "{}")}',
                   f'"edge_witness": {_array(witness, nl)}',
                   f'"host": {_graph(m.host, nl)}',
                   f'"pattern": {_graph(m.pattern, nl)}'],
                  "\n", "{}") + "\n"


@_raises_format_error
def model_loads(text):
    pattern, host, branch_sets, edge_witness = _fields(
        json.loads(text, object_pairs_hook=_unique_keys),
        {"pattern": dict, "host": dict, "branch_sets": dict,
         "edge_witness": list}, "model")
    return MinorModel(
        _graph_from_json(pattern, "model pattern"),
        _graph_from_json(host, "model host"),
        {_json_key(k): _typed(s, list, f"model branch_sets[{k!r}]")
         for k, s in branch_sets.items()},
        edge_witness,
    )


def sequence_dumps(seq):
    return json.dumps({"ops": seq.ops}, separators=(",", ":")) + "\n"


@_raises_format_error
def sequence_loads(text):
    (ops,) = _fields(json.loads(text, object_pairs_hook=_unique_keys),
                     {"ops": list}, "sequence")
    return ContractionSequence(ops)
