"""Plain undirected graphs: powers and neighborhoods.

Vertices are integers 0..n-1.  Edges are unordered pairs stored as
(min, max) tuples.  All functions are pure; SimpleGraph is immutable.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

from .errors import FormatError, _int_token, _raises_format_error


def _normalize_edge(u, v):
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class SimpleGraph:
    """Loop-free undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        es = set()
        for u, v in edges:
            e = _normalize_edge(u, v)
            if not (0 <= e[0] and e[1] < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            es.add(e)
        self.n = n
        self.edges = frozenset(es)
        self._adj = None

    @property
    def adj(self):
        """Adjacency sets, built lazily and cached."""
        if self._adj is None:
            adj = [set() for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return self._adj

    def num_edges(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adj[v])

    def max_degree(self):
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u, v):
        return _normalize_edge(u, v) in self.edges if u != v else False

    def is_connected(self):
        return self.n <= 1 or len(_bfs_parents(self.adj, 0)) == self.n

    def subgraph(self, vertices):
        """Induced subgraph on `vertices` (re-indexed).

        Returns (graph, old_ids) where old_ids[i] is the original id of
        new vertex i.
        """
        old_ids = sorted(set(vertices))
        index = {v: i for i, v in enumerate(old_ids)}
        adj = self.adj
        edges = [(index[u], index[w]) for u in old_ids if 0 <= u < self.n
                 for w in adj[u] if u < w and w in index]
        return SimpleGraph(len(old_ids), edges), old_ids

    def is_complete(self):
        return len(self.edges) == self.n * (self.n - 1) // 2

    def adjacency_masks(self):
        """Neighbor bitmasks, one int per vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={len(self.edges)})"

    @staticmethod
    def complete(n):
        return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @staticmethod
    def path(n):
        return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n):
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def star(m):
        """Star K_{1,m}: center 0, leaves 1..m."""
        return SimpleGraph(m + 1, [(0, i) for i in range(1, m + 1)])


def _strict_int(x):
    # bool is an int subclass in Python, but `true` is no JSON integer,
    # and int() would truncate 1.9 or parse "2"
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class Bipartition:
    """Two-sided vertex partition of a carrier graph."""

    left: frozenset
    right: frozenset

    def __init__(self, left, right):
        object.__setattr__(self, "left", frozenset(left))
        object.__setattr__(self, "right", frozenset(right))

    def check(self, g):
        """Raise ValueError unless this is a valid bipartition of g."""
        if self.left & self.right:
            raise ValueError("bipartition sides overlap")
        if self.left | self.right != set(range(g.n)):
            raise ValueError("bipartition does not cover all vertices")
        for u, v in g.edges:
            if (u in self.left) == (v in self.left):
                raise ValueError(f"edge {(u, v)} inside one side")


@dataclass(frozen=True)
class CliqueWitness:
    """Vertex set pairwise within a stated distance bound in the carrier
    graph, hence a clique in the corresponding power graph."""

    vertices: frozenset
    pairwise_distance_bound: int

    def __init__(self, vertices, pairwise_distance_bound):
        bound = _strict_int(pairwise_distance_bound)
        if bound < 0:
            raise ValueError("pairwise distance bound must be nonnegative")
        object.__setattr__(self, "vertices",
                           frozenset(map(_strict_int, vertices)))
        object.__setattr__(self, "pairwise_distance_bound", bound)

    def verify(self, g):
        """None if every pair lies within the bound in g, else an
        offending pair (u, v) with u <= v.

        A vertex outside g offends first: the least such x, paired with
        the least other witness vertex, or with itself when alone.
        """
        verts = sorted(self.vertices)
        outside = [x for x in verts if not 0 <= x < g.n]
        if outside:
            x = outside[0]
            y = next((v for v in verts if v != x), x)
            return (min(x, y), max(x, y))
        for i, u in enumerate(verts):
            ball = k_neighborhood(g, u, self.pairwise_distance_bound)
            for v in verts[i + 1:]:
                if v not in ball:
                    return (u, v)
        return None


@dataclass(frozen=True)
class BoundReport:
    """Outcome of power_clique_or_bound when no large clique was found.

    Claims max_degree(G^k) < degree_bound (r^4 for even k, r^6 for odd
    k); `parity` and `degree_bound` are derived from k and r.  `verify`
    checks the claim.
    """

    k: int
    r: int
    center: int
    parity: str = field(init=False)  # "even" or "odd"
    degree_bound: int = field(init=False)

    def __post_init__(self):
        for x in (self.k, self.r, self.center):
            _strict_int(x)
        if self.k < 1 or self.r < 1:
            raise ValueError("a degree bound needs k >= 1 and r >= 1")
        odd = self.k % 2 == 1
        object.__setattr__(self, "parity", "odd" if odd else "even")
        object.__setattr__(self, "degree_bound", self.r ** (6 if odd else 4))

    def verify(self, g):
        """None if every vertex has fewer than degree_bound neighbors in
        G^k, else the first vertex that has at least that many."""
        for v in range(g.n):
            if len(k_neighborhood(g, v, self.k)) - 1 >= self.degree_bound:
                return v
        return None


def power_graph(g, k):
    """k-th power: same vertices, edge iff 1 <= dist_G(u,v) <= k."""
    if k == 1:
        return g
    return _power_with_balls(g, k)[0]


def _power_with_balls(g, k):
    """(g^k, the radius-k ball of every vertex of g), each ball
    computed once."""
    if k < 1:
        raise ValueError("power exponent k must be >= 1")
    balls = [k_neighborhood(g, v, k) for v in range(g.n)]
    edges = [(u, v) for u in range(g.n) for v in balls[u] if v > u]
    return SimpleGraph(g.n, edges), balls


def k_neighborhood(g, v, k):
    """All vertices at distance <= k from v, including v: a BFS from v
    that stops at depth k."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if k < 0:
        raise ValueError("k must be nonnegative")
    adj = g.adj
    ball = {v}
    frontier = [v]
    for _ in range(k):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in ball:
                    ball.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return ball


def _bfs_parents(neighbors, source, allowed=None, target=None):
    """Breadth-first search tree from `source` as {vertex: parent} in
    discovery order, the source mapped to None.  `neighbors[u]` lists
    the neighbors of u; they are explored in increasing id, so ties
    break toward smaller ids.  Only vertices in `allowed` (every vertex
    when None) are entered after the source.  The search stops once
    `target` (when given) is entered; the parents found up to then are
    those of the full search."""
    parent = {source: None}
    if source == target:
        return parent
    order = [source]
    for u in order:
        for w in sorted(neighbors[u]):
            if w not in parent and (allowed is None or w in allowed):
                parent[w] = u
                if w == target:
                    return parent
                order.append(w)
    return parent


def _components(neighbors, vertices):
    """Connected components of the vertices in `vertices`, one
    `_bfs_parents` search each, every component sorted and the
    components in the order of `vertices`."""
    out = []
    seen = set()
    for v in vertices:
        if v not in seen:
            comp = _bfs_parents(neighbors, v)
            seen.update(comp)
            out.append(sorted(comp))
    return out


def _bfs_tree_labels(g, center, depth_cap):
    """Label each vertex reachable from center with its BFS-tree
    ancestor at depth exactly depth_cap (the vertex itself if
    shallower)."""
    depth = {}
    label = {}
    for w, u in _bfs_parents(g.adj, center).items():
        depth[w] = 0 if u is None else depth[u] + 1
        label[w] = w if depth[w] <= depth_cap else label[u]
    return label


def _least_big_class(label, members, target):
    """Group `members` by label; the class of at least `target` members
    with the least minimum, or None."""
    classes = collections.defaultdict(set)
    for u in members:
        classes[label[u]].add(u)
    big = [c for c in classes.values() if len(c) >= target]
    return min(big, key=min) if big else None


def power_clique_or_bound(g, k, r):
    """Case analysis at the maximum-degree vertex of G^k.

    Returns a CliqueWitness of size >= r^2 when one of the stages finds
    one, else a BoundReport claiming max_degree(G^k) < r^4 (even k) or
    < r^6 (odd k); `BoundReport.verify` checks the claim.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    target = r * r

    # center = vertex of maximum k-neighborhood size (max degree in G^k),
    # smallest id on ties.
    v, nk = 0, set()
    for u in range(g.n):
        ball = k_neighborhood(g, u, k)
        if len(ball) > len(nk):
            v, nk = u, ball
    half = k // 2
    n_half = k_neighborhood(g, v, half)

    if len(n_half) >= target:
        # pairwise distance <= 2*floor(k/2) <= k
        return CliqueWitness(n_half, k)

    label = _bfs_tree_labels(g, v, half)
    if k % 2 == 0:
        cls = _least_big_class(label, nk, target)
        if cls is not None:
            return CliqueWitness(cls, k)
        return BoundReport(k=k, r=r, center=v)

    # odd k: second stage over N_{k-1}, third over N_k
    # members within floor(k/2) of a common label: pairwise <= k-1
    cls = _least_big_class(label, k_neighborhood(g, v, k - 1), target)
    if cls is not None:
        return CliqueWitness(cls, k)

    cls = _least_big_class(_bfs_tree_labels(g, v, k - 1), nk, target)
    if cls is not None:
        witness = CliqueWitness(cls, k)
        if witness.verify(g) is not None:
            # Only reachable for k = 1, where the two-stage argument
            # gives pairwise distance 2 > k.  The theorem's other case
            # (treewidth already large) covers k = 1; this routine alone
            # cannot certify either outcome.
            raise ValueError(
                "k=1 stage-3 class is not a clique in G itself; "
                "power_clique_or_bound gives no certificate here")
        return witness
    if len(nk) - 1 >= r ** 6:
        raise ValueError(
            "case analysis exhausted but degree bound fails (k=1 only)")
    return BoundReport(k=k, r=r, center=v)


# ---------------------------------------------------------------------------
# PACE-style .gr format

def gr_dumps(g):
    """Serialize to PACE .gr text (1-indexed, sorted edges)."""
    lines = [f"p tw {g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


@_raises_format_error
def gr_loads(text):
    """Parse PACE .gr text."""
    n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "tw":
                raise FormatError(f"bad problem line {line!r}", lineno)
            if n is not None:
                raise FormatError("duplicate problem line", lineno)
            n, m = (_int_token(t, lineno) for t in parts[2:])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {line!r}", lineno)
        if n is None:
            raise FormatError("edge before problem line", lineno)
        u, v = (_int_token(t, lineno) - 1 for t in parts)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge {line!r} out of range", lineno)
        if u == v:
            raise FormatError(f"self-loop {line!r}", lineno)
        edges.append((u, v))
    if n is None:
        raise FormatError("missing problem line")
    g = SimpleGraph(n, edges)
    if m is not None and len(g.edges) != m:
        raise FormatError(f"header claims {m} edges, found {len(g.edges)}")
    return g


def gr_dump(g, path):
    with open(path, "w") as f:
        f.write(gr_dumps(g))

