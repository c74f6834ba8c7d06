"""Tree decompositions: validation, exact and heuristic treewidth, the
two bag-lifting constructions, and a vertex-cover DP."""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import (ConstructionError, FormatError, SizeLimitError,
                     _int_token, _raises_format_error)
from .graph import _bfs_parents, _power_with_balls

TREEWIDTH_EXACT_LIMIT = 20  # documented desk-scale limit


@dataclass(frozen=True)
class Violation:
    """First failed tree-decomposition condition plus a witness."""

    condition: str  # "tree", "T1", "T2" or "T3"
    witness: object
    message: str

    def __str__(self):
        return f"{self.condition}: {self.message}"


class TreeDecomposition:
    """Tree of bags over the vertices of a carrier graph."""

    __slots__ = ("bags", "tree_edges")

    def __init__(self, bags, tree_edges):
        self.bags = [frozenset(b) for b in bags]
        self.tree_edges = sorted(
            (min(a, b), max(a, b)) for a, b in tree_edges)
        for a, b in self.tree_edges:
            if not (0 <= a < len(self.bags) and 0 <= b < len(self.bags)):
                raise ValueError(f"tree edge {(a, b)} out of range")
            if a == b:
                raise ValueError("tree self-loop")

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0) - 1

    def node_neighbors(self):
        nb = [[] for _ in self.bags]
        for a, b in self.tree_edges:
            nb[a].append(b)
            nb[b].append(a)
        return nb

    def validate(self, g):
        """None if this is a valid decomposition of g, else a Violation."""
        b = len(self.bags)
        nb = self.node_neighbors()
        # tree shape: connected and acyclic
        if len(set(self.tree_edges)) != len(self.tree_edges):
            return Violation("tree", None, "duplicate tree edge")
        if len(self.tree_edges) != max(b - 1, 0):
            return Violation("tree", None,
                             f"{len(self.tree_edges)} edges on {b} nodes")
        parent = _bfs_parents(nb, 0) if b else {}
        if len(parent) != b:
            return Violation("tree", None, "tree is disconnected")
        # walking T from node 0, node i adds the vertices of its bag that
        # its parent's bag lacks: each vertex once per component of the
        # nodes holding it, at that component's top node (nearest node 0)
        bags = self.bags
        top = {}  # vertex -> bag of a top node (its only one under T3)
        added = 0
        for i, p in parent.items():
            new = bags[i] if p is None else bags[i] - bags[p]
            added += len(new)
            top.update(dict.fromkeys(new, bags[i]))
        # T1: the vertices added are the bag vertices
        covered = top.keys()
        if covered != set(range(g.n)):
            for v in range(g.n):
                if v not in covered:
                    return Violation("T1", v, f"vertex {v} in no bag")
            v = min(v for v in covered if not 0 <= v < g.n)
            return Violation("T1", v, f"bag vertex {v} not in graph")
        # T3: every vertex is added at least once, so its nodes form one
        # subtree each iff exactly n are added
        if added != g.n:
            return self._first_violation(g)
        # T2: the bags of u and of v are subtrees, and two subtrees meet
        # iff the top node of one lies in the other
        uncovered = [(u, v) for u, v in g.edges
                     if v not in top[u] and u not in top[v]]
        if uncovered:
            e = min(uncovered)
            return Violation("T2", e, f"edge {e} in no bag")
        return None

    def _first_violation(self, g):
        """T2 or T3 violation of a tree that meets T1 but not T3."""
        # vertex -> indices of the bags holding it
        where = [set() for _ in range(g.n)]
        for i, bag in enumerate(self.bags):
            for v in bag:
                where[v].add(i)
        for u, v in sorted(g.edges):
            if where[u].isdisjoint(where[v]):
                return Violation("T2", (u, v), f"edge {(u, v)} in no bag")
        inside = [0] * g.n
        for a, c in self.tree_edges:
            for v in self.bags[a] & self.bags[c]:
                inside[v] += 1
        # T is a tree, so the bags of v form a subtree iff the tree edges
        # joining two of them number one fewer than the bags; more than n
        # vertices were added, so some v fails this
        v = min(v for v in range(g.n) if inside[v] != len(where[v]) - 1)
        return Violation("T3", v, f"bags of vertex {v} are not connected in T")

    def __eq__(self, other):
        if not isinstance(other, TreeDecomposition):
            return NotImplemented
        return self.bags == other.bags and self.tree_edges == other.tree_edges

    def __repr__(self):
        return (f"TreeDecomposition(nodes={len(self.bags)}, "
                f"width={self.width})")


def decomposition_from_order(g, order):
    """Tree decomposition from an elimination ordering (fill-in bags)."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    adj = [set(a) for a in g.adj]
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    for v in order:
        nb = set(adj[v])
        bags.append(frozenset(nb | {v}))
        for u in nb:
            adj[u].discard(v)
            adj[u] |= nb - {u}
        adj[v] = set()
    edges = []
    for i, v in enumerate(order):
        later = bags[i] - {v}
        if later:
            edges.append((i, min(pos[w] for w in later)))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    if not bags:
        bags = [frozenset()]
    return TreeDecomposition(bags, edges)


def treewidth_exact(g):
    """Minimum width and an optimal decomposition (n <= 20)."""
    if g.n > TREEWIDTH_EXACT_LIMIT:
        raise SizeLimitError(
            f"treewidth_exact limited to {TREEWIDTH_EXACT_LIMIT} vertices, "
            f"got {g.n}")
    if g.n == 0:
        return -1, TreeDecomposition([frozenset()], [])
    width, order = _kernels.treewidth_order(g.n, g.adjacency_masks())
    return width, _from_kernel_order(g, width, order, "treewidth_exact")


def treewidth_upper(g):
    """Valid decomposition via greedy min-fill; width >= tw(g)."""
    if g.n == 0:
        return -1, TreeDecomposition([frozenset()], [])
    width, order = _kernels.min_fill_order(g.n, g.adjacency_masks())
    return width, _from_kernel_order(g, width, order, "treewidth_upper")


def _checked(td, g, stage):
    violation = td.validate(g)
    if violation is not None:
        raise ConstructionError(f"{stage} produced an invalid "
                                f"decomposition: {violation}")
    return td


def _from_kernel_order(g, width, order, stage):
    td = decomposition_from_order(g, list(order))
    if td.width != width:
        raise ConstructionError(f"{stage}: the kernel reported width "
                                f"{width}, its order gives {td.width}")
    return _checked(td, g, stage)


def _require_valid(td, g, what):
    violation = td.validate(g)
    if violation is not None:
        raise ValueError(f"invalid input decomposition of {what}: {violation}")


def lift_radial_to_map(td_r, e, fl):
    """Turn a decomposition of the radial graph into one of the map graph
    by replacing each embedded-graph vertex with its incident nations."""
    from .embedding import map_graph, radial_graph

    r_graph, _ = radial_graph(e, fl)
    _require_valid(td_r, r_graph, "radial graph")
    m_graph = map_graph(e, fl)
    n_vertices = e.num_vertices
    incident = e.incident_nations(fl)  # vertex -> nation indices
    bags = []
    for bag in td_r.bags:
        new_bag = set()
        for x in bag:
            if x >= n_vertices:
                new_bag.add(x - n_vertices)
            else:
                new_bag |= incident[x]
        bags.append(new_bag)
    return _checked(TreeDecomposition(bags, td_r.tree_edges), m_graph,
                    "lift_radial_to_map")


def lift_power(td, g, k):
    """Turn a decomposition of g into one of g^k by replacing each vertex
    occurrence with its whole radius-k neighborhood."""
    _require_valid(td, g, "base graph")
    # every vertex lies in some bag (T1), so each ball is needed
    gk, balls = _power_with_balls(g, k)
    bags = [set().union(*map(balls.__getitem__, bag)) for bag in td.bags]
    return _checked(TreeDecomposition(bags, td.tree_edges), gk,
                    "lift_power")


def vertex_cover_dp(g, td):
    """Exact minimum vertex cover by DP over the decomposition bags.

    Returns (size, cover_set).  Time 2^O(width) per node.
    """
    _require_valid(td, g, "carrier graph")
    if g.n == 0:
        return 0, set()
    b = len(td.bags)
    nb = td.node_neighbors()
    root = 0
    parent = _bfs_parents(nb, root)
    order = list(parent)

    bag_lists = [sorted(bag) for bag in td.bags]
    children = [[y for y in nb[x] if y != parent[x]] for x in range(b)]
    dp = [None] * b       # node -> {mask: best size}
    choice = [None] * b   # node -> {mask: child masks, as children[node]}

    for x in reversed(order):
        verts = bag_lists[x]
        idx = {v: i for i, v in enumerate(verts)}
        # local neighbor masks: a mask is a cover of the bag iff the
        # vertices it leaves out are independent
        local_nb = [sum(1 << idx[w] for w in g.adj[v] if w in idx)
                    for v in verts]
        # per child: the bag-local mask of the shared vertices, and for
        # each selection of them the first child mask of least size that
        # makes it (Cygan et al., Parameterized Algorithms, 2015, 7.3)
        joins = []
        for c in children[x]:
            shared = [(i, 1 << idx[v]) for i, v in enumerate(bag_lists[c])
                      if v in idx]
            best = {}
            for cmask, csize in dp[c].items():
                key = 0
                for i, bit in shared:
                    if cmask >> i & 1:
                        key |= bit
                if key not in best or csize < best[key][0]:
                    best[key] = (csize, cmask)
            joins.append((sum(bit for _, bit in shared), best))
        # the bag's independent sets in increasing order (each round adds
        # masks above all earlier ones); their complements, taken in
        # reverse, are the bag's covers in increasing order
        free = [0]
        for i, nb_mask in enumerate(local_nb):
            free += [s | 1 << i for s in free if not s & nb_mask]
        full = (1 << len(verts)) - 1
        table = {}
        picks = {}
        for s in reversed(free):
            mask = full ^ s
            total = mask.bit_count()
            pick = []
            for shared_mask, best in joins:
                key = mask & shared_mask
                found = best.get(key)
                if found is None:
                    break
                # the shared vertices it selects are counted in `mask`
                total += found[0] - key.bit_count()
                pick.append(found[1])
            else:
                table[mask] = total
                picks[mask] = pick
        dp[x] = table
        choice[x] = picks

    best_mask = min(dp[root], key=lambda m: dp[root][m])
    size = dp[root][best_mask]
    cover = set()
    mask_of = {root: best_mask}
    for x in order:
        mask = mask_of[x]
        verts = bag_lists[x]
        cover |= {verts[i] for i in range(len(verts)) if mask >> i & 1}
        mask_of.update(zip(children[x], choice[x][mask]))
    if len(cover) != size:
        raise ConstructionError(f"vertex_cover_dp: the traceback gives "
                                f"{len(cover)} vertices, the optimum is "
                                f"{size}")
    bare = [(u, v) for u, v in g.edges if u not in cover and v not in cover]
    if bare:
        raise ConstructionError(f"vertex_cover_dp: edge {min(bare)} is "
                                f"not covered")
    return size, cover


# ---------------------------------------------------------------------------
# PACE .td format

def td_dumps(td, n):
    """Serialize to PACE .td text; n is the carrier vertex count."""
    lines = [f"s td {len(td.bags)} {max((len(b) for b in td.bags), default=0)}"
             f" {n}"]
    # keyed by the bags' own vertices, so ids outside range(n) keep
    # their names
    name = {v: str(v + 1) for v in set().union(*td.bags)}
    for i, bag in enumerate(td.bags):
        body = " ".join(map(name.__getitem__, sorted(bag)))
        lines.append(f"b {i + 1} {body}".rstrip())
    for a, b in td.tree_edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


@_raises_format_error
def td_loads(text):
    """Parse PACE .td text.  Returns (TreeDecomposition, n)."""
    header = None
    bags = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise FormatError("duplicate solution line", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise FormatError(f"bad solution line {line!r}", lineno)
            header = tuple(_int_token(t, lineno) for t in parts[2:])
        elif parts[0] == "b":
            if header is None:
                raise FormatError("bag before solution line", lineno)
            if len(parts) < 2:
                raise FormatError("bag line without a bag id", lineno)
            bag_id = _int_token(parts[1], lineno, 1) - 1
            if bag_id in bags:
                raise FormatError(f"duplicate bag {bag_id + 1}", lineno)
            bags[bag_id] = frozenset(_int_token(v, lineno, 1) - 1
                                     for v in parts[2:])
        else:
            if len(parts) != 2:
                raise FormatError(f"bad tree edge {line!r}", lineno)
            if header is None:
                raise FormatError("tree edge before solution line", lineno)
            a, b = (_int_token(t, lineno, 1) - 1 for t in parts)
            if a == b:
                raise FormatError(f"tree self-loop {line!r}", lineno)
            if max(a, b) >= header[0]:
                raise FormatError(f"tree edge {line!r} out of range", lineno)
            edges.append((a, b))
    if header is None:
        raise FormatError("missing solution line")
    num_bags, max_bag, n = header
    if len(bags) != num_bags or set(bags) != set(range(num_bags)):
        raise FormatError("bag ids do not match header count")
    bag_list = [bags[i] for i in range(num_bags)]
    if max((len(b) for b in bag_list), default=0) != max_bag:
        raise FormatError("header max bag size mismatch")
    return TreeDecomposition(bag_list, edges), n


def td_dump(td, n, path):
    with open(path, "w") as f:
        f.write(td_dumps(td, n))

