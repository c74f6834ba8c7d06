"""Tree decompositions: validation, exact and heuristic treewidth, the
two bag-lifting constructions, and a vertex-cover DP."""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .embedding import map_graph, radial_graph
from .errors import (ConstructionError, FormatError, SizeLimitError,
                     _int_token, _raises_format_error)
from .graph import _bfs_parents, _power_with_balls

TREEWIDTH_EXACT_LIMIT = 20  # documented desk-scale limit


@dataclass(frozen=True)
class Violation:
    """First failed condition of a certificate plus a witness: "tree",
    "T1", "T2" or "T3" for a tree decomposition, "coverage",
    "disjoint", "connected" or "witness" for a minor model."""

    condition: str
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
    """Tree decomposition from an elimination ordering: one bag per
    maximal clique of the fill graph."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    adj = g.adjacency_masks()  # live neighbors of each live vertex
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    # node i holds order[i] and its later neighbors, a clique of the fill
    # graph, and is joined to the node of the first of them to be
    # eliminated (the last node of a component to the next node).  A bag
    # that is not a maximal clique lies in a child's, so merging leaves one
    # bag per maximal clique
    bags = []
    edges = []
    for i, v in enumerate(order):
        nb = adj[v]
        gone = 1 << v
        bag = [v]
        m = nb
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            adj[u] = (adj[u] | nb) ^ (low | gone)
            bag.append(u)
        bags.append(bag)
        if nb:
            edges.append((i, min(map(pos.__getitem__, bag[1:]))))
        elif i + 1 < g.n:
            edges.append((i, i + 1))
    return _merge_contained(bags or [()], edges)


def treewidth_exact(g):
    """Minimum width and an optimal decomposition (n <= 20)."""
    if g.n > TREEWIDTH_EXACT_LIMIT:
        raise SizeLimitError(
            f"treewidth_exact limited to {TREEWIDTH_EXACT_LIMIT} vertices, "
            f"got {g.n}")
    width, order = _kernels.treewidth_order(g.n, g.adjacency_masks())
    return width, _from_kernel_order(g, width, order, "treewidth_exact")


def treewidth_upper(g):
    """Valid decomposition via greedy min-fill; width >= tw(g)."""
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


def _merge_contained(bags, tree_edges):
    """The decomposition with these bags and tree edges after merging
    each bag that a tree neighbour's bag contains into that neighbour,
    until no such pair is left.  The surviving bags are input bags, so
    the width does not change; surviving nodes keep their order."""
    bags = [frozenset(b) for b in bags]
    nb = [set() for _ in bags]
    for a, b in tree_edges:
        nb[a].add(b)
        nb[b].add(a)
    alive = [True] * len(bags)
    pending = list(tree_edges)
    while pending:
        a, b = pending.pop()
        if b not in nb[a]:
            continue  # one end was merged away
        if bags[a] <= bags[b]:
            small, big = a, b
        elif bags[b] <= bags[a]:
            small, big = b, a
        else:
            continue
        # the neighbours of `small` move to `big`; their pairs with `big`
        # are new, so they are tested in turn
        nb[big].discard(small)
        for c in nb[small] - {big}:
            nb[c].discard(small)
            nb[c].add(big)
            nb[big].add(c)
            pending.append((c, big))
        nb[small] = set()
        alive[small] = False
    keep = [i for i, live in enumerate(alive) if live]
    node = dict(zip(keep, range(len(keep))))
    return TreeDecomposition([bags[i] for i in keep],
                             [(node[a], node[b]) for a in keep for b in nb[a]
                              if a < b])


def _require_valid(td, g, what):
    violation = td.validate(g)
    if violation is not None:
        raise ValueError(f"invalid input decomposition of {what}: {violation}")


def lift_radial_to_map(td_r, e, fl):
    """Turn a decomposition of the radial graph into one of the map graph
    by replacing each embedded-graph vertex with its incident nations."""
    r_graph, _ = radial_graph(e, fl)
    _require_valid(td_r, r_graph, "radial graph")
    m_graph = map_graph(e, fl)
    # radial vertex -> the nations it stands for: a vertex v < n its
    # incident nations, and n + i nation i
    replace = e.incident_nations(fl) + [{i} for i in range(len(fl.nations))]
    bags = [set().union(*map(replace.__getitem__, bag)) for bag in td_r.bags]
    # bag for bag, not merged: the merged lift of a complete map graph (a
    # wheel's) is one bag with no tree edge, which the tamper check of
    # gridbench/workloads.py cannot corrupt (ROADMAP.md, item 1b, the
    # `_tamper_td` mend)
    return _checked(TreeDecomposition(bags, td_r.tree_edges), m_graph,
                    "lift_radial_to_map")


def lift_power(td, g, k):
    """Turn a decomposition of g into one of g^k by replacing each vertex
    occurrence with its whole radius-k neighborhood."""
    _require_valid(td, g, "base graph")
    # every vertex lies in some bag (T1), so each ball is needed
    gk, balls = _power_with_balls(g, k)
    bags = [set().union(*map(balls.__getitem__, bag)) for bag in td.bags]
    return _checked(_merge_contained(bags, td.tree_edges), gk,
                    "lift_power")


def vertex_cover_dp(g, td):
    """Exact minimum vertex cover by DP over the decomposition bags.

    Returns (size, cover_set).  Time 2^O(width) per node.
    """
    _require_valid(td, g, "carrier graph")
    if g.n == 0:
        return 0, set()
    nb = td.node_neighbors()
    root = 0
    parent = _bfs_parents(nb, root)
    order = list(parent)

    # every selection is a mask over the vertex ids of g
    adj = g.adjacency_masks()
    bag_mask = [sum(1 << v for v in bag) for bag in td.bags]
    # non-root node -> the mask of the vertices it shares with its
    # parent, and for each selection of them the first entry of least
    # size in its table that makes it (Cygan et al., Parameterized
    # Algorithms, 2015, 7.3)
    join = [None] * len(td.bags)

    for x in reversed(order):
        # the bag's independent sets in increasing order (each round adds
        # masks above all earlier ones); their complements, taken in
        # reverse, are the bag's covers in increasing order
        free = [0]
        for v in sorted(td.bags[x]):
            free += [s | 1 << v for s in free if not s & adj[v]]
        joins = [join[c] for c in nb[x] if c != parent[x]]
        table = {}  # cover mask -> best size
        for s in reversed(free):
            mask = bag_mask[x] ^ s
            total = mask.bit_count()
            for shared, best in joins:
                key = mask & shared
                found = best.get(key)
                if found is None:
                    break
                # the shared vertices it selects are counted in `mask`
                total += found[0] - key.bit_count()
            else:
                table[mask] = total
        if x != root:
            shared = bag_mask[x] & bag_mask[parent[x]]
            best = {}
            for mask, total in table.items():
                key = mask & shared
                if key not in best or total < best[key][0]:
                    best[key] = (total, mask)
            join[x] = shared, best

    # the root comes last, so `table` is its table
    chosen = {root: min(table, key=table.get)}
    size = table[chosen[root]]
    cover_mask = chosen[root]
    for x in order[1:]:
        shared, best = join[x]
        chosen[x] = best[chosen[parent[x]] & shared][1]
        cover_mask |= chosen[x]
    cover = {v for v in range(g.n) if cover_mask >> v & 1}
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

