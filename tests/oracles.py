"""Independent brute-force oracles used to pin down expected values.

Deliberately naive: these share no code with the package internals.
"""

import itertools


def all_pairs_distances(g):
    """Floyd-Warshall; None marks unreachable pairs."""
    inf = float("inf")
    dist = [[inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for m in range(g.n):
        for u in range(g.n):
            for v in range(g.n):
                if dist[u][m] + dist[m][v] < dist[u][v]:
                    dist[u][v] = dist[u][m] + dist[m][v]
    return [[None if d == inf else int(d) for d in row] for row in dist]


def treewidth_brute(g):
    """Minimum over elimination orderings of the largest fill degree,
    by plain recursion (best-so-far cutoff only, no memoization)."""
    if g.n == 0:
        return -1
    best = [g.n]

    def rec(adj, alive, cur):
        if cur >= best[0]:
            return
        if not alive:
            best[0] = cur
            return
        for v in sorted(alive):
            nb = adj[v] & alive
            w = max(cur, len(nb))
            if w >= best[0]:
                continue
            nxt = list(adj)
            for u in nb:
                nxt[u] = (nxt[u] | nb) - {u, v}
            rec(nxt, alive - {v}, w)

    rec([frozenset(a) for a in g.adj], frozenset(range(g.n)), 0)
    return best[0]


def vertex_cover_brute(g):
    """Smallest vertex cover by subset enumeration (n <= 14ish)."""
    verts = range(g.n)
    for size in range(g.n + 1):
        for combo in itertools.combinations(verts, size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return size, chosen
    raise AssertionError("unreachable")


def _power_degrees(g, k):
    """Degree of each vertex of G^k straight from the distance matrix."""
    dist = all_pairs_distances(g)
    return [sum(1 for v in range(g.n)
                if v != u and dist[u][v] is not None and dist[u][v] <= k)
            for u in range(g.n)]


def power_max_degree(g, k):
    """Max degree of G^k straight from the distance matrix."""
    return max(_power_degrees(g, k))


def first_power_degree_at_least(g, k, bound):
    """Least vertex with at least `bound` neighbors in G^k, or None."""
    return next((u for u, d in enumerate(_power_degrees(g, k))
                 if d >= bound), None)


def first_far_pair(vertices, bound, g):
    """The pair a clique witness must report: the least vertex outside
    g with the least other witness vertex (itself when alone), else the
    least pair farther apart than `bound`; None when there is neither."""
    verts = sorted(vertices)
    outside = [x for x in verts if not 0 <= x < g.n]
    if outside:
        x = outside[0]
        y = min((v for v in verts if v != x), default=x)
        return (min(x, y), max(x, y))
    dist = all_pairs_distances(g)
    far = [(u, v) for u, v in itertools.combinations(verts, 2)
           if dist[u][v] is None or dist[u][v] > bound]
    return min(far, default=None)


def is_canonical_per_vertex(e, fl):
    """The three canonical-map properties checked one vertex at a time,
    with each vertex's darts and the faces found by scanning all darts."""
    d_count = len(e.twin)
    walks = []
    seen = set()
    for start in range(d_count):
        if start not in seen:
            walk = []
            cur = start
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                cur = e.nxt[e.twin[cur]]
            walks.append(walk)
    # faces are numbered by their smallest dart, as in EmbeddedGraph.faces
    walks.sort(key=min)
    face_of = {d: f for f, walk in enumerate(walks) for d in walk}
    if set(fl.nations) | fl.lakes != set(range(len(walks))):
        raise ValueError("nations and lakes do not cover all faces")
    on_lake = [face_of[d] in fl.lakes for d in range(d_count)]
    if any(on_lake[d] and on_lake[e.twin[d]] for d in range(d_count)):
        return False  # lake-lake edge
    for v in range(e.num_vertices):
        darts = [d for d in range(d_count) if e.vertex_of[d] == v]
        lake_corners = sum(on_lake[d] for d in darts)
        if lake_corners > 1:
            return False  # vertex touching lakes twice
        if darts and lake_corners == len(darts):
            return False  # lake-only vertex
    return True


def min_fill_rescan(n, masks):
    """Greedy min-fill elimination that recomputes the fill of every live
    vertex at every step: (width, order), ties to the smaller id."""
    def bits(mask):
        return [i for i in range(n) if mask >> i & 1]

    adj = list(masks)
    alive = (1 << n) - 1
    order = []
    width = 0
    while alive:
        best_v, best_fill = -1, None
        for v in bits(alive):
            nb = adj[v] & alive
            fill = 0
            for u in bits(nb):
                fill += bin(nb & ~adj[u] & ~(1 << u)).count("1")
            fill //= 2
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nb = adj[best_v] & alive
        width = max(width, bin(nb).count("1"))
        for u in bits(nb):
            adj[u] |= nb & ~(1 << u)
        alive &= ~(1 << best_v)
        order.append(best_v)
    return width, order


def first_decomposition_violation(bags, tree_edges, g):
    """(condition, witness) of the first failed tree-decomposition
    condition of `bags` joined by `tree_edges` over g, or None.

    Checked from the definitions in the order tree shape (witness None),
    T1 (the least vertex of g in no bag, else the least bag vertex not
    in g), T2 (the least edge in no bag) and T3 (the least vertex whose
    bags do not induce a connected subtree).
    """
    b = len(bags)
    # a tree: b - 1 distinct edges joining all b nodes (union-find)
    root = list(range(b))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for x, y in tree_edges:
        root[find(x)] = find(y)
    if (len(set(tree_edges)) != len(tree_edges)
            or len(tree_edges) != max(b - 1, 0)
            or len({find(x) for x in range(b)}) > 1):
        return "tree", None
    covered = set().union(*bags)
    for v in range(g.n):
        if v not in covered:
            return "T1", v
    outside = sorted(v for v in covered if not 0 <= v < g.n)
    if outside:
        return "T1", outside[0]
    for u, v in sorted(g.edges):
        if not any(u in bag and v in bag for bag in bags):
            return "T2", (u, v)
    # T3 as running intersection: every node on the tree path between two
    # bags holding v holds v
    nbrs = {x: set() for x in range(b)}
    for x, y in tree_edges:
        nbrs[x].add(y)
        nbrs[y].add(x)

    # the tree rooted at node 0: the parent and depth of every node
    parent = {0: None} if b else {}
    depth = {0: 0}
    stack = list(parent)
    while stack:
        z = stack.pop()
        for w in nbrs[z]:
            if w not in parent:
                parent[w], depth[w] = z, depth[z] + 1
                stack.append(w)

    def path(x, y):
        # the nodes met while climbing from the deeper end until both
        # ends meet
        walk = [x, y]
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            x = parent[x]
            walk.append(x)
        return walk

    for v in range(g.n):
        nodes = [i for i, bag in enumerate(bags) if v in bag]
        if any(v not in bags[z] for x, y in itertools.combinations(nodes, 2)
               for z in path(x, y)):
            return "T3", v
    return None


def _connected_within(vertices, edges):
    """Whether `vertices` induce a connected graph over `edges`, by a
    stack walk over the induced edges."""
    vertices = set(vertices)
    nbrs = {v: [] for v in vertices}
    for u, v in edges:
        if u in vertices and v in vertices:
            nbrs[u].append(v)
            nbrs[v].append(u)
    if not vertices:
        return True
    start = min(vertices)
    seen = {start}
    stack = [start]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def is_two_connected_by_deletion(g):
    """At least three vertices, connected, and still connected after
    deleting any one vertex."""
    edges = set(g.edges)
    everything = set(range(g.n))
    return (g.n >= 3 and _connected_within(everything, edges)
            and all(_connected_within(everything - {v}, edges)
                    for v in range(g.n)))


def first_model_violation(m):
    """(kind, witness) of the first failed minor-model condition of m,
    or None, checked from the definition in the order of verify_model:
    keys (the least branch-set key that is no pattern vertex, kind
    "coverage"; then the least witness key that is no pattern edge,
    kind "witness"), then per pattern vertex in increasing order its
    coverage (a nonempty branch set inside the host) and connectivity,
    then disjointness (the least overlapping pair), then per pattern
    edge in increasing order its witness (present, a host edge, joining
    the two branch sets)."""
    h, g = m.pattern, m.host
    bad_keys = sorted(v for v in m.branch_sets if v not in range(h.n))
    if bad_keys:
        return "coverage", bad_keys[0]
    bad_edges = sorted(k for k in m.edge_witness if k not in h.edges)
    if bad_edges:
        return "witness", bad_edges[0]
    for v in range(h.n):
        s = m.branch_sets.get(v, set())
        if not s or any(x not in range(g.n) for x in s):
            return "coverage", v
        inside = [(a, b) for a, b in itertools.combinations(sorted(s), 2)
                  if (a, b) in g.edges]
        if not _connected_within(s, inside):
            return "connected", v
    for u, v in itertools.combinations(range(h.n), 2):
        if m.branch_sets[u] & m.branch_sets[v]:
            return "disjoint", (u, v)
    for u, v in sorted(h.edges):
        if (u, v) not in m.edge_witness:
            return "witness", (u, v)
        a, b = m.edge_witness[(u, v)]
        if (min(a, b), max(a, b)) not in g.edges:
            return "witness", (u, v)
        bu, bv = m.branch_sets[u], m.branch_sets[v]
        if not ((a in bu and b in bv) or (a in bv and b in bu)):
            return "witness", (u, v)
    return None


def replay_by_definition(host, ops):
    """(vertices, edges, labels) after applying ops to the host's
    explicit vertex and edge sets one at a time: contract(u, v)
    relabels v as u and drops the loops, delete_edge removes one edge,
    delete_vertex removes a vertex with its edges.  labels[v] holds the
    host vertices merged into v.  Raises LookupError where an op names
    a missing vertex or edge."""
    vertices = set(range(host.n))
    edges = set(host.edges)
    labels = {v: {v} for v in vertices}
    for kind, *ids in ops:
        if any(x not in vertices for x in ids):
            raise LookupError(f"{kind} {ids}: missing vertex")
        if kind == "delete_vertex":
            (v,) = ids
            vertices.remove(v)
            del labels[v]
            edges = {(a, b) for a, b in edges if v not in (a, b)}
            continue
        u, v = ids
        if (min(u, v), max(u, v)) not in edges:
            raise LookupError(f"{kind} {ids}: edge not present")
        if kind == "delete_edge":
            edges.remove((min(u, v), max(u, v)))
            continue
        vertices.remove(v)
        labels[u] |= labels.pop(v)
        relabelled = {(u if a == v else a, u if b == v else b)
                      for a, b in edges}
        edges = {(min(a, b), max(a, b)) for a, b in relabelled if a != b}
    return vertices, edges, labels


def half_square(g, left):
    """(edges, old_ids) of the half-square of g on the vertex set `left`:
    two vertices of `left` are adjacent when their distance in g is
    exactly 2.  Vertex i of the result is old_ids[i] in g."""
    dist = all_pairs_distances(g)
    old_ids = sorted(left)
    edges = {(i, j) for i, j in itertools.combinations(range(len(old_ids)), 2)
             if dist[old_ids[i]][old_ids[j]] == 2}
    return edges, old_ids


def contraction_ops(m):
    """Operations turning m.host into m.pattern for a valid minor model
    m: delete the vertices in no branch set, contract each branch set
    into its least member along a breadth-first tree from that member
    (neighbours in increasing id, leaves first), then delete the edges
    left over between branch sets joined by no pattern edge."""
    g = m.host
    nbrs = {v: set() for v in range(g.n)}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    used = set().union(*m.branch_sets.values())
    ops = [("delete_vertex", v) for v in sorted(set(range(g.n)) - used)]
    for v in sorted(m.branch_sets):
        s = m.branch_sets[v]
        root = min(s)
        parent = {root: None}
        order = [root]
        for u in order:
            for w in sorted(nbrs[u] & s):
                if w not in parent:
                    parent[w] = u
                    order.append(w)
        ops += [("contract", parent[x], x) for x in reversed(order[1:])]
    _, edges, _ = replay_by_definition(g, ops)
    kept = {tuple(sorted((min(m.branch_sets[u]), min(m.branch_sets[v]))))
            for u, v in m.pattern.edges}
    return ops + [("delete_edge", u, v) for u, v in sorted(edges - kept)]
