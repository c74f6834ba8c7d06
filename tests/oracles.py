"""Independent brute-force oracles used to pin down expected values.

Deliberately naive: these share no code with the package internals,
except `double_radial_host`, which keeps the construction of R(R(G))
as a second embedding for reference, and
`stacked_triangulation_by_insertion`, which builds and checks a whole
`EmbeddedGraph` after every inserted vertex.
"""

import itertools
import random

from gridlab.embedding import EmbeddedGraph, radial_embedding


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


def vertex_cover_by_bag_masks(g, td):
    """(size, cover) of the vertex cover DP over a valid decomposition,
    with every bag numbered locally: bit i of a bag's mask is its i-th
    smallest vertex, and a child's entry is translated into its
    parent's numbering bit by bit.  Nodes are taken from node 0 in
    breadth-first order, neighbors by increasing id, and ties go to the
    first entry of least size."""
    if g.n == 0:
        return 0, set()
    nb = td.node_neighbors()
    parent = {0: None}
    order = [0]
    for x in order:
        for y in sorted(nb[x]):
            if y not in parent:
                parent[y] = x
                order.append(y)
    bag_lists = [sorted(bag) for bag in td.bags]
    children = [[y for y in nb[x] if y != parent[x]]
                for x in range(len(td.bags))]
    dp = [None] * len(td.bags)
    joins = [None] * len(td.bags)
    for x in reversed(order):
        verts = bag_lists[x]
        idx = {v: i for i, v in enumerate(verts)}
        local_nb = [sum(1 << idx[w] for w in g.adj[v] if w in idx)
                    for v in verts]
        joins[x] = []
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
            joins[x].append((sum(bit for _, bit in shared), best))
        # independent sets in increasing order; their complements,
        # taken in reverse, are the bag's covers in increasing order
        free = [0]
        for i, nb_mask in enumerate(local_nb):
            free += [s | 1 << i for s in free if not s & nb_mask]
        full = (1 << len(verts)) - 1
        table = {}
        for s in reversed(free):
            mask = full ^ s
            total = mask.bit_count()
            for shared_mask, best in joins[x]:
                key = mask & shared_mask
                if key not in best:
                    break
                total += best[key][0] - key.bit_count()
            else:
                table[mask] = total
        dp[x] = table
    best_mask = min(dp[0], key=lambda m: dp[0][m])
    cover = set()
    mask_of = {0: best_mask}
    for x in order:
        mask = mask_of[x]
        verts = bag_lists[x]
        cover |= {verts[i] for i in range(len(verts)) if mask >> i & 1}
        for c, (shared_mask, best) in zip(children[x], joins[x]):
            mask_of[c] = best[mask & shared_mask][1]
    return dp[0][best_mask], cover


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


def face_of_by_walks(e):
    """dart -> face id, the faces found by walking d -> nxt[twin[d]]
    from every dart and numbered by their smallest dart, as in
    EmbeddedGraph.faces."""
    walks = []
    seen = set()
    for start in range(len(e.twin)):
        if start not in seen:
            walk = []
            cur = start
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                cur = e.nxt[e.twin[cur]]
            walks.append(walk)
    walks.sort(key=min)
    return {d: f for f, walk in enumerate(walks) for d in walk}


def radial_and_dual_by_definition(e, fl):
    """(radial, dual) edge sets of the map (e, fl), each pair tested on
    its own against the faces found by `face_of_by_walks`: (v, i) is
    radial iff a dart at vertex v lies on the face of nation i, and
    (a, b) with a < b is dual iff the two sides of some dart hold the
    faces of nations a and b."""
    face_of = face_of_by_walks(e)
    darts = range(len(e.twin))
    nations = list(fl.nations)
    radial = {(v, i) for v in range(e.num_vertices)
              for i, f in enumerate(nations)
              if any(e.vertex_of[d] == v and face_of[d] == f for d in darts)}
    sides = {(face_of[d], face_of[e.twin[d]]) for d in darts}
    dual = {(a, b) for a, b in itertools.combinations(range(len(nations)), 2)
            if (nations[a], nations[b]) in sides}
    return radial, dual


def is_canonical_per_vertex(e, fl):
    """The three canonical-map properties checked one vertex at a time,
    with each vertex's darts and the faces found by scanning all darts."""
    d_count = len(e.twin)
    face_of = face_of_by_walks(e)
    if set(fl.nations) | fl.lakes != set(face_of.values()):
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


def _mask_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def minor_min_width_scan(n, masks, rule="min-d"):
    """Minor-min-width by `min` over generator scans: each step takes a
    minimum-degree vertex (ties to smaller id) and contracts it into the
    neighbor of least degree ("min-d") or with the fewest common
    neighbors ("least-c"), again ties to smaller id."""
    adj = list(masks)
    alive = (1 << n) - 1
    best = 0
    while alive:
        v = min(_mask_bits(alive), key=lambda u: adj[u].bit_count())
        nb = adj[v]
        best = max(best, nb.bit_count())
        alive &= ~(1 << v)
        if not nb:
            continue
        if rule == "min-d":
            u = min(_mask_bits(nb), key=lambda w: adj[w].bit_count())
        else:
            u = min(_mask_bits(nb), key=lambda w: (adj[w] & nb).bit_count())
        rest = nb & ~(1 << u)
        for w in _mask_bits(nb):
            adj[w] &= ~(1 << v)
        for w in _mask_bits(rest):
            adj[w] |= 1 << u
        adj[u] |= rest
    return best


def reducible_by_definition(adj, q, cost):
    """Whether q is a clique, or |q| <= cost and q minus some vertex u
    of q is a clique; adj holds symmetric neighbor masks."""
    def is_clique(s):
        verts = [v for v in range(len(adj)) if s >> v & 1]
        return all(adj[a] >> b & 1 for a, b in itertools.combinations(
            verts, 2))

    if is_clique(q):
        return True
    return q.bit_count() <= cost and any(
        is_clique(q & ~(1 << u)) for u in range(len(adj)) if q >> u & 1)


def elimination_bags(g, order):
    """(bags, tree_edges) of the decomposition with one bag per
    vertex: v with its neighbors in the fill graph of `order` that
    come after it, joined to the bag of the first of them (a component's
    last bag to the next bag in `order`)."""
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
    return bags or [frozenset()], edges


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


def is_three_connected_by_deletion(g):
    """More than three vertices, connected, and still connected after
    deleting any two vertices."""
    edges = set(g.edges)
    everything = set(range(g.n))
    return (g.n > 3 and _connected_within(everything, edges)
            and all(_connected_within(everything - set(pair), edges)
                    for pair in itertools.combinations(range(g.n), 2)))


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


def double_radial_host(e):
    """R(R(G)) as the simple graph of the radial embedding of the radial
    embedding of e."""
    return radial_embedding(radial_embedding(e)).simple_graph()


def stacked_triangulation_by_insertion(n, seed):
    """The seeded stacked triangulation of
    `generators.random_planar_triangulation`, rebuilt as a checked
    embedding after each vertex: the vertex goes into face
    `rng.randrange(len(e.faces))` of the current embedding, joined to
    the face's corners."""
    rng = random.Random(f"tri:{n}:{seed}")
    # the triangle 0-1-2, darts 2v and 2v+1 at vertex v
    e = EmbeddedGraph([3, 4, 5, 0, 1, 2], [1, 0, 3, 2, 5, 4],
                      [0, 0, 1, 1, 2, 2])
    for v in range(3, n):
        walk = e.faces[rng.randrange(len(e.faces))]
        base = len(e.twin)
        twin = list(e.twin)
        nxt = list(e.nxt)
        vertex_of = list(e.vertex_of)
        for i, d in enumerate(walk):
            corner = base + 2 * i    # dart at the corner vertex
            spoke = corner + 1       # dart at the new vertex
            twin += [spoke, corner]
            vertex_of += [e.vertex_of[d], v]
            # the corner dart goes just before d in its vertex's
            # rotation; around the new vertex the spokes turn against
            # the walk
            rot = e.rotations[e.vertex_of[d]]
            nxt[rot[rot.index(d) - 1]] = corner
            nxt += [d, base + 2 * ((i - 1) % 3) + 1]
        e = EmbeddedGraph(twin, nxt, vertex_of)
        if e.genus() != 0 or any(len(wk) != 3 for wk in e.faces):
            raise ValueError(f"inserting vertex {v} broke the "
                             f"triangulation")
    return e
