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


def power_max_degree(g, k):
    """Max degree of G^k straight from the distance matrix."""
    dist = all_pairs_distances(g)
    return max(sum(1 for v in range(g.n)
                   if v != u and dist[u][v] is not None and dist[u][v] <= k)
               for u in range(g.n))


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
