"""Exact treewidth kernel in pure Python.

Graphs are given as neighbor bitmasks.  `treewidth_order` brackets the
treewidth at the root and, while the root is open, asks one decision
search for ever narrower orders:

- upper bound: the greedy min-fill order (`min_fill_order`);
- lower bound: one minor-min-width run (`minor_min_width`, Bodlaender
  & Koster, "Contraction and treewidth lower bounds", JGAA 2006); if
  it meets the upper bound, the min-fill order is returned unsearched.
  It is at least the degeneracy d: the d-core stays a subgraph of the
  current minor until one of its vertices is the minimum-degree vertex,
  which then has degree at least d;
- descending decisions: `_width_at_most` asks for an order of width at
  most k = ub - 1, then at one below the width of each order it finds,
  until it says no or the width reaches the lower bound; with no order
  found, the min-fill order is optimal.  For any clique C some optimal
  order eliminates C last (Bodlaender, Fomin, Koster, Kratsch &
  Thilikos, "On exact algorithms for treewidth", ESA 2006), so it
  branches only on the vertices outside one maximum clique
  (`_max_clique`), on none of degree above k, and memoizes the
  eliminated sets that failed, in one memo for every level;
- the search carries the fill graph of the eliminated set and reduces
  without branching at simplicial and almost simplicial vertices
  (Gogate & Dechter, "A complete anytime algorithm for treewidth",
  UAI 2004; Bodlaender, Koster & van den Eijkhof, "Preprocessing rules
  for triangulation of probabilistic networks", Comput. Intell. 2005).
  The test (`_reducible`) is linear in the neighborhood q: one pass
  finds the vertices of q that miss a neighbor in q, and at most two
  of them can be the vertex whose removal leaves a clique.

The search is exponential; `decomposition.treewidth_exact` refuses
graphs with more than `TREEWIDTH_EXACT_LIMIT` (20) vertices.  Each call
logs one debug record with its search statistics on the
`gridlab.kernels` logger: the root bounds `lb` and `ub`, whether they
met (`root_closed`), whether the first decision proved the min-fill
width optimal (`refuted`), the `width`, `nodes`, the nodes expanded at
every level, and `memo`, the failed sets.
"""

from __future__ import annotations

import logging

IMPLEMENTATION = "pure"

log = logging.getLogger("gridlab.kernels")


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fill(adj, v):
    """Number of non-adjacent pairs among the neighbors of v."""
    nb = adj[v]
    missing = 0
    m = nb
    while m:
        low = m & -m
        missing += (nb & ~adj[low.bit_length() - 1]).bit_count() - 1
        m ^= low
    return missing // 2


def min_fill_order(n, masks):
    """Greedy min-fill elimination: (width, order).  Ties to smaller id.
    The width is -1 on the empty graph.

    Incremental (Bodlaender & Koster, "Treewidth computations I. Upper
    bounds", Inf. Comput. 2010): only the initial fills are counted from
    scratch.  `bucket[f]` is the mask of the live vertices whose fill is
    f; the next vertex is the least bit of the least non-empty bucket,
    and the list grows when a fill rises above every earlier one.
    Eliminating v, with neighborhood N and f_v fill edges, makes N a
    clique and changes each fill by its exact delta:

    - a vertex u of N loses the pairs (v, x) for its neighbors x outside
      N[v].  If u gains no edge, each fill edge joins two of its
      neighbors, so its fill drops by f_v more;
    - each fill edge (y, z) lowers by one the fill of every vertex
      adjacent to both ends, found with one AND, apart from v and the
      vertices of the first case;
    - each end y of a fill edge (y, z) rises by its neighbors outside
      N[v] that miss z.

    When f_v = 0 (v is simplicial) no vertex of N gains an edge and only
    the first rule applies, so the step skips the scan for them.  A step
    costs O(d + the sum over fill edges of their common neighbors) bit
    operations.  The fills stay exact, so ties and the order match a
    full rescan.
    """
    # adj holds the live neighbors of each live vertex
    adj = list(masks)
    fill = [_fill(adj, v) for v in range(n)]
    bucket = [0] * (max(fill, default=0) + 1)
    for v, f in enumerate(fill):
        bucket[f] |= 1 << v
    lo = 0  # no bucket below lo is non-empty
    # delta[x]: the change of x's fill from the fill edges of this step
    delta = [0] * n
    order = []
    width = -1
    for _ in range(n):
        while not bucket[lo]:
            lo += 1
        f = lo
        vbit = bucket[f] & -bucket[f]
        bucket[f] ^= vbit
        v = vbit.bit_length() - 1
        order.append(v)
        nb = adj[v]
        width = max(width, nb.bit_count())
        grown = 0  # the vertices of N that gain an edge
        m = nb if f else 0
        while m:
            low = m & -m
            m ^= low
            if nb & ~adj[low.bit_length() - 1] & ~low:
                grown |= low
        # v and the vertices of N that gain no edge are adjacent to both
        # ends of every fill edge; the first rule counts them
        keep = ~(vbit | nb ^ grown)
        outside = 0  # the vertices outside N[v] that lose fill
        m = grown
        while m:
            ybit = m & -m
            y = ybit.bit_length() - 1
            m ^= ybit
            a = adj[y]
            k = nb & ~a & -(ybit << 1)  # the fill edges (y, z), z > y
            while k:
                zbit = k & -k
                z = zbit.bit_length() - 1
                k ^= zbit
                b = adj[z]
                # y gains the pairs of z with y's neighbors outside N[v]
                # that miss z, and z likewise
                x = (a ^ b) & ~nb
                delta[y] += (x & a).bit_count()
                delta[z] += (x & b).bit_count()
                c = a & b & keep
                outside |= c
                while c:
                    low = c & -c
                    delta[low.bit_length() - 1] -= 1
                    c ^= low
        m = nb
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            # u loses the pairs (v, x), x a neighbor of u outside N[v]
            if grown & low:
                a = (adj[u] | nb) & ~(low | vbit)
                d = delta[u] - (a & ~nb).bit_count()
                delta[u] = 0
            else:
                # u already holds the rest of N
                a = adj[u] ^ vbit
                d = -(a & ~nb).bit_count() - f
            adj[u] = a
            if d:
                g = fill[u]
                bucket[g] ^= low
                fill[u] = g = g + d
                if g >= len(bucket):
                    bucket += [0] * (g + 1 - len(bucket))
                bucket[g] |= low
                if g < lo:
                    lo = g
        m = outside & ~nb
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            g = fill[x]
            bucket[g] ^= low
            fill[x] = g = g + delta[x]
            delta[x] = 0
            bucket[g] |= low
            if g < lo:
                lo = g
    return width, order


def degeneracy(n, masks):
    """Max over the min-degree elimination of the removed degree; a
    treewidth lower bound, never above `minor_min_width`."""
    adj = list(masks)
    alive = (1 << n) - 1
    best = 0
    while alive:
        v = min(_bits(alive), key=lambda u: (adj[u] & alive).bit_count())
        best = max(best, (adj[v] & alive).bit_count())
        alive &= ~(1 << v)
    return best


def minor_min_width(n, masks):
    """Minor-min-width, a treewidth lower bound: the max over a sequence
    of minors of their minimum degree.  Each step takes a minimum-degree
    vertex and contracts it into the neighbor with the fewest common
    neighbors.  Both choices scan in increasing id with a strict <, so
    ties go to the smaller id."""
    adj = list(masks)
    alive = (1 << n) - 1
    best = 0
    while alive:
        vbit = alive & -alive
        nb = adj[vbit.bit_length() - 1]
        d = nb.bit_count()
        m = alive ^ vbit
        while m and d:
            low = m & -m
            m ^= low
            a = adj[low.bit_length() - 1]
            if a.bit_count() < d:
                vbit, nb, d = low, a, a.bit_count()
        best = max(best, d)
        alive ^= vbit
        if not nb:
            continue
        # drop v from its neighbors; that lowers every degree in nb by
        # one and no count of common neighbors inside nb
        ubit = 0
        least = n
        m = nb
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            a = adj[w] ^ vbit
            adj[w] = a
            k = (a & nb).bit_count()
            if k < least:
                ubit, least = low, k
        rest = nb ^ ubit
        m = rest
        while m:
            low = m & -m
            m ^= low
            adj[low.bit_length() - 1] |= ubit
        adj[ubit.bit_length() - 1] |= rest
    return best


def _eliminate(adj, v):
    """The fill graph after eliminating v: its neighbors become a clique."""
    q = adj[v]
    child = list(adj)
    child[v] = 0
    keep = ~(1 << v)
    for w in _bits(q):
        child[w] = (adj[w] | q) & keep & ~(1 << w)
    return child


def _reducible(adj, q, cost):
    """Whether a vertex with neighborhood q is eliminated without
    branching at width `cost` so far: q is a clique (simplicial), or
    |q| <= cost and q minus one vertex u is a clique (almost
    simplicial).  One pass collects `bad`, the vertices of q that miss
    a neighbor in q; q minus u is a clique iff `bad` minus u is one.  A
    vertex outside `bad` is adjacent to all of q, so u lies in `bad`,
    and every other vertex of `bad` misses exactly u.  So u is `first`,
    the least vertex of `bad`, or the single vertex that `first`
    misses: at most two candidates."""
    bad = 0
    m = q
    while m:
        low = m & -m
        m ^= low
        if q & ~adj[low.bit_length() - 1] & ~low:
            bad |= low
    if not bad:
        return True
    if q.bit_count() > cost:
        return False
    first = bad & -bad
    missed = q & ~adj[first.bit_length() - 1] & ~first
    for u in (first, missed) if not missed & (missed - 1) else (first,):
        s = bad & ~u
        m = s
        while m:
            low = m & -m
            m ^= low
            if s & ~adj[low.bit_length() - 1] & ~low:
                break
        else:
            return True
    return False


def _candidates(adj, live, k):
    """The vertices of `live` to branch on, as sorted (degree, vertex)
    pairs: those of degree at most k, or only the first of them that
    `_reducible` eliminates without branching at width k.

    Eliminating v first is optimal when q is a clique (simplicial v),
    and also when q minus one vertex u is a clique and |q| <= k (almost
    simplicial v): the fill graph after eliminating v is then G
    contracted along vu, a minor of G of treewidth at most tw(G), so
    some order of width at most k eliminates v first if any order
    does."""
    cand = []
    for v in _bits(live):
        q = adj[v]
        qn = q.bit_count()
        if qn > k:
            continue
        if _reducible(adj, q, k):
            return [(qn, v)]
        cand.append((qn, v))
    cand.sort()
    return cand


def _max_clique(n, masks):
    """A maximum clique as a vertex mask: a branch and bound that grows
    cliques in increasing vertex id and stops a branch once the clique
    and all its common neighbors left cannot beat the best found."""
    best = best_size = 0

    def grow(clique, size, cand):
        nonlocal best, best_size
        while cand:
            if size + cand.bit_count() <= best_size:
                return
            low = cand & -cand
            cand ^= low
            grow(clique | low, size + 1,
                 cand & masks[low.bit_length() - 1])
        if size > best_size:
            best, best_size = clique, size

    grow(0, 0, (1 << n) - 1)
    return best


def _width_at_most(n, masks, k, clique, failed):
    """(width, order) of an elimination order of width at most k, or
    None if there is none.  The order is the vertices branched on, then
    the k + 1 or fewer vertices left in increasing id, and the width
    is that of the order.

    Some order of width tw(G) eliminates a given clique C last
    (Bodlaender, Fomin, Koster, Kratsch & Thilikos, ESA 2006); C stays
    a clique in every fill graph, so the search branches only on the
    vertices outside `clique`, a maximum clique as a vertex mask, and
    never on one of degree above k, which no order of width k can
    eliminate next.  A reducible vertex of degree at most k is
    eliminated without branching: its fill graph is a minor of the
    current one.  The fill graph depends only on the eliminated set,
    so a set that fails at k fails at every smaller k: the search skips
    the sets in `failed`, and adds those it fails on."""
    if clique.bit_count() > k + 1:
        return None
    full = (1 << n) - 1
    outside = full & ~clique
    order = []

    def fits(eliminated, adj, cost):
        # cost is the largest degree branched on so far.  Any order of
        # the k + 1 or fewer vertices left has width <= k; once only C
        # is left this holds, so an empty scan means no
        live = full & ~eliminated
        if live.bit_count() <= k + 1:
            tail = list(_bits(live))
            for v in tail:
                cost = max(cost, adj[v].bit_count())
                adj = _eliminate(adj, v)
            return cost, order + tail
        for qn, v in _candidates(adj, outside & ~eliminated, k):
            child = eliminated | (1 << v)
            if child not in failed:
                order.append(v)
                found = fits(child, _eliminate(adj, v), max(cost, qn))
                if found:
                    return found
                order.pop()
        failed.add(eliminated)
        return None

    return fits(0, list(masks), -1)


def treewidth_order(n, masks):
    """Exact treewidth and an optimal elimination order."""
    # n = 0 takes no branch of its own: min-fill gives (-1, []) and
    # minor-min-width 0 >= -1, so the root closes and (-1, []) comes back
    ub, order = min_fill_order(n, masks)
    lb = minor_min_width(n, masks)
    width = ub
    failed = set()
    nodes = 0
    if lb < ub:
        clique = _max_clique(n, masks)
        # each order found is narrower than the last, and a no or lb
        # proves the last optimal.  Besides the sets it adds to
        # `failed`, a yes at k expands the n - k - 1 sets along its
        # order, from n vertices left down to k + 2
        k = ub - 1
        while k >= lb and (found := _width_at_most(n, masks, k, clique,
                                                   failed)):
            width, order = found
            nodes += n - k - 1
            k = width - 1
    # a single dict argument becomes the record's `args`
    log.debug("treewidth_order n=%(n)d lb=%(lb)d ub=%(ub)d "
              "root_closed=%(root_closed)s refuted=%(refuted)s "
              "width=%(width)d nodes=%(nodes)d memo=%(memo)d",
              {"n": n, "lb": lb, "ub": ub,
               "root_closed": lb >= ub, "refuted": lb < ub == width,
               "width": width, "nodes": nodes + len(failed),
               "memo": len(failed)})
    return width, order
