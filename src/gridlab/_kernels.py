"""Exact treewidth kernel in pure Python.

Branch and bound over elimination orderings with subset memoization,
seeded by a min-fill upper bound and pruned by a degeneracy lower bound.
Graphs are given as neighbor bitmasks.
"""

from __future__ import annotations

IMPLEMENTATION = "pure"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def q_set(masks, eliminated, v):
    """Vertices outside `eliminated` (and != v) reachable from v through
    eliminated vertices: v's neighborhood in the fill graph after
    eliminating `eliminated`."""
    reach = 1 << v
    while True:
        nb = 0
        for u in _bits(reach):
            nb |= masks[u]
        new = reach | (nb & eliminated)
        if new == reach:
            return nb & ~eliminated & ~(1 << v)
        reach = new


def min_fill_order(n, masks):
    """Greedy min-fill elimination: (width, order).  Ties to smaller id."""
    adj = [masks[v] for v in range(n)]
    alive = (1 << n) - 1
    order = []
    width = 0
    while alive:
        best_v, best_fill = -1, None
        for v in _bits(alive):
            nb = adj[v] & alive
            fill = 0
            for u in _bits(nb):
                fill += bin(nb & ~adj[u] & ~(1 << u)).count("1")
            fill //= 2
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nb = adj[best_v] & alive
        width = max(width, bin(nb).count("1"))
        for u in _bits(nb):
            adj[u] |= nb & ~(1 << u)
        alive &= ~(1 << best_v)
        order.append(best_v)
    return width, order


def degeneracy(n, masks):
    """Max over the min-degree elimination of the removed degree; a
    treewidth lower bound."""
    adj = list(masks)
    alive = (1 << n) - 1
    best = 0
    while alive:
        v = min(_bits(alive), key=lambda u: bin(adj[u] & alive).count("1"))
        best = max(best, bin(adj[v] & alive).count("1"))
        alive &= ~(1 << v)
    return best


def treewidth_order(n, masks):
    """Exact treewidth and an optimal elimination order."""
    if n == 0:
        return -1, []
    full = (1 << n) - 1
    ub, ub_order = min_fill_order(n, masks)
    lb = degeneracy(n, masks)
    if lb >= ub:
        return ub, ub_order
    best = [ub, list(ub_order)]
    memo = {}

    def search(eliminated, cost, order):
        if cost >= best[0]:
            return
        if eliminated == full:
            best[0] = cost
            best[1] = list(order)
            return
        seen = memo.get(eliminated)
        if seen is not None and seen <= cost:
            return
        memo[eliminated] = cost

        cand = []
        for v in _bits(full & ~eliminated):
            q = q_set(masks, eliminated, v)
            qn = bin(q).count("1")
            if max(cost, qn) >= best[0]:
                continue
            # simplicial vertex: eliminating it first is always optimal
            simplicial = True
            for u in _bits(q):
                if q & ~(1 << u) & ~q_set(masks, eliminated, u):
                    simplicial = False
                    break
            if simplicial:
                order.append(v)
                search(eliminated | (1 << v), max(cost, qn), order)
                order.pop()
                return
            cand.append((qn, v))
        cand.sort()
        for qn, v in cand:
            if max(cost, qn) >= best[0]:
                break
            order.append(v)
            search(eliminated | (1 << v), max(cost, qn), order)
            order.pop()

    search(0, lb, [])
    return best[0], best[1]
