"""Pure-Python kernels: exact big-integer implementations.

`unit_pairs` mirrors the compiled `_kern_cy.unit_pairs` operation for
operation and iteration order for iteration order, so both backends return
identical pairs; the extension holds only that scan. The weak-cut kernels
exist only here. Python ints carry no magnitude limits, while the compiled
scan is only dispatched when an a-priori bound proves int64 safe.
"""

from __future__ import annotations

from typing import Optional


def unit_pairs(vals: list[list[int]], bounds: list[int]) -> list[tuple[int, int]]:
    """Indices (i, j), i < j, whose row difference has max |Δv_c|/d_c == 1.

    vals[i][c] is the c-th constraint functional at point i; bounds[c] = d_c.
    A pair qualifies iff |Δv_c| ≤ d_c for every c with equality for some c.
    """
    n = len(vals)
    m = len(bounds)
    out = []
    for i in range(n):
        vi = vals[i]
        for j in range(i + 1, n):
            vj = vals[j]
            tight = False
            ok = True
            for c in range(m):
                dv = vj[c] - vi[c]
                if dv < 0:
                    dv = -dv
                d = bounds[c]
                if dv > d:
                    ok = False
                    break
                if dv == d:
                    tight = True
            if ok and tight:
                out.append((i, j))
    return out


def min_weak_cut(adj: list[int], w: int, thr: list[int]):
    """Weak cut of minimum Δ over all 2^(w−1)−1 bipartitions, or None.

    adj[v] is the neighborhood bitmask of vertex v inside the w-vertex set;
    thr[s] is the largest Δ that still counts as weak for min-side size s
    (thr[s] < 0 means no Δ qualifies). Cuts are subsets A not containing
    vertex 0; ties keep the earliest mask.

    Vertices w−1 down to 1 are placed depth first, B before A, so complete
    cuts are reached in ascending mask order. A branch is cut off once some
    placed vertex has more neighbours across than min(bound[s], best Δ − 1),
    s the min side so far (at least 1): cross degrees only grow as vertices
    are placed, and the final min side is at least s, so no cut below that
    branch is weak and beats the best.

    Returns (mask_of_A, delta) or None.
    """
    # bound[s]: the largest Δ of a weak cut whose min side has at least s
    # vertices. A min side of s' vertices holds a vertex of degree ≥ dmin
    # with at most s' − 1 neighbours on its side, so such a cut has
    # Δ ≥ dmin − s' + 1 and is weak only if thr[s'] reaches that.
    dmin = min(m.bit_count() for m in adj)
    bound = [-1] * len(thr)
    top = -1
    for s in range(len(thr) - 1, 0, -1):
        if thr[s] >= dmin - s + 1 and thr[s] > top:
            top = thr[s]
        bound[s] = top
    if bound[1] < 0:
        return None
    best_mask, best_delta = 0, w  # every Δ is below w
    # A partial cut's cross degrees are kept as levels of w bits each in one
    # int: level k holds the placed vertices with at least k neighbours
    # across among the placed ones, so Δ is the index of the top level.
    # rep[k] has bit 0 of each of k levels set.
    rep = [0] * (w + 1)
    for k in range(1, w + 1):
        rep[k] = (rep[k - 1] << w) | 1

    def place(v, a, b, na, lev):
        # a, b: vertex 0 and v+1..w−1 by side, na = |a|; lev: their levels
        nonlocal best_mask, best_delta
        bit = 1 << v
        spread = rep[(lev.bit_length() + w - 1) // w]
        nb = w - v - na
        for side in (0, 1):
            if side:
                a2, b2, na2, nb2, across = a | bit, b, na + 1, nb, adj[v] & b
            else:
                a2, b2, na2, nb2, across = a, b | bit, na, nb + 1, adj[v] & a
            limit = bound[(na2 if na2 < nb2 else nb2) or 1]
            if limit >= best_delta:
                limit = best_delta - 1
            # v's neighbours across move up one level; v fills levels 0..c(v)
            new = (lev | (lev & across * spread) << w
                   | bit * rep[across.bit_count() + 1])
            if new.bit_length() > (limit + 1) * w:
                continue
            if v > 1:
                place(v - 1, a2, b2, na2, new)
            elif a2:
                best_mask, best_delta = a2, (new.bit_length() - 1) // w

    place(w - 1, 0, 1, 0, 1)
    if not best_mask:
        return None
    return best_mask, best_delta


def cut_max_degree(adj: list[int], w: int, mask: int,
                   limit: Optional[int] = None) -> int:
    """Δ(A, B) for the bipartition given by mask (A) within a w-vertex set.

    With a limit, stops as soon as some vertex has more than `limit`
    neighbours across and returns that count: the result is Δ when
    Δ ≤ limit and some value above the limit otherwise.
    """
    if limit is None:
        limit = w
    full = (1 << w) - 1
    other = full ^ mask
    delta = 0
    for v in range(w):
        side = other if (mask >> v) & 1 else mask
        d = (adj[v] & side).bit_count()
        if d > delta:
            delta = d
            if delta > limit:
                break
    return delta
