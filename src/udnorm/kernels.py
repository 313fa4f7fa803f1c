"""The hot kernels, exact in Python ints.

The unit-pair scan is a hash join on integer-scaled coordinates, so its
cost follows the number of pairs that meet some constraint exactly rather
than n²; the weak-cut kernels work on neighbourhood bitmasks. No value is
ever narrowed to a fixed-width integer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .ratlin import Vec2, scaled_points


def active_backend() -> str:
    """Always 'python': there is one backend. Kept only because udbench's
    run fingerprint records it."""
    return "python"


def scaled_unit_pair_input(
    points: Sequence[Vec2],
    constraints: Sequence[tuple[Vec2, Fraction]],
) -> tuple[list[list[int]], list[int], int]:
    """Integer-scale the exact unit-pair test.

    gauge(p_j − p_i) == 1 under constraints {|⟨n_c, z⟩| ≤ c_c} is equivalent
    to: every scaled |Δv_c| ≤ d_c and some |Δv_c| = d_c, where v_c and d_c
    are the integers returned here (every d_c > 0). The third value, the
    largest possible |Δv|, is returned only because udbench's run
    fingerprint reads it.
    """
    D, qx, qy = scaled_points(points)
    rows = []
    bounds = []
    for n, c in constraints:
        t = c * D
        M = math.lcm(n.x.denominator, n.y.denominator, t.denominator)
        ax, ay, d = int(n.x * M), int(n.y * M), int(t * M)
        rows.append((ax, ay))
        bounds.append(d)
    vals = [[ax * x + ay * y for (ax, ay) in rows] for x, y in zip(qx, qy)]
    max_dv = 0
    for c in range(len(bounds)):
        col = [v[c] for v in vals]
        span = max(col) - min(col)
        max_dv = max(max_dv, span, bounds[c])
    return vals, bounds, max_dv


def unit_pairs(vals: list[list[int]], bounds: list[int]) -> list[tuple[int, int]]:
    """Indices (i, j), i < j, in ascending order, whose row difference has
    |Δv_c| ≤ d_c for every c with equality for some c.

    vals[i][c] is the c-th constraint functional at point i; bounds[c] =
    d_c > 0. A pair tight on c has v_c[j] = v_c[i] + d_c for one ordering,
    so for each c the points are indexed by v_c and each point looks up
    only that value. The pair is kept at the first c it is tight on.
    """
    found = []
    for c, d in enumerate(bounds):
        where: dict[int, list[int]] = {}
        for j, row in enumerate(vals):
            where.setdefault(row[c], []).append(j)
        for i, vi in enumerate(vals):
            hits = where.get(vi[c] + d)
            if hits is None:
                continue
            for j in hits:
                vj = vals[j]
                for k, dk in enumerate(bounds):
                    dv = abs(vj[k] - vi[k])
                    if dv > dk or (dv == dk and k < c):
                        break
                else:
                    found.append((i, j) if i < j else (j, i))
    found.sort()
    return found


def unit_pair_indices(
    points: Sequence[Vec2],
    constraints: Sequence[tuple[Vec2, Fraction]],
) -> list[tuple[int, int]]:
    """All 0-based index pairs (i < j) at exact gauge distance 1, ascending."""
    vals, bounds, _ = scaled_unit_pair_input(points, constraints)
    return unit_pairs(vals, bounds)


def weak_cut_bounds(adj_masks: Sequence[int],
                    thresholds: Sequence[int]) -> list[int]:
    """bound[s] for s ≥ 1: the largest Δ of any weak cut whose smaller side
    has at least s vertices, −1 when there is none; bound[1] < 0 proves
    that the set has no weak cut at all.

    adj_masks and thresholds are as in `min_weak_cut`. A smaller side of s
    vertices holds a vertex of degree at least d₍ₛ₎, the s-th smallest
    degree of the set, with at most s − 1 neighbours on its own side, so
    such a cut has Δ ≥ d₍ₛ₎ − s + 1 and is weak only if thresholds[s]
    reaches that.
    """
    deg = sorted(m.bit_count() for m in adj_masks)
    bound = [-1] * len(thresholds)
    top = -1
    for s in range(len(thresholds) - 1, 0, -1):
        t = thresholds[s]
        if t > top and t >= deg[s - 1] - s + 1:
            top = t
        bound[s] = top
    return bound


def min_weak_cut(
    adj_masks: Sequence[int],
    thresholds: Sequence[int],
) -> Optional[tuple[int, int]]:
    """Weak cut of minimum Δ over all 2^(w−1)−1 bipartitions of a w-vertex
    set, or None.

    adj_masks[v] is the neighborhood bitmask of vertex v inside the set;
    thresholds[s] is the largest Δ that still counts as weak for min-side
    size s (thresholds[s] < 0 means no Δ qualifies). Cuts are subsets A not
    containing vertex 0; ties keep the smallest mask.

    Vertices w−1 down to 1 are placed depth first, B before A, so complete
    cuts are reached in ascending mask order. A branch is cut off once some
    placed vertex has more neighbours across than min(bound[s], best Δ − 1),
    s the min side so far (at least 1), with bound from `weak_cut_bounds`:
    cross degrees only grow as vertices are placed, and the final min side
    is at least s, so no cut below that branch is weak and beats the best.
    When bound[1] < 0 the degree sequence alone rules out every weak cut
    and nothing is searched.

    Returns (mask_of_A, delta) or None.
    """
    adj = list(adj_masks)
    thr = list(thresholds)
    w = len(adj)
    if w < 2:
        return None
    bound = weak_cut_bounds(adj, thr)
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


def cut_max_degree(adj_masks: Sequence[int], mask: int,
                   limit: Optional[int] = None) -> int:
    """Δ(A, B) for the bipartition A = mask over the given vertex set.

    With a limit, stops as soon as some vertex has more than `limit`
    neighbours across and returns that count: the result is Δ when
    Δ ≤ limit and some value above the limit otherwise.
    """
    w = len(adj_masks)
    if limit is None:
        limit = w
    other = ((1 << w) - 1) ^ mask
    delta = 0
    for v, nbrs in enumerate(adj_masks):
        d = (nbrs & (other if (mask >> v) & 1 else mask)).bit_count()
        if d > delta:
            delta = d
            if delta > limit:
                break
    return delta
