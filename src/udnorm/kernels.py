"""Entry points for the hot kernels.

The unit-pair scan prefers the compiled extension, chosen at import time;
the pure-Python scan is used when the extension is missing or when an
input's magnitude bound does not provably fit in int64 (exactness is never
traded for speed). The weak-cut kernels are pure Python.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from . import _kern_py
from .ratlin import Vec2

try:  # pragma: no cover - depends on build environment
    from . import _kern_cy  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover
    _kern_cy = None

_INT64_SAFE = 2**62


def active_backend() -> str:
    """'cython' when the compiled extension is in use, else 'python'."""
    return "python" if _kern_cy is None else "cython"


def scaled_unit_pair_input(
    points: Sequence[Vec2],
    constraints: Sequence[tuple[Vec2, Fraction]],
) -> tuple[list[list[int]], list[int], int]:
    """Integer-scale the exact unit-pair test.

    gauge(p_j − p_i) == 1 under constraints {|⟨n_c, z⟩| ≤ c_c} is equivalent
    to: every scaled |Δv_c| ≤ d_c and some |Δv_c| = d_c, where v_c and d_c
    are the integers returned here. Also returns the largest possible |Δv|
    so the dispatcher can prove int64 safety.
    """
    D = math.lcm(*(q.denominator for p in points for q in (p.x, p.y)))
    qx = [int(p.x * D) for p in points]
    qy = [int(p.y * D) for p in points]
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


def unit_pair_indices(
    points: Sequence[Vec2],
    constraints: Sequence[tuple[Vec2, Fraction]],
) -> list[tuple[int, int]]:
    """All 0-based index pairs (i < j) at exact gauge distance 1."""
    vals, bounds, max_dv = scaled_unit_pair_input(points, constraints)
    impl = _kern_py if _kern_cy is None or max_dv >= _INT64_SAFE else _kern_cy
    return impl.unit_pairs(vals, bounds)


def min_weak_cut(
    adj_masks: Sequence[int],
    thresholds: Sequence[int],
) -> Optional[tuple[int, int]]:
    """Minimum-Δ weak bipartition of a ≤ cap vertex set, or None.

    adj_masks[v] = neighborhood bitmask among the set's vertices;
    thresholds[s] = largest weak Δ for min-side size s (−1: none).
    Covers every subset not containing vertex 0; ties go to the smallest
    mask.
    """
    w = len(adj_masks)
    if w < 2:
        return None
    return _kern_py.min_weak_cut(list(adj_masks), w, list(thresholds))


def cut_max_degree(adj_masks: Sequence[int], mask: int,
                   limit: Optional[int] = None) -> int:
    """Δ(A, B) for the bipartition A = mask over the given vertex set; with
    a limit, any value above it once Δ is known to exceed it."""
    return _kern_py.cut_max_degree(list(adj_masks), len(adj_masks), mask,
                                   limit)
