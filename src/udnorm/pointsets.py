"""Point-sequence generators: subset-sum sets, generic unit vectors of a
polygon, two-row and quadratic flat-side sets, grids.

Every generator is deterministic and exact (rational coordinates, no
random draws). Subset sums are built by doubling, in binary counter order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .norms import SymmetricPolygon
from .ratlin import RationalLike, Vec2, rat, scaled_points


@dataclass(frozen=True)
class PointSeq:
    """A sequence of n ≥ 1 pairwise distinct rational points."""

    points: tuple[Vec2, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("need at least one point")
        if len(set((p.x, p.y) for p in self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    @staticmethod
    def of(points: Sequence[Vec2]) -> "PointSeq":
        return PointSeq(tuple(points))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> Vec2:
        return self.points[i]


class SubsetSumCollision(ValueError):
    """Two subset sums coincide, so the generator cannot produce 2^k points."""


def subset_sum_pointset(vectors: Sequence[Vec2]) -> PointSeq:
    """The 2^k subset sums of the given vectors, in binary counter order
    (bit i of the index selects vector i).

    Built by doubling: the sums of the first i vectors, then each of them
    plus vector i, so 2^k − 1 additions. When every vector is a unit vector
    of some norm, the set carries at least k·2^(k−1) unit distances (pairs
    differing in one element).
    """
    pts = [Vec2(Fraction(0), Fraction(0))]
    for v in vectors:
        pts += [p + v for p in pts]
    try:
        return PointSeq(tuple(pts))  # nonempty, so only distinctness fails
    except ValueError:
        raise SubsetSumCollision("subset sums are not pairwise distinct") from None


def boundary_point(B: SymmetricPolygon, side: int, lam: RationalLike) -> Vec2:
    """The point at parameter lam ∈ [0,1] along side `side` (gauge exactly 1)."""
    a, b = B.side_segment(side)
    lam = rat(lam)
    return a + (b - a).scale(lam)


def _primes_from(start: int, count: int) -> list[int]:
    out: list[int] = []
    cand = max(2, start)
    while len(out) < count:
        if all(cand % p for p in range(2, int(cand**0.5) + 1)):
            out.append(cand)
        cand += 1
    return out


def _subset_sums_distinct(vectors: Sequence[Vec2]) -> bool:
    """Whether the 2^k subset sums are pairwise distinct, decided in ints.

    Over the common denominator, (x, y) is encoded as x·S + y with
    S > 2·Σ|y|: a subset sum's y lies strictly between −S/2 and S/2, so
    the encoding of the sums is injective and sums by doubling as ints.
    """
    _, xs, ys = scaled_points(vectors)
    S = 2 * sum(map(abs, ys)) + 1
    sums = [0]
    for x, y in zip(xs, ys):
        e = x * S + y
        sums += [s + e for s in sums]
    return len(set(sums)) == len(sums)


def generic_unit_vectors(B: SymmetricPolygon, k: int) -> list[Vec2]:
    """k unit vectors of the polygon in generic position, one per side.

    Vector j sits on side j mod 2m at a parameter with its own prime
    denominator: signed sums across different sides then carry incompatible
    denominators, so no subset-sum difference lands on the boundary except
    the single-vector differences themselves. Needs k ≤ 2m (three vectors
    on one side pair would let sums slide along that side exactly); on a
    subset-sum collision the prime pattern is advanced and retried; the
    collision test runs on integer-scaled sums, so no point set is built.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k > 2 * B.m:
        raise ValueError(
            f"need a polygon with at least {k} sides for {k} generic unit "
            f"vectors (got {2 * B.m}); refine the polygon")
    for attempt in range(16):
        primes = _primes_from(8 * k + 13 + 97 * attempt, k)
        vecs = []
        for j in range(k):
            p = primes[j]
            num = (p * (2 * j + 3)) // (8 * k + 11) % p or 1
            vecs.append(boundary_point(B, j % (2 * B.m), Fraction(num, p)))
        if _subset_sums_distinct(vecs):
            return vecs
    raise SubsetSumCollision("no generic parameter pattern found")


def flat_side_quadratic(n: int) -> PointSeq:
    """⌊n/2⌋ points on y=0 and ⌈n/2⌉ on y=1, x-coordinates j/n.

    Under the coordinate-max norm every bottom-top pair is at distance
    exactly 1, giving ⌊n/2⌋·⌈n/2⌉ unit distances.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    bottom = [Vec2(Fraction(j, n), Fraction(0)) for j in range(n // 2)]
    top = [Vec2(Fraction(j, n), Fraction(1)) for j in range((n + 1) // 2)]
    return PointSeq(tuple(bottom + top))


def grid_pointset(w: int, h: int, step: RationalLike = 1) -> PointSeq:
    """Axis-aligned w×h grid with the given spacing, row-major order."""
    if w < 1 or h < 1:
        raise ValueError("grid dimensions must be >= 1")
    step = rat(step)
    return PointSeq(tuple(
        Vec2(step * i, step * j)
        for j, i in itertools.product(range(h), range(w))
    ))


def two_row_pointset(B: SymmetricPolygon, side: int, rows: int,
                     lam: RationalLike = Fraction(1, 2),
                     shift: Vec2 = Vec2(Fraction(0), Fraction(0))) -> PointSeq:
    """Two rows of `rows` points whose cross differences all land on one side
    of B, so every cross pair is a unit distance (a flat-side construction
    that works for an arbitrary polygon side).
    """
    if rows < 1:
        raise ValueError("need rows >= 1")
    a, b = B.side_segment(side)
    z0 = a + (b - a).scale(rat(lam))
    d = (b - a).scale(Fraction(1, 4 * rows))
    bottom = [shift + d.scale(j) for j in range(rows)]
    top = [p + z0 for p in bottom]
    return PointSeq(tuple(bottom + top))
