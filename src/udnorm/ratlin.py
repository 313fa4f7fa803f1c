"""Exact rational scalars, 2-vectors, small dense matrices, and certified
interval helpers.

Everything here is pure and exact: scalars are `fractions.Fraction`, matrix
algorithms use Gaussian elimination with first-nonzero pivoting so results
are reproducible bit for bit, and the only irrational quantities (square
roots, base-2 logarithms) are returned as enclosing rational intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction

RationalLike = Union[int, str, Fraction]


def rat(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return rat_from_str(x)
    raise TypeError(f"not a rational: {x!r}")


def rat_from_str(s: str) -> Fraction:
    """Parse 'n' or 'num/den' (e.g. '-3/7'); 'n/1' is accepted."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rat_to_str(q: RationalLike) -> str:
    """Canonical serialization: 'num/den' in lowest terms, integers as 'n'."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Vec2:
    """Exact rational vector in the plane."""

    x: Fraction
    y: Fraction

    @staticmethod
    def of(x: RationalLike, y: RationalLike) -> "Vec2":
        return Vec2(rat(x), rat(y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scale(self, k: RationalLike) -> "Vec2":
        k = rat(k)
        return Vec2(self.x * k, self.y * k)

    def dot(self, other: "Vec2") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> Fraction:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Mat:
    """Dense matrix of Fractions; immutable after construction."""

    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[RationalLike]]) -> "Mat":
        grid = tuple(tuple(rat(v) for v in row) for row in rows)
        if not grid:
            raise ValueError("matrix needs at least one row")
        width = len(grid[0])
        if width == 0 or any(len(r) != width for r in grid):
            raise ValueError("rows must be nonempty and equally long")
        return Mat(grid)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def mul_vec(self, v: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        vv = [rat(t) for t in v]
        if len(vv) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(
            sum((r[j] * vv[j] for j in range(self.cols)), Fraction(0))
            for r in self.entries
        )


def _forward_eliminate(grid: list[list[Fraction]], lead_cols: int):
    """Row-echelon reduction of the first `lead_cols` columns, in place.

    Pivot row = first row with a nonzero entry in the pivot column
    (determinism over numerical niceties). Returns the pivot column list.
    """
    pivots = []
    cur = 0
    nrows = len(grid)
    for col in range(lead_cols):
        sel = None
        for i in range(cur, nrows):
            if grid[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != cur:
            grid[cur], grid[sel] = grid[sel], grid[cur]
        piv = grid[cur][col]
        for i in range(cur + 1, nrows):
            f = grid[i][col]
            if f == 0:
                continue
            ratio = f / piv
            row_i, row_c = grid[i], grid[cur]
            for j in range(col, len(row_i)):
                row_i[j] = row_i[j] - ratio * row_c[j]
        pivots.append(col)
        cur += 1
        if cur == nrows:
            break
    return pivots


def rank(M: Mat) -> int:
    """Exact rank over the rationals."""
    grid = [list(r) for r in M.entries]
    return len(_forward_eliminate(grid, M.cols))


def solve(M: Mat, b: Sequence[RationalLike]) -> Optional[tuple[Fraction, ...]]:
    """Some exact x with M·x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    bb = [rat(t) for t in b]
    if len(bb) != M.rows:
        raise ValueError("right-hand side length must equal row count")
    grid = [list(M.entries[i]) + [bb[i]] for i in range(M.rows)]
    pivots = _forward_eliminate(grid, M.cols)
    for i in range(len(pivots), M.rows):
        if grid[i][M.cols] != 0:
            return None
    x = [Fraction(0)] * M.cols
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        acc = grid[i][M.cols]
        for j in range(col + 1, M.cols):
            acc -= grid[i][j] * x[j]
        x[col] = acc / grid[i][col]
    return tuple(x)


def _primitive(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a nonzero rational vector to primitive integers, first nonzero > 0."""
    den = math.lcm(*(t.denominator for t in vec))
    ints = [int(t * den) for t in vec]
    g = math.gcd(*ints)
    if g:
        ints = [t // g for t in ints]
    for t in ints:
        if t != 0:
            if t < 0:
                ints = [-u for u in ints]
            break
    return tuple(Fraction(t) for t in ints)


def left_null_basis(M: Mat) -> list[tuple[Fraction, ...]]:
    """Basis {y} of the left null space: yᵀM = 0, |basis| = rows − rank(M).

    Each basis vector is scaled to a primitive integer vector with positive
    leading entry so certificates serialize canonically.
    """
    n = M.rows
    grid = [list(M.entries[i]) + [Fraction(1 if j == i else 0) for j in range(n)]
            for i in range(n)]
    pivots = _forward_eliminate(grid, M.cols)
    basis = []
    for i in range(len(pivots), n):
        y = grid[i][M.cols:]
        basis.append(_primitive(y))
    return basis


@dataclass(frozen=True)
class RatInterval:
    """Closed rational interval [lo, hi] enclosing an exact real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @staticmethod
    def point(q: RationalLike) -> "RatInterval":
        q = rat(q)
        return RatInterval(q, q)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: RationalLike) -> bool:
        q = rat(q)
        return self.lo <= q <= self.hi

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, k: RationalLike) -> "RatInterval":
        k = rat(k)
        if k >= 0:
            return RatInterval(self.lo * k, self.hi * k)
        return RatInterval(self.hi * k, self.lo * k)

    def max_with(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(max(self.lo, other.lo), max(self.hi, other.hi))

    def strictly_below(self, q: RationalLike) -> bool:
        return self.hi < rat(q)

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0


def sqrt_interval(q: RationalLike, max_width: RationalLike = Fraction(1, 10**12)) -> RatInterval:
    """Enclosing interval for √q (q ≥ 0) of width ≤ max_width; exact on squares."""
    q = rat(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return RatInterval.point(0)
    max_width = rat(max_width)
    # √(num/den) = √(num·den)/den; integer sqrt at scale S gives width 1/(S·den)
    t = q.numerator * q.denominator
    den = q.denominator
    S = 1
    while Fraction(1, S * den) > max_width:
        S *= 2
    a = math.isqrt(t * S * S)
    lo = Fraction(a, S * den)
    if a * a == t * S * S:
        return RatInterval(lo, lo)
    return RatInterval(lo, Fraction(a + 1, S * den))


def log2_interval(x: RationalLike, frac_bits: int = 12) -> RatInterval:
    """Dyadic interval enclosing log₂(x), x > 0, width ≤ 2^−frac_bits.

    Decided purely by integer comparisons x^(2^p) vs 2^j, so the result is
    exact and deterministic.
    """
    x = rat(x)
    if x <= 0:
        raise ValueError("log2 of nonpositive rational")
    num, den = x.numerator, x.denominator

    def two_pow_le(k: int) -> bool:
        # 2^k ≤ num/den
        if k >= 0:
            return den << k <= num
        return den <= num << (-k)

    # Integer part: largest k with 2^k ≤ x.
    k = num.bit_length() - den.bit_length()
    while two_pow_le(k + 1):
        k += 1
    while not two_pow_le(k):
        k -= 1
    if (den << k if k >= 0 else den) == (num if k >= 0 else num << (-k)):
        return RatInterval.point(Fraction(k))
    # Binary search for j: largest j with 2^j ≤ x^(2^p), j in [k·2^p, (k+1)·2^p].
    p = frac_bits
    pow_num = num ** (1 << p)
    pow_den = den ** (1 << p)
    lo_j, hi_j = k << p, (k + 1) << p
    while lo_j + 1 < hi_j:
        mid = (lo_j + hi_j) // 2
        # compare 2^mid vs pow_num/pow_den, mid ≥ 0 not guaranteed
        if mid >= 0:
            le = (pow_den << mid) <= pow_num
        else:
            le = pow_den <= (pow_num << (-mid))
        if le:
            lo_j = mid
        else:
            hi_j = mid
    return RatInterval(Fraction(lo_j, 1 << p), Fraction(hi_j, 1 << p))
