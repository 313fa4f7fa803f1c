"""Exact rational scalars, 2-vectors, integer elimination, and certified
interval helpers.

Everything here is pure and exact: scalars are `fractions.Fraction`, and a
matrix is a list of integer rows. `left_null_basis` and `solve_integer` run
one fraction-free elimination with first-nonzero pivoting, so results are
reproducible bit for bit, and null vectors come out as primitive integer
tuples. The only irrational quantities (square roots, base-2 logarithms)
are returned as enclosing rational intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

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


def ratio_from_str(s: str) -> tuple[int, int]:
    """Parse 'n' or 'num/den' (e.g. '-3/7'; 'n/1' and unreduced 'num/den'
    are accepted) to the integers (num, den) in lowest terms with den > 0.
    A zero denominator raises ZeroDivisionError, worded as `Fraction`'s."""
    s = s.strip()
    if "/" not in s:
        return int(s), 1
    num, den = s.split("/", 1)
    num, den = int(num), int(den)
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def rat_from_str(s: str) -> Fraction:
    """`ratio_from_str` as a Fraction: the same strings are accepted."""
    return Fraction(*ratio_from_str(s))


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


def over_common_denominator(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(D, values·D) with D the least common denominator of the values."""
    D = math.lcm(*(v.denominator for v in values))
    return D, tuple(v.numerator * (D // v.denominator) for v in values)


def scaled_points(points: Sequence[Vec2]) -> tuple[int, list[int], list[int]]:
    """(D, x·D, y·D): the coordinates over their least common denominator
    D > 0, so differences, signs and lexicographic order carry over."""
    D, flat = over_common_denominator([q for p in points for q in (p.x, p.y)])
    return D, list(flat[0::2]), list(flat[1::2])


def _eliminate(grid: list[list[int]], lead_cols: int) -> list[int]:
    """Fraction-free row-echelon reduction of the first `lead_cols` columns,
    in place. Returns the pivot column list.

    Pivot row = first row with a nonzero entry in the pivot column
    (determinism over numerical niceties). Each lower row becomes
    piv·row_i − f·row_c, a nonzero multiple of the row that rational
    elimination would leave, so the pivots, the zero rows and every row's
    direction are those of rational elimination. An entry's bit length can
    double per pivot step; Python ints absorb that on these few-row systems.
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
        row_c = grid[cur]
        piv = row_c[col]
        for i in range(cur + 1, nrows):
            row_i = grid[i]
            f = row_i[col]
            if f == 0:
                continue
            for j in range(col, len(row_i)):
                row_i[j] = piv * row_i[j] - f * row_c[j]
        pivots.append(col)
        cur += 1
        if cur == nrows:
            break
    return pivots


def solve(rows: Sequence[Sequence[RationalLike]],
          b: Sequence[RationalLike]) -> Optional[tuple[Fraction, ...]]:
    """Some exact x with A·x = b for the rational rows of A, or None when
    the system is inconsistent; free variables are set to zero.

    Each augmented row [A | b] is scaled to integers on its own, which keeps
    the solution set, and `solve_integer` solves the integer system.
    """
    if len(b) != len(rows):
        raise ValueError("right-hand side length must equal row count")
    grid = [list(over_common_denominator([rat(v) for v in (*row, t)])[1])
            for row, t in zip(rows, b)]
    found = solve_integer(grid)
    if found is None:
        return None
    d, X = found
    return tuple(Fraction(v, d) for v in X)


def solve_integer(grid: list[list[int]]) -> Optional[tuple[int, list[int]]]:
    """(d, X) with d > 0 and x = X/d some exact solution of the integer
    system whose augmented rows [A | b] are `grid`, or None when it is
    inconsistent; `grid` is reduced in place.

    One fraction-free elimination and one back substitution over a common
    denominator of x, with the free variables set to zero. Those x are the
    same for any nonzero scaling of the rows: the pivot columns do not
    depend on it, and the pivot columns of A have full rank.
    """
    n = len(grid[0]) - 1
    pivots = _eliminate(grid, n)
    for i in range(len(pivots), len(grid)):
        if grid[i][n] != 0:
            return None
    # x = X / d; pivot row i gives x_col = (rhs·d − Σ a_ij·X_j) / (a_i,col·d)
    X = [0] * n
    d = 1
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        row = grid[i]
        acc = row[n] * d - sum(row[j] * X[j] for j in range(col + 1, n))
        a = row[col]
        X = [v * a for v in X]
        X[col] = acc
        d *= a
    if d < 0:
        return -d, [-v for v in X]
    return d, X


def primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Scale a nonzero integer vector to primitive integers, first nonzero > 0."""
    g = math.gcd(*vec)
    if next(t for t in vec if t != 0) < 0:
        g = -g
    return tuple([t // g for t in vec])


def left_null_basis(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis {y} of the left null space of the integer rows of A: yᵀA = 0,
    |basis| = rows − rank(A).

    [A | I] is reduced fraction-free: the pivots and the zero rows are those
    of rational elimination, and each basis vector is the identity part of a
    zero row, scaled to a primitive integer vector with positive leading
    entry so certificates serialize canonically.
    """
    n, c = len(rows), len(rows[0])
    grid = [list(row) + [int(j == i) for j in range(n)]
            for i, row in enumerate(rows)]
    pivots = _eliminate(grid, c)
    return [primitive(grid[i][c:]) for i in range(len(pivots), n)]


@dataclass(frozen=True)
class RatInterval:
    """Closed rational interval [lo, hi] enclosing an exact real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        # lo > hi, cross-multiplied: both denominators are positive
        lo, hi = self.lo, self.hi
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError("empty interval")

    @staticmethod
    def point(q: RationalLike) -> "RatInterval":
        q = rat(q)
        return RatInterval(q, q)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def max_with(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(max(self.lo, other.lo), max(self.hi, other.hi))

    def strictly_below(self, q: RationalLike) -> bool:
        return self.hi < rat(q)

    def excludes_zero(self) -> bool:
        return self.lo.numerator > 0 or self.hi.numerator < 0


def sqrt_interval(q: RationalLike, max_width: RationalLike = Fraction(1, 10**12)) -> RatInterval:
    """Enclosing interval for √q (q ≥ 0) of width ≤ max_width; exact on squares."""
    q = rat(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return RatInterval.point(0)
    max_width = rat(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    # √(num/den) = √(num·den)/den; integer sqrt at scale S gives width 1/(S·den).
    # S is the least power of two with 1/(S·den) ≤ max_width, i.e. with
    # S·have ≥ need for have = den·max_width.numerator and need =
    # max_width.denominator: have·2^k ≥ need needs k ≥ the bit-length
    # difference, and one more bit at most
    t = q.numerator * q.denominator
    den = q.denominator
    have, need = den * max_width.numerator, max_width.denominator
    k = max(0, need.bit_length() - have.bit_length())
    if have << k < need:
        k += 1
    S = 1 << k
    a = math.isqrt(t * S * S)
    lo = Fraction(a, S * den)
    if a * a == t * S * S:
        return RatInterval(lo, lo)
    return RatInterval(lo, Fraction(a + 1, S * den))


def log2_interval(x: RationalLike) -> RatInterval:
    """Dyadic interval enclosing log₂(x), x > 0, of width 2^−12; the point
    log₂ x when x is a power of two.

    j = ⌊log₂ x^4096⌋ is read off the bit lengths of num^4096 and den^4096
    (2^(b−1) ≤ v < 2^b for v of bit length b leaves two candidates) and
    settled by one integer comparison, so the result is exact and
    deterministic.
    """
    x = rat(x)
    if x <= 0:
        raise ValueError("log2 of nonpositive rational")
    num, den = x.numerator, x.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return RatInterval.point(Fraction(num.bit_length() - den.bit_length()))
    pow_num, pow_den = num ** 4096, den ** 4096
    j = pow_num.bit_length() - pow_den.bit_length()
    # 2^j ≤ pow_num/pow_den, or else j − 1 is the floor
    if (pow_den << max(j, 0)) > (pow_num << max(-j, 0)):
        j -= 1
    return RatInterval(Fraction(j, 4096), Fraction(j + 1, 4096))
