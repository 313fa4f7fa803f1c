"""Perturbation certificates: enumerate admissible side assignments, derive
one left-null vector y per class tuple α mod m, shrink the offset box until
every assignment's system is provably unsolvable (a sign-definite left-null
functional), and wrap the result in a witness polygon sandwich.

A finished certificate states: for every symmetric convex body within δ of
the witness polygon B, no η-separated realization of the source graph
exists whose directions satisfy the dependence system. Its evidence is one
left-null vector y per class tuple (`NormCertificate.null_vectors`); each
assignment's kill record (y, h = yᵀb(t), sign) follows from that y, the
polygon and the box. Every y in memory is a tuple of ints: certify derives
primitive integer vectors, and `jsonio.certificate_from_json` scales a
payload's rational y to integers, so nothing here converts y.

The exact core works per class tuple, and what class tuples share is
computed once per call: the m×m integer tables of cross and dot products
of the normals (`_normal_products`, once per `_null_spaces` call), and
per box the factors F_k, R_k of h's range on it (`_box_factors`, once per
pass over the class tuples). No table outlives the call that built it. y
comes in closed form from an ℓ×(ℓ+1) integer system read off the tables
(`_closed_form_null_vector`), with a general elimination only when the
left null space has dimension ≥ 2. One integer test decides all
2^(2ℓ+1) side choices of a class tuple at once from y and the box factors
(`_class_tuple_killed`), so `certify_box` and `sample_verify` build an
assignment's affine form only where that test fails. `sample_verify`'s
reject path runs in integers too: t, b(t), the solution x and the solved
directions stay integers over one common denominator, and a hit becomes
`Fraction`s only when it is recorded.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .dependence import DependenceSystem
from .norms import (
    AngleBound,
    OffsetVector,
    SymmetricPolygon,
    eta_separated,
    norm_uppers,
    offset_polygon,
    scaled_segment_is_eta_short,
)
from .ratlin import (
    RatInterval,
    RationalLike,
    Vec2,
    left_null_basis,
    over_common_denominator,
    primitive,
    rat,
    solve_integer,
)

# re-exported here because the angle machinery is part of this module's surface
__all__ = [
    "AngleBound",
    "eta_separated",
    "enumerate_admissible",
    "OffsetBox",
    "AffineForm",
    "KillRecord",
    "NormCertificate",
    "build_system",
    "kill_assignment",
    "certify_box",
    "witness_norm",
    "sample_verify",
    "VerifyReport",
    "CertifierError",
]


class CertifierError(RuntimeError):
    pass


# An admissible assignment α: an injective map of the 2ℓ+1 directions onto
# sides (0-based side ids in [0, 2m)), no two values in the same opposite
# pair.
Assignment = tuple[int, ...]


def enumerate_admissible(ell: int, m: int) -> Iterator[Assignment]:
    """All admissible assignments of 2ℓ+1 items to 2m sides, in lexicographic
    order; empty when 2ℓ+1 > m.

    The recursion yields the 3840 assignments of ℓ = 2, m = 5 in 3.1 ms
    (best of 30, Python 3.11, 2 cores); cProfile overstates the cost of its
    nested generator frames. A flat `permutations(range(2m))` filter takes
    12 ms, and sorting a product of class injections and side bits builds
    every assignment up front, so the recursion stays.
    """
    count = 2 * ell + 1
    if count > m:
        return
    used = [False] * m
    alpha: list[int] = []

    def rec():
        if len(alpha) == count:
            yield tuple(alpha)
            return
        for side in range(2 * m):
            cls = side % m
            if used[cls]:
                continue
            used[cls] = True
            alpha.append(side)
            yield from rec()
            alpha.pop()
            used[cls] = False

    yield from rec()


@dataclass(frozen=True)
class OffsetBox:
    """Product of closed offset intervals [loᵢ, hiᵢ] with nonempty interior."""

    lo: OffsetVector
    hi: OffsetVector

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box bounds must have equal length")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError("box must have nonempty interior")

    @staticmethod
    def symmetric(delta0: RationalLike, m: int) -> "OffsetBox":
        d = rat(delta0)
        if d <= 0:
            raise ValueError("delta0 must be positive")
        return OffsetBox((-d,) * m, (d,) * m)

    @property
    def m(self) -> int:
        return len(self.lo)

    def center(self) -> OffsetVector:
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(D, lo·D, hi·D): the bounds over their common denominator D."""
        D, ints = over_common_denominator(tuple(self.lo) + tuple(self.hi))
        return D, ints[:self.m], ints[self.m:]


@dataclass(frozen=True, init=False, slots=True)
class AffineForm:
    """t ↦ (num + Σ nums[i]·tᵢ)/den over the m offset coordinates.

    Stored in integers reduced so that gcd(num, nums, den) = 1 and den > 0,
    so equal forms have equal fields and hash equal. `AffineForm(const,
    coeffs)` takes the rational constant and coefficients; `const` and
    `coeffs` read them back as `Fraction`s.
    """

    num: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, const: RationalLike, coeffs: Sequence[RationalLike]):
        # over the least common denominator the fields are already reduced:
        # an entry with the highest power of a prime p in its denominator
        # has a numerator that p does not divide
        den, (num, *nums) = over_common_denominator(
            (rat(const), *(rat(c) for c in coeffs)))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num: int, nums: tuple[int, ...], den: int) -> "AffineForm":
        """The form with these fields; the caller guarantees they are reduced."""
        form = object.__new__(cls)
        object.__setattr__(form, "num", num)
        object.__setattr__(form, "nums", nums)
        object.__setattr__(form, "den", den)
        return form

    @property
    def const(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def eval(self, t: Sequence[Fraction]) -> Fraction:
        T, ts = over_common_denominator(t)
        return Fraction(self._scaled_value(T, ts), self.den * T)

    def _scaled_value(self, T: int, ts: Sequence[int]) -> int:
        """The form's value at t times den·T, from t over a common
        denominator T > 0 as the integers ts = t·T."""
        return self.num * T + sum(c * v for c, v in zip(self.nums, ts))

    def _bounds_on(self, box: OffsetBox) -> tuple[int, int, int]:
        """(lo, hi, den) with [lo/den, hi/den] the exact range of the form on
        the box and den > 0, in integer arithmetic over the box's common
        denominator."""
        D, L, H = box.scaled
        lo = hi = self.num * D
        for c, a, b in zip(self.nums, L, H):
            if c > 0:
                lo += c * a
                hi += c * b
            elif c < 0:
                lo += c * b
                hi += c * a
        return lo, hi, self.den * D

    def interval_on(self, box: OffsetBox) -> RatInterval:
        lo, hi, den = self._bounds_on(box)
        return RatInterval(Fraction(lo, den), Fraction(hi, den))

    def sign_on(self, box: OffsetBox) -> int:
        """+1 or −1 when the form is positive or negative on the whole box,
        0 when it has a root there."""
        lo, hi, _ = self._bounds_on(box)
        return 1 if lo > 0 else -1 if hi < 0 else 0


def build_system(S: DependenceSystem, B1: SymmetricPolygon,
                 alpha: Assignment) -> list[list[int]]:
    """The integer rows of the (2ℓ+1)×2ℓ matrix A of the system A·x = b(t)
    pinning each direction to its assigned side line ⟨n, z⟩ = ±(c + t); x
    concatenates the ℓ base directions. Row i applies the integer normal
    n_(αᵢ mod m) to direction i, a base direction (weight row eᵢ) or S's
    integer combination of them. Sides s and s+m share the normal n, so A
    depends only on the class tuple α mod m.
    """
    ell, m = S.ell, B1.m
    if 2 * ell + 1 > m:
        raise CertifierError("assignment needs 2ℓ+1 ≤ m")
    normals = B1.scaled[1]
    weights = [[int(s == i) for s in range(ell)] for i in range(ell)] + list(S.coeffs)
    return [[w * v for w in row for v in normals[a % m]]
            for a, row in zip(alpha, weights)]


@dataclass(frozen=True)
class KillRecord:
    """Unsolvability witness for one assignment: yᵀA = 0 while h = yᵀb(t)
    keeps a fixed sign on the certified box."""

    alpha: Assignment
    y: tuple[int, ...]
    h: AffineForm
    sign: int


Functional = tuple[tuple[int, ...], AffineForm]
NullVectors = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _functional(sides: Sequence[int], y: Sequence[int],
                offsets: tuple[int, Sequence[int]]) -> AffineForm:
    """h = yᵀb(t) for the assignment with these sides, from the integer y
    and the offsets over their least common denominator, (D, c·D). Row i
    reads ⟨n, z⟩ = εᵢ(cₖ + tₖ) with k = sideᵢ mod m and εᵢ = −1 for
    sides ≥ m, so h·D has coefficient εᵢ·yᵢ·D at coordinate k and constant
    Σ εᵢ·yᵢ·(cₖD): integer sums only."""
    D, cs = offsets
    m = len(cs)
    num = 0
    nums = [0] * m
    for yi, side in zip(y, sides):
        if side < m:
            nums[side] = yi
            num += yi * cs[side]
        else:
            nums[side - m] = -yi
            num -= yi * cs[side - m]
    # D divides every coefficient nums·D, so the reduced form divides num,
    # nums·D and D by gcd(num, D)
    g = math.gcd(num, D)
    s = D // g
    return AffineForm._reduced(num // g, tuple([c * s for c in nums]), s)


def _assignment_functionals(
        B1: SymmetricPolygon,
        null_spaces: dict[tuple[int, ...], Sequence[tuple[int, ...]]],
        alphas: Iterable[Assignment]
) -> Iterator[tuple[Assignment, tuple[int, ...], list[Functional]]]:
    """(α, α mod m, [(y, h = yᵀb)]) per assignment α of `alphas`, one pair
    per integer y that `null_spaces` maps α's class tuple to; the side
    choice only flips signs in h (`_functional`)."""
    m = B1.m
    offsets = B1.scaled[::2]  # (D, offsets·D)
    for alpha in alphas:
        classes = tuple(a % m for a in alpha)
        yield alpha, classes, [(y, _functional(alpha, y, offsets))
                               for y in null_spaces[classes]]


def _side_choices(classes: tuple[int, ...], m: int) -> Iterator[Assignment]:
    """The assignments with this class tuple, in lexicographic order."""
    return (tuple(k + m * b for k, b in zip(classes, bits))
            for bits in itertools.product((0, 1), repeat=len(classes)))


def _det(rows: list[list[int]]) -> int:
    """Determinant of a small square integer matrix, by cofactors along the
    first row."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    first, rest = rows[0], rows[1:]
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rest])
               for j, a in enumerate(first) if a)


def _normal_products(normals: Sequence[tuple[int, int]]
                     ) -> tuple[list[list[int]], list[list[int]]]:
    """The m×m integer tables (cross, dot) of the polygon's integer normals:
    cross[j][k] = nⱼ×nₖ and dot[j][k] = ⟨nⱼ, nₖ⟩. Each `_null_spaces` call
    builds them once; the closed form reads every product from them."""
    cross = [[ax * by - ay * bx for bx, by in normals] for ax, ay in normals]
    dot = [[ax * bx + ay * by for bx, by in normals] for ax, ay in normals]
    return cross, dot


def _closed_form_null_vector(cross: Sequence[Sequence[int]],
                             dot: Sequence[Sequence[int]],
                             weights: Sequence[Sequence[int]],
                             classes: tuple[int, ...]
                             ) -> Optional[tuple[int, ...]]:
    """The left-null vector of A for this class tuple, primitive with its
    first nonzero entry positive (`left_null_basis`'s scaling), or None when
    the left null space has dimension ≥ 2. `cross` and `dot` are the
    polygon's `_normal_products`.

    With n_s the normal of base row s, n_j that of dependent row j, w_j
    dependent row j of `weights` (S's integer row) and [a, b] the 2-D cross
    product, yᵀA = 0 reads y_s·n_s + Σ_j w_j[s]·y_j·n_j = 0 for each base
    direction s. Its cross product with n_s leaves the ℓ×(ℓ+1) system
    M[s][j] = w_j[s]·[n_s, n_j] on the dependent entries, and its dot
    product with n_s gives y_s = −Σ_j w_j[s]·y_j·⟨n_s, n_j⟩ / |n_s|². So
    nullity(A) = nullity(M), which is 1 exactly when some maximal minor of
    M is nonzero; the signed maximal minors then span M's kernel (at ℓ = 2,
    the 3-D cross product of M's two rows). ℓ = 2, the case of the
    pipeline and the demo, has its products written out; other ℓ go
    through `_det`.
    """
    ell = len(weights) - 1
    if ell == 2:
        # M's rows (a0, a1, a2) and (e0, e1, e2), their cross product y_dep
        # and the y_s numerators, written out
        s0, s1, d0, d1, d2 = classes
        (u0, v0), (u1, v1), (u2, v2) = weights
        c0, c1 = cross[s0], cross[s1]
        a0, a1, a2 = u0 * c0[d0], u1 * c0[d1], u2 * c0[d2]
        e0, e1, e2 = v0 * c1[d0], v1 * c1[d1], v2 * c1[d2]
        y_dep = [a1 * e2 - a2 * e1, a2 * e0 - a0 * e2, a0 * e1 - a1 * e0]
        if not any(y_dep):
            return None
        y0, y1, y2 = y_dep
        g0, g1 = dot[s0], dot[s1]
        nums = [-(u0 * y0 * g0[d0] + u1 * y1 * g0[d1] + u2 * y2 * g0[d2]),
                -(v0 * y0 * g1[d0] + v1 * y1 * g1[d1] + v2 * y2 * g1[d2])]
        dens = [g0[s0], g1[s1]]
    else:
        base, dep = classes[:ell], classes[ell:]
        M = [[w[s] * row[d] for w, d in zip(weights, dep)]
             for s, row in enumerate([cross[b] for b in base])]
        y_dep = [(-1) ** j * _det([row[:j] + row[j + 1:] for row in M])
                 for j in range(ell + 1)]
        if not any(y_dep):
            return None
        nums = [-sum([w[s] * yj * row[d] for w, yj, d in zip(weights, y_dep, dep)])
                for s, row in enumerate([dot[b] for b in base])]
        dens = [dot[b][b] for b in base]
    # y_s = nums[s] / dens[s]; the lcm L of the dens makes every entry integral
    L = math.lcm(*dens)
    return primitive([v * (L // d) for v, d in zip(nums, dens)]
                     + [L * v for v in y_dep])


def _null_spaces(S: DependenceSystem, B1: SymmetricPolygon
                 ) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Left null basis of A per class tuple α mod m, in lexicographic order
    of the class tuples: A·x = b(t) is solvable exactly where every
    h = yᵀb(t) vanishes. The closed form gives the basis when it has one
    vector; `left_null_basis` gives it otherwise."""
    cross, dot = _normal_products(B1.scaled[1])
    spaces = {}
    for classes in itertools.permutations(range(B1.m), 2 * S.ell + 1):
        y = _closed_form_null_vector(cross, dot, S.coeffs, classes)
        spaces[classes] = ([y] if y is not None
                           else left_null_basis(build_system(S, B1, classes)))
    return spaces


Factors = tuple[list[int], list[int]]


def _box_factors(B1: SymmetricPolygon, box: OffsetBox) -> Factors:
    """(F, R) per coordinate k, from the polygon's offsets over their
    common denominator, (Dc, c·Dc), and the box's, (D, lo·D, hi·D): with
    c_k, lo_k and hi_k those scaled integers, F_k = 2·c_k·D + Dc·(lo_k + hi_k)
    and R_k = Dc·(hi_k − lo_k). They depend on the box alone, so each pass
    over the class tuples of one box computes them once.

    The side line ⟨n, z⟩ = ε(c_k + t_k) of a side with class k puts
    ε·y·(c_k + t_k) into h = yᵀb(t); over the box, 2·Dc·D times it ranges
    over ε·y·F_k ± |y|·R_k."""
    (Dc, _, cs), (D, lo, hi) = B1.scaled, box.scaled
    return ([2 * c * D + Dc * (a + b) for c, a, b in zip(cs, lo, hi)],
            [Dc * (b - a) for a, b in zip(lo, hi)])


def _side_choice_ranges(ys: Sequence[int], classes: tuple[int, ...],
                        factors: Factors) -> tuple[list[int], int]:
    """The range of h = yᵀb(t) on the box for every side choice of the
    class tuple, from the integer y and the box's `_box_factors`:
    (mids, radius), one mid per side choice in `_side_choices` order, with
    h·2·Dc·D ranging over [mid − radius, mid + radius].

    A side choice multiplies each yᵢ by εᵢ = ±1, so the mid is Σ εᵢyᵢ·F_k
    and the radius Σ |yᵢ|·R_k (k = classes[i], one term per coordinate
    since the classes are distinct), which does not depend on ε.
    """
    F, R = factors
    radius = sum(abs(yi) * R[k] for yi, k in zip(ys, classes))
    # the first side bit is the most significant, so the last term doubles first
    mids = [0]
    for yi, k in zip(reversed(ys), reversed(classes)):
        a = yi * F[k]
        mids = [v + a for v in mids] + [v - a for v in mids]
    return mids, radius


def _class_tuple_killed(ys: Sequence[int], classes: tuple[int, ...],
                        factors: Factors) -> bool:
    """Whether h = yᵀb(t) is sign-definite on the box for every side choice
    of the class tuple: |mid| > radius for each (`_side_choice_ranges`).
    ε and −ε give the same |mid|, so ε₀ = +1 and half the mids decide. A
    tie is not killed."""
    F, R = factors
    radius = sum(abs(yi) * R[k] for yi, k in zip(ys, classes))
    mids = [ys[0] * F[classes[0]]]
    for yi, k in zip(ys[1:], classes[1:]):
        a = yi * F[k]
        mids = [v + a for v in mids] + [v - a for v in mids]
    return min(map(abs, mids)) > radius


def kill_assignment(alpha: Assignment, functional: Functional,
                    box: OffsetBox) -> tuple[OffsetBox, KillRecord]:
    """Sub-box on which the left-null functional (y, h = yᵀb) is
    sign-definite, with the kill record of α.

    Already sign-definite boxes pass through unchanged. Otherwise h takes
    the sign of its value at the box center (+1 at 0), and each coordinate
    appearing in h keeps its favorable portion [center + width/8, hi] =
    [(3·lo + 5·hi)/8, hi] (or the mirror image), which makes h
    sign-definite in one pass and keeps 3/8 of each shrunk coordinate's
    width.
    """
    y, h = functional
    sign = h.sign_on(box)
    if sign:
        return box, KillRecord(alpha, y, h, sign)
    # h at the center is the midpoint of its range [lo, hi]/den on the box
    h_lo, h_hi, _ = h._bounds_on(box)
    sign = 1 if h_lo + h_hi >= 0 else -1
    lo = list(box.lo)
    hi = list(box.hi)
    for j, c in enumerate(h.nums):
        if c == 0:
            continue
        if (c > 0) == (sign > 0):
            lo[j] = (3 * lo[j] + 5 * hi[j]) / 8
        else:
            hi[j] = (5 * lo[j] + 3 * hi[j]) / 8
    sub = OffsetBox(tuple(lo), tuple(hi))
    if h.sign_on(sub) != sign:
        raise CertifierError("shrink rule failed to make h sign-definite")
    return sub, KillRecord(alpha, y, h, sign)


@dataclass(frozen=True)
class NormCertificate:
    """`null_vectors` is the evidence: (class tuple α mod m, y) with y an
    integer left-null vector of A, one per class tuple, in the order certify
    first met them. `kills` derives every assignment's record from it.

    The witness fields are None on the construction-stage certificate that
    `certify_box` returns; `witness_norm` fills them. Only a witnessed
    certificate is written, checked or verified."""

    polygon: SymmetricPolygon
    box: OffsetBox
    null_vectors: NullVectors
    system: DependenceSystem
    eta: AngleBound
    degenerate: bool = False  # no admissible assignment existed
    witness_in: Optional[SymmetricPolygon] = None
    witness_mid: Optional[SymmetricPolygon] = None
    witness_out: Optional[SymmetricPolygon] = None
    delta: Optional[Fraction] = None

    @cached_property
    def kills(self) -> tuple[KillRecord, ...]:
        """Every admissible assignment's record in lexicographic order: its
        class tuple's y, h = yᵀb(t), and h's sign on the box (0 where h has
        a root in the box). Needs every class tuple in the table; the
        checker reads the table itself.

        Each class tuple's 2^(2ℓ+1) records come in one pass over its side
        choices, with the signs from `_side_choice_ranges`."""
        m = self.polygon.m
        offsets = self.polygon.scaled[::2]  # (D, offsets·D)
        factors = _box_factors(self.polygon, self.box)
        table = dict(self.null_vectors)
        records = []
        for classes in itertools.permutations(range(m), 2 * self.system.ell + 1):
            y = table[classes]
            mids, radius = _side_choice_ranges(y, classes, factors)
            for alpha, mid in zip(_side_choices(classes, m), mids):
                sign = 1 if mid > radius else -1 if mid < -radius else 0
                records.append(KillRecord(
                    alpha, y, _functional(alpha, y, offsets), sign))
        records.sort(key=operator.attrgetter("alpha"))
        return tuple(records)


def certify_box(S: DependenceSystem, B1: SymmetricPolygon,
                delta0: RationalLike, eta: AngleBound) -> NormCertificate:
    """Kill every admissible assignment in lexicographic order, shrinking the
    offset box; the final box carries a sign-definite functional per
    assignment, from the first null vector of its class tuple.

    Once a class tuple passes `_class_tuple_killed`, its remaining
    assignments are sign-definite on the current box and on every later one
    (the box only shrinks), so killing them would leave the box unchanged.
    The walk therefore merges, in lexicographic order, only the assignments
    of class tuples not yet killed; each of those builds its form and goes
    through `kill_assignment`, which gives the same box as killing every
    assignment in turn.

    The walk keeps no kill records. Each killed assignment's sign needs no
    recheck: `kill_assignment` raises unless h is sign-definite on the
    sub-box it returns, and every later box lies inside that one. The one
    recheck left retests every class tuple on the final box; it is the only
    self-check of the merge walk.

    Each box's `_box_factors` are computed once, after each shrink, and
    shared by every class-tuple test on that box. On the pipeline system
    (decagon, δ₀ = 1/64) this takes 2.5 ms (best of 15, Python 3.11, 2
    cores). A flat walk of `enumerate_admissible` that skips assignments of
    proven class tuples gives the same box in 8.5 ms without its final
    recheck, so the merge stays.
    """
    if not B1.is_eta_short(eta):
        raise CertifierError("polygon sides are not η-short")
    m = B1.m
    box = OffsetBox.symmetric(delta0, m)
    offsets = B1.scaled[::2]  # (D, offsets·D)
    factors = _box_factors(B1, box)
    firsts = {classes: basis[0] for classes, basis in _null_spaces(S, B1).items()}
    # one pending (assignment, class tuple) per live class tuple; the first
    # assignment is the class tuple itself, so the list starts sorted, which
    # makes it a heap, and assignments are distinct, so they alone order it
    pending = [(classes, classes) for classes in firsts]
    walks: dict[tuple[int, ...], Iterator[Assignment]] = {}
    while pending:
        alpha, classes = heapq.heappop(pending)
        y = firsts[classes]
        if _class_tuple_killed(y, classes, factors):
            continue
        box, _ = kill_assignment(alpha, (y, _functional(alpha, y, offsets)), box)
        factors = _box_factors(B1, box)
        if classes not in walks:
            # its later side choices; the first is the class tuple itself
            walks[classes] = itertools.islice(_side_choices(classes, m), 1, None)
        successor = next(walks[classes], None)
        if successor is not None:
            heapq.heappush(pending, (successor, classes))
    cert = NormCertificate(polygon=B1, box=box, null_vectors=tuple(firsts.items()),
                           system=S, eta=eta, degenerate=not firsts)
    # every class tuple on the final box: the one self-check of the walk
    if not all(_class_tuple_killed(y, classes, factors)
               for classes, y in firsts.items()):
        failing = [rec.alpha for rec in cert.kills if rec.sign == 0]
        raise CertifierError(
            f"kill record for {min(failing)} is not sign-definite "
            "on the final box")
    return cert


def witness_norm(cert: NormCertificate) -> NormCertificate:
    """Fill the witness sandwich B_in ⊆ B ⊆ B_out and the margin δ: any
    symmetric convex body within Hausdorff δ of B stays inside the sandwich.

    Refuses a box on which some trapezoid of B_out ∖ B_in is not η-short,
    the test the checker applies, here on the integer vertex tables."""
    B1, box = cert.polygon, cert.box
    b_in = offset_polygon(B1, box.lo)
    b_mid = offset_polygon(B1, box.center())
    b_out = offset_polygon(B1, box.hi)
    delta = min((hi - lo) / (2 * upper) for lo, hi, upper
                in zip(box.lo, box.hi, norm_uppers(B1)))
    if delta <= 0:
        raise CertifierError("margin δ must be positive")
    # a convex quad avoiding 0 spans its widest angle between two corners;
    # trapezoid m+i is −trapezoid i
    for side, quad in enumerate(_trapezoid_quads(b_in, b_out, B1.m)):
        if not all(scaled_segment_is_eta_short(p, q, cert.eta)
                   for p, q in itertools.combinations(quad, 2)):
            raise CertifierError(f"trapezoid {side} is not η-short")
    return replace(cert, witness_in=b_in, witness_mid=b_mid,
                   witness_out=b_out, delta=delta)


# --- trapezoid decomposition of B_out ∖ B_in ----------------------------------


def _trapezoid_quads(b_in: SymmetricPolygon, b_out: SymmetricPolygon,
                     count: int) -> list[tuple[tuple[int, int, int], ...]]:
    """The corners of the region of B_out ∖ B_in over each side s < count,
    (inner start, inner end, outer end, outer start), as vertex-table
    entries (X, Y, E), E > 0, of B_in and B_out."""
    t_in, t_out = b_in._vertex_table, b_out._vertex_table
    return [(t_in[side - 1], t_in[side], t_out[side], t_out[side - 1])
            for side in range(count)]


def _trapezoid_edges(cert: NormCertificate) -> list[list[tuple[int, int, int]]]:
    """The four edges of every trapezoid, corner a to the next corner b, as
    integer triples (K, P, Q): for a = A/e_a, b = B/e_b and a point
    p = (x, y)/E, (b − a)×(p − a) = a×b + b×p + p×a, which times
    e_a·e_b·E > 0 is K·E + P·x + Q·y."""
    return [[(ax * by - ay * bx, ay * eb - by * ea, bx * ea - ax * eb)
             for (ax, ay, ea), (bx, by, eb) in zip(quad, quad[1:] + quad[:1])]
            for quad in _trapezoid_quads(cert.witness_in, cert.witness_out,
                                         2 * cert.polygon.m)]


def _in_trapezoid(edges: Sequence[tuple[int, int, int]], x: int, y: int,
                  E: int) -> bool:
    """Exact convex-quad membership of (x/E, y/E), E > 0, boundary counting
    as inside: no two edges see the point on opposite sides."""
    pos = neg = False
    for K, P, Q in edges:
        c = K * E + P * x + Q * y
        pos = pos or c > 0
        neg = neg or c < 0
    return not (pos and neg)


def _sweep_ok(cert: NormCertificate) -> bool:
    """Each trapezoid lies between its side's two offset lines: every
    corner p of trapezoid s lies on ⟨n_s, z⟩ = c_s + t with lo_s ≤ t ≤ hi_s,
    an integer test over Dc·D·E (Dc the offsets', D the box's and E the
    corner's denominator). Trapezoid m+s is −trapezoid s, on the line
    ⟨n_s, z⟩ = −(c_s + t), so the first m sides decide."""
    Dc, normals, cs = cert.polygon.scaled
    D, lo, hi = cert.box.scaled
    quads = _trapezoid_quads(cert.witness_in, cert.witness_out, cert.polygon.m)
    for s, ((nx, ny), quad) in enumerate(zip(normals, quads)):
        for X, Y, E in quad:
            t = (nx * X + ny * Y) * D * Dc - cs[s] * D * E
            if not lo[s] * Dc * E <= t <= hi[s] * Dc * E:
                return False
    return True


# --- randomized + directed refutation ------------------------------------------


@dataclass(frozen=True)
class RefutationHit:
    """A t in the box whose system is solvable (algebraic violation), plus
    the geometric status of the solved directions."""

    alpha: Assignment
    t: tuple[Fraction, ...]
    directions: tuple[Vec2, ...]
    in_trapezoids: bool
    eta_separated: bool
    source: str  # "random" | "directed"


@dataclass(frozen=True)
class VerifyReport:
    trials: int
    alphas_checked: int
    sweep_ok: bool
    hits: tuple[RefutationHit, ...]

    @property
    def counterexample_found(self) -> bool:
        return bool(self.hits)


def _root_in_box(h: AffineForm, box: OffsetBox) -> tuple[int, list[int]]:
    """A t in the box with h(t) = 0 as (T, t·T), T > 0, for an h whose range
    on the box contains 0 (`h.sign_on(box) == 0`).

    Starting at the center, where h is the midpoint of its range, each
    coordinate absorbs as much of the residual value as its half-width
    allows; the residual reaches zero because the range contains it. Over
    2·den·D (den = h.den, D the box's common denominator, L = lo·D and
    H = hi·D) the residual and each reach are integers. A coordinate that
    absorbs its whole reach moves to a bound of the box; the one that
    absorbs the rest, j, stops at ((L_j + H_j)·c − value)/(2·D·c) with
    c = nums[j], so t·T is integral for T = 2·D·|c|.
    """
    D, L, H = box.scaled
    lo, hi, _ = h._bounds_on(box)
    value = lo + hi
    ts = [a + b for a, b in zip(L, H)]  # the center times 2·D
    for j, c in enumerate(h.nums):
        if value == 0:
            break
        if c == 0:
            continue
        reach = abs(c) * (H[j] - L[j])
        if abs(value) <= reach:
            ts = [v * abs(c) for v in ts]
            ts[j] -= value if c > 0 else -value
            return 2 * D * abs(c), ts
        ts[j] = 2 * (H[j] if (value < 0) == (c > 0) else L[j])
        value += reach if value < 0 else -reach
    return 2 * D, ts


def sample_verify(cert: NormCertificate, trials: int, seed: int = 0) -> VerifyReport:
    """Directed + randomized refutation oracle.

    Directed pass: per assignment, search the box for a root of each
    left-null functional h — the only place a solvable system can hide. With
    a 1-dimensional null space this is an exact decision: the system is
    solvable at t iff h(t) = 0, and a root is found iff h's interval on the
    box contains 0. A class tuple with a 1-dimensional null space that
    `_class_tuple_killed` clears has no root on the box for any side choice,
    so its assignments are decided without building their forms. Random
    pass: sample `trials` points t in the box (so B′ = B₁(t) is a sandwich
    norm) and check the assignments left open, those with a null space of
    dimension ≥ 2, are unsolvable there; `trials` sizes only this pass. Also
    asserts the sweep property: each trapezoid lies between its side's two
    offset lines. Any solvable system inside the box is reported as a hit
    (certificate bug); zero hits is the expected outcome.

    The reject path runs in integers: each t is carried as (T, t·T), b(t)
    times Dc·T (Dc the offsets' denominator) goes to `solve_integer`, and
    the solved directions share one denominator, against which the
    trapezoid, sweep and η-separation tests cross-multiply. A hit builds its
    `Fraction` t and `Vec2` directions only when it is recorded.

    Needs the witness sandwich that `witness_norm` fills: without it the
    trapezoid and sweep tests have nothing to test, so a certificate
    without it is a CertifierError.
    """
    if cert.witness_in is None or cert.witness_out is None:
        raise CertifierError("verify needs the witness sandwich: "
                             "run witness_norm first")
    B1, box, S = cert.polygon, cert.box, cert.system
    m = B1.m
    sweep_ok = _sweep_ok(cert)
    edges = _trapezoid_edges(cert)
    Dc, _, cs = B1.scaled
    s_num, s_den = cert.eta.sin_sq.numerator, cert.eta.sin_sq.denominator
    hits: list[RefutationHit] = []
    systems: dict[tuple[int, ...], list[list[int]]] = {}

    def try_solve(alpha, classes, T, ts, source):
        if classes not in systems:
            systems[classes] = build_system(S, B1, classes)
        # b(t)·Dc·T: side αᵢ lies on ⟨n, z⟩ = ±(c + t) at coordinate αᵢ mod m
        rhs = [cs[a] * T + ts[a] * Dc if a < m else -(cs[a - m] * T + ts[a - m] * Dc)
               for a in alpha]
        found = solve_integer([row + [v] for row, v in zip(systems[classes], rhs)])
        if found is None:
            return
        d, X = found
        E = d * Dc * T  # the directions' common denominator, E > 0
        base = [(X[2 * s], X[2 * s + 1]) for s in range(S.ell)]
        us = base + [(sum(c * x for c, (x, _) in zip(row, base)),
                      sum(c * y for c, (_, y) in zip(row, base)))
                     for row in S.coeffs]
        in_traps = all(_in_trapezoid(edges[side], x, y, E)
                       for side, (x, y) in zip(alpha, us))
        # η-separation: (u×v)² ≥ sin²η·|u|²|v|², E⁴ cancelled
        separated = all(x or y for x, y in us) and all(
            (ux * vy - uy * vx) ** 2 * s_den
            >= s_num * (ux * ux + uy * uy) * (vx * vx + vy * vy)
            for (ux, uy), (vx, vy) in itertools.combinations(us, 2))
        hits.append(RefutationHit(
            alpha, tuple(Fraction(v, T) for v in ts),
            tuple(Vec2(Fraction(x, E), Fraction(y, E)) for x, y in us),
            in_traps, separated, source))

    null_spaces = _null_spaces(S, B1)
    factors = _box_factors(B1, box)
    # a class tuple with a 1-dimensional null space that the signed-sum test
    # clears has no root in the box for any side choice; the others are
    # walked assignment by assignment, in lexicographic order
    undecided = sorted(
        alpha for classes, basis in null_spaces.items()
        if len(basis) > 1 or not _class_tuple_killed(basis[0], classes, factors)
        for alpha in _side_choices(classes, m))
    # directed pass: construct a root of each null functional inside the box
    # whenever its interval straddles zero (complete for 1-dim null spaces;
    # with several independent functionals a root of one must still zero the
    # others, so those assignments stay open for the random pass)
    open_systems = []
    for alpha, classes, functionals in _assignment_functionals(
            B1, null_spaces, undecided):
        hforms = [h for _, h in functionals]
        for h in hforms:
            if h.sign_on(box):
                continue  # sign-definite: no root in the box
            T, ts = _root_in_box(h, box)
            if all(hf._scaled_value(T, ts) == 0 for hf in hforms):
                try_solve(alpha, classes, T, ts, "directed")
        if len(hforms) > 1:
            open_systems.append((alpha, classes, hforms))
    # random pass: tᵢ = loᵢ + (hiᵢ − loᵢ)·r/GRID, drawn over the box's common
    # denominator D; only open systems can be hit, so without them no t is
    # drawn. Every t of a trial has the denominator D·GRID, so h(t) = 0 is
    # tested on the numerators.
    rng = random.Random(seed)
    GRID = 1 << 30
    D, lo, hi = box.scaled
    DG = D * GRID
    for _ in range(trials if open_systems else 0):
        ts = [a * GRID + (b - a) * rng.randrange(GRID + 1)
              for a, b in zip(lo, hi)]
        for alpha, classes, hforms in open_systems:
            if all(hf._scaled_value(DG, ts) == 0 for hf in hforms):
                try_solve(alpha, classes, DG, ts, "random")
    # every admissible assignment is decided: 2^(2ℓ+1) side choices per class tuple
    alphas_checked = len(null_spaces) << (2 * S.ell + 1)
    return VerifyReport(trials, alphas_checked, sweep_ok, tuple(hits))
