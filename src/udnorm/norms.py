"""Planar norms: exact polygonal unit balls, offset polygons, Hausdorff
distance, and polygonal approximation of a norm oracle.

Everything a certificate reads is exact: rational normals and offsets, a
rational gauge, integer facet, η-short and Hausdorff tests. A norm oracle
is a polygon or the Euclidean norm, and its Hausdorff distance to a
polygon is a proved interval for both kinds. Floats only choose where
`polygon_approx` samples; each candidate it returns is tested exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

from .ratlin import (
    RatInterval,
    RationalLike,
    Vec2,
    over_common_denominator,
    rat,
    sqrt_interval,
)


class PolygonError(ValueError):
    """Raised when constraint data does not describe a valid symmetric polygon."""


@dataclass(frozen=True)
class AngleBound:
    """An angle bound η carried as (sin η)² so every test stays rational."""

    sin_sq: Fraction

    def __post_init__(self):
        if not (0 < self.sin_sq <= 1):
            raise ValueError("sin_sq must lie in (0, 1]")

    @staticmethod
    def of(sin_sq: RationalLike) -> "AngleBound":
        return AngleBound(rat(sin_sq))

    def radians(self) -> float:
        return math.asin(math.sqrt(float(self.sin_sq)))


def eta_separated(u: Vec2, v: Vec2, eta: AngleBound) -> bool:
    """True iff the lines spanned by u and v meet at angle ≥ η (exact)."""
    if u.is_zero() or v.is_zero():
        raise ValueError("zero vector has no direction")
    c = u.cross(v)
    return c * c >= eta.sin_sq * u.norm_sq() * v.norm_sq()


def scaled_segment_is_eta_short(a: tuple[int, int, int], b: tuple[int, int, int],
                                eta: AngleBound) -> bool:
    """True iff no two lines through 0 with mutual angle ≥ η meet the
    segment ab, for two points given as vertex-table entries (X, Y, E),
    E > 0, the point (X/E, Y/E), neither of them 0.

    For a segment avoiding 0 that is: the endpoint directions span an angle
    < η. Endpoint directions at or beyond a right angle always fail since
    η ≤ π/2. The positive denominators cancel from both tests."""
    (ax, ay, _), (bx, by, _) = a, b
    if ax * bx + ay * by <= 0:
        return False
    c = ax * by - ay * bx
    s = eta.sin_sq
    return c * c * s.denominator < s.numerator * (ax * ax + ay * ay) * (bx * bx + by * by)


def canonical_sign(x, y) -> int:
    """The s = ±1 with s·(x, y) in the closed upper halfplane minus the
    negative x-axis; rejects (0, 0). Works on any ordered coordinates, so
    integer-scaled pairs get the same sign as their rational originals."""
    if y > 0 or (y == 0 and x > 0):
        return 1
    if y == 0 and x == 0:
        raise ValueError("zero vector has no canonical direction")
    return -1


def canonical_direction(v: Vec2) -> tuple[Vec2, int]:
    """(u, s) with u = s·v in the closed upper halfplane minus the negative
    x-axis; rejects the zero vector."""
    s = canonical_sign(v.x, v.y)
    return (v if s == 1 else -v), s


def _angle_sort_key(v: Vec2):
    # Total order by angle over [0, π) for canonical-halfplane vectors:
    # y == 0 (angle 0) first, then by cot θ = x/y descending.
    if v.y == 0:
        return (0, Fraction(0))
    return (1, -v.x / v.y)


def _primitive_pair(n: Vec2, c: Fraction) -> tuple[Vec2, Fraction]:
    den = math.lcm(n.x.denominator, n.y.denominator)
    ax, ay = int(n.x * den), int(n.y * den)
    g = math.gcd(ax, ay)
    scale = Fraction(den, g)
    return Vec2(n.x * scale, n.y * scale), c * scale


@dataclass(frozen=True)
class SymmetricPolygon:
    """0-symmetric convex 2m-gon {z : |⟨nᵢ, z⟩| ≤ cᵢ, i = 1..m}.

    Constraints are canonicalized by `from_pairs`: normals are primitive
    integer vectors in the upper halfplane, listed in ascending angular
    order over the half-turn; side s_{m+i} is −s_i. Every constraint must
    be facet-defining. Direct construction requires integer normals.

    Exact tests read one integer view (`scaled`) and one integer vertex
    table per polygon, each computed once.
    """

    normals: tuple[Vec2, ...]
    offsets: tuple[Fraction, ...]

    def __post_init__(self):
        for n in self.normals:
            if n.x.denominator != 1 or n.y.denominator != 1:
                raise PolygonError(f"normal {n} is not an integer vector")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Vec2, RationalLike]]) -> "SymmetricPolygon":
        canon = []
        for n, c in pairs:
            c = rat(c)
            if n.is_zero():
                raise PolygonError("zero normal")
            if c <= 0:
                raise PolygonError("offsets must be positive (0 interior)")
            canon.append(_primitive_pair(canonical_direction(n)[0], c))
        canon.sort(key=lambda pc: _angle_sort_key(pc[0]))
        if len(canon) < 2:
            raise PolygonError("need at least two side pairs to bound the plane")
        for (a, _), (b, _) in zip(canon, canon[1:]):
            if a.cross(b) == 0:
                raise PolygonError(f"parallel normals {a} and {b}")
        poly = SymmetricPolygon(
            tuple(n for n, _ in canon), tuple(c for _, c in canon)
        )
        poly._validate_facets()
        return poly

    @property
    def m(self) -> int:
        return len(self.normals)

    # --- the integer tables -------------------------------------------------

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]:
        """The polygon's one integer view, (D, normals, offsets·D): D the
        offsets' least common denominator and each normal as its integer
        pair (x, y). The integer geometry, certify and the checker read it."""
        D, cs = over_common_denominator(self.offsets)
        return D, tuple((n.x.numerator, n.y.numerator) for n in self.normals), cs

    @cached_property
    def _vertex_table(self) -> tuple[tuple[int, int, int], ...]:
        """Vertex i as integers (X, Y, E), E > 0: the point (X/E, Y/E).

        With side i on ⟨n₁, z⟩ = O₁/D and side i+1 on ⟨n₂, z⟩ = O₂/D,
        det = n₁×n₂, X = O₁n₂ʸ − O₂n₁ʸ, Y = n₁ˣO₂ − n₂ˣO₁ and E = det·D.
        Vertex m+i is −vertex i, so only the first m are solved.
        """
        D, ns, cs = self.scaled
        m = len(ns)
        half = []
        for i in range(m):
            (ax, ay), o1 = ns[i], cs[i]
            if i + 1 < m:
                (bx, by), o2 = ns[i + 1], cs[i + 1]
            else:
                (bx, by), o2 = ns[0], -cs[0]
            det = ax * by - ay * bx
            X, Y, E = o1 * by - o2 * ay, ax * o2 - bx * o1, det * D
            half.append((X, Y, E) if E > 0 else (-X, -Y, -E))
        return tuple(half) + tuple((-X, -Y, E) for X, Y, E in half)

    @cached_property
    def _vertices(self) -> tuple[Vec2, ...]:
        return tuple(Vec2(Fraction(X, E), Fraction(Y, E))
                     for X, Y, E in self._vertex_table)

    # --- side indexing: sides 0..2m−1, side m+i = −side i ------------------

    def side_line(self, i: int) -> tuple[Vec2, Fraction]:
        """(n, o) with side i on the line ⟨n, z⟩ = o (o signed)."""
        m = self.m
        i %= 2 * m
        if i < m:
            return self.normals[i], self.offsets[i]
        return self.normals[i - m], -self.offsets[i - m]

    def vertex(self, i: int) -> Vec2:
        """Vertex between side i and side i+1."""
        return self._vertices[i % (2 * self.m)]

    def vertices(self) -> tuple[Vec2, ...]:
        return self._vertices

    def side_segment(self, i: int) -> tuple[Vec2, Vec2]:
        """Endpoints of side i (between vertices i−1 and i)."""
        return self.vertex(i - 1), self.vertex(i)

    def _validate_facets(self):
        # vertex m+k is −vertex k and the constraints are symmetric, so a
        # failure at k+m repeats one at k: the first m vertices decide, in
        # the order (side k degenerate, then vertex k infeasible)
        D, ns, cs = self.scaled
        table = self._vertex_table
        for k in range(self.m):
            X, Y, E = table[k]
            pX, pY, pE = table[k - 1]
            if X * pE == pX * E and Y * pE == pY * E:
                raise PolygonError(f"side {k} degenerates to a point")
            for (nx, ny), C in zip(ns, cs):
                if abs(nx * X + ny * Y) * D > C * E:
                    raise PolygonError("redundant constraint: candidate vertex infeasible")

    # --- norm evaluation ----------------------------------------------------

    def gauge(self, z: Vec2) -> Fraction:
        """The norm of z: max_i |⟨nᵢ, z⟩| / cᵢ (exact)."""
        return max(abs(n.dot(z)) / c for n, c in zip(self.normals, self.offsets))

    def is_eta_short(self, eta: AngleBound) -> bool:
        """True iff every side is so short that no two η-separated lines meet it.

        `scaled_segment_is_eta_short` on each side. Side m+i is −side i.
        """
        table = self._vertex_table
        return all(scaled_segment_is_eta_short(table[i - 1], table[i], eta)
                   for i in range(self.m))

    def area(self) -> Fraction:
        verts = self.vertices()
        acc = Fraction(0)
        for i in range(len(verts)):
            acc += verts[i - 1].cross(verts[i])
        return abs(acc) / 2


def square(half_side: RationalLike = 1) -> SymmetricPolygon:
    """Coordinate-max unit ball [−a, a]²."""
    a = rat(half_side)
    return SymmetricPolygon.from_pairs([(Vec2.of(1, 0), a), (Vec2.of(0, 1), a)])


# Per-side-pair offsets t, measured in the functional scale ⟨nᵢ,·⟩ = cᵢ + tᵢ.
OffsetVector = tuple[Fraction, ...]


def offset_polygon(B1: SymmetricPolygon, t) -> SymmetricPolygon:
    """B₁(t): the polygon with offsets cᵢ + tᵢ; fails if a side goes redundant.

    B₁'s normals are already canonical (primitive, upper halfplane, sorted,
    pairwise non-parallel), so B₁(t) keeps them as they are and only the
    offsets' positivity and the facets are checked.
    """
    ts = list(t)
    if len(ts) != B1.m:
        raise PolygonError("offset vector length must match side-pair count")
    offsets = tuple(c + rat(dt) for c, dt in zip(B1.offsets, ts))
    if any(c <= 0 for c in offsets):
        raise PolygonError("offsets must be positive (0 interior)")
    poly = SymmetricPolygon(B1.normals, offsets)
    poly._validate_facets()
    return poly


# --- Hausdorff distance ------------------------------------------------------


def _point_segment_dist_sq(p: tuple[int, int], a: tuple[int, int],
                           b: tuple[int, int]) -> tuple[int, int]:
    """Squared distance from p to segment ab (integer points, a ≠ b) as an
    integer pair (num, den): the foot of the perpendicular is never formed,
    since |ap|²|ab|² = (ap·ab)² + (ap×ab)²."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    dot = apx * abx + apy * aby
    if dot <= 0:
        return apx * apx + apy * apy, 1
    denom = abx * abx + aby * aby
    if dot >= denom:
        bpx, bpy = p[0] - b[0], p[1] - b[1]
        return bpx * bpx + bpy * bpy, 1
    cross = apx * aby - apy * abx
    return cross * cross, denom


def _directed_hausdorff_sq(A: SymmetricPolygon, B: SymmetricPolygon) -> Fraction:
    """sup over A of the squared distance to B, attained at a vertex of A
    (convexity); both vertex tables are scaled to one denominator L."""
    # A and B are 0-symmetric, so A's first m vertices suffice; vertex m+i
    # of either table repeats the denominator of vertex i
    ta, tb = A._vertex_table[:A.m], B._vertex_table
    L = math.lcm(*(E for _, _, E in ta), *(E for _, _, E in tb[:B.m]))
    pa = [(X * (L // E), Y * (L // E)) for X, Y, E in ta]
    pb = [(X * (L // E), Y * (L // E)) for X, Y, E in tb]
    D, ns, cs = B.scaled
    best_num, best_den = 0, 1
    for p in pa:
        # p/L lies in B: each |⟨n, p/L⟩| ≤ c, times D·L
        if all(abs(nx * p[0] + ny * p[1]) * D <= C * L
               for (nx, ny), C in zip(ns, cs)):
            continue
        num, den = _point_segment_dist_sq(p, pb[-1], pb[0])
        for i in range(1, len(pb)):
            n2, d2 = _point_segment_dist_sq(p, pb[i - 1], pb[i])
            if n2 * den < num * d2:
                num, den = n2, d2
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den * L * L)


def hausdorff(A: SymmetricPolygon, B: SymmetricPolygon) -> RatInterval:
    """Two-sided Hausdorff distance max(h(A,B), h(B,A)) as an interval of
    width ≤ 10^−12."""
    d_sq = max(_directed_hausdorff_sq(A, B), _directed_hausdorff_sq(B, A))
    return sqrt_interval(d_sq)


# --- norm oracles ------------------------------------------------------------

@dataclass(frozen=True)
class NormOracle:
    """A norm to approximate: an exact polygon, or the Euclidean norm."""

    kind: str  # "polygon" | "euclidean"
    polygon: Optional[SymmetricPolygon] = None

    def __post_init__(self):
        if self.kind == "polygon":
            if self.polygon is None:
                raise ValueError("polygon oracle needs a polygon")
        elif self.kind != "euclidean":
            raise ValueError(f"unknown norm kind {self.kind!r}")

    @staticmethod
    def of_polygon(B: SymmetricPolygon) -> "NormOracle":
        return NormOracle("polygon", polygon=B)

    @staticmethod
    def euclidean() -> "NormOracle":
        return NormOracle("euclidean")


def hausdorff_to_oracle(B1: SymmetricPolygon, oracle: NormOracle) -> RatInterval:
    """Hausdorff distance from B1 to the oracle's unit ball, exact for both
    kinds: an interval of width ≤ 10^−12 from square-root enclosures.

    For the unit disc it is the larger of (largest vertex norm − 1), how
    far B1 reaches out of the disc, and (1 − smallest distance from 0 to a
    side line), how far the disc reaches out of B1, each clipped at 0.
    """
    if oracle.kind == "polygon":
        return hausdorff(B1, oracle.polygon)
    out_sq = max(Fraction(X * X + Y * Y, E * E)
                 for X, Y, E in B1._vertex_table[:B1.m])
    out_iv = sqrt_interval(out_sq)
    h_out = RatInterval(max(Fraction(0), out_iv.lo - 1),
                        max(Fraction(0), out_iv.hi - 1))
    # distance from 0 to side line i is cᵢ/‖nᵢ‖
    dist_ivs = []
    for n, c in zip(B1.normals, B1.offsets):
        nn = sqrt_interval(n.norm_sq())
        dist_ivs.append(RatInterval(c / nn.hi, c / nn.lo))
    min_lo = min(iv.lo for iv in dist_ivs)
    min_hi = min(iv.hi for iv in dist_ivs)
    h_in = RatInterval(max(Fraction(0), 1 - min_hi),
                       max(Fraction(0), 1 - min_lo))
    return h_out.max_with(h_in)


# --- polygonal approximation with bulging ------------------------------------


def _convex_hull(points: list[Vec2]) -> list[Vec2]:
    """Strict convex hull (collinear points dropped), counterclockwise."""
    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) < 3:
        return [Vec2(x, y) for x, y in pts]

    def build(seq):
        out = []
        for q in seq:
            while len(out) > 1:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (q[1] - oy) - (ay - oy) * (q[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(q)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return [Vec2(x, y) for x, y in hull]


def polygon_from_hull(points: list[Vec2]) -> SymmetricPolygon:
    """Symmetric polygon whose boundary is the hull of a 0-symmetric point set."""
    hull = _convex_hull(points)
    if len(hull) < 4:
        raise PolygonError("hull is degenerate")
    pairs = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        d = b - a
        n = Vec2(d.y, -d.x)
        c = n.dot(a)
        if c < 0:
            n, c = -n, -c
        if c == 0:
            raise PolygonError("hull edge through the origin")
        if canonical_sign(n.x, n.y) == 1:
            pairs.append((n, c))
    return SymmetricPolygon.from_pairs(pairs)


class ApproxError(ValueError):
    """Raised when polygon approximation cannot meet its postconditions."""


def polygon_approx(oracle: NormOracle, eps: RationalLike, eta: AngleBound,
                   side_cap: int = 4096) -> SymmetricPolygon:
    """0-symmetric polygon within Hausdorff ε/2 of the oracle's ball, all
    sides η-short; straight boundary pieces get bulged strictly outward."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if oracle.kind == "polygon":
        return _approx_from_polygon(oracle, oracle.polygon, eps, eta, side_cap)
    B1 = _approx_sampled(eps, eta, side_cap)
    # vertices land exactly on the unit circle
    assert all(v.norm_sq() == 1 for v in B1.vertices())
    return B1


def _subtended_angle(a: Vec2, b: Vec2) -> float:
    na = math.hypot(float(a.x), float(a.y))
    nb = math.hypot(float(b.x), float(b.y))
    c = max(-1.0, min(1.0, (float(a.dot(b))) / (na * nb)))
    return math.acos(c)


def _verify_approx(B1: SymmetricPolygon, oracle: NormOracle, eps: Fraction,
                   eta: AngleBound, side_cap: int) -> bool:
    if B1.m * 2 > side_cap:
        raise ApproxError(
            f"required side count {2 * B1.m} exceeds cap {side_cap}")
    if not B1.is_eta_short(eta):
        return False
    hd = hausdorff_to_oracle(B1, oracle)
    return hd.hi <= eps / 2


def _approx_from_polygon(oracle: NormOracle, B0: SymmetricPolygon, eps: Fraction,
                         eta: AngleBound, side_cap: int) -> SymmetricPolygon:
    step = eta.radians() / 4
    counts = []
    for i in range(B0.m):
        a, b = B0.side_segment(i)
        counts.append(max(2, math.ceil(_subtended_angle(a, b) / step)))
    bulge = eps / 8
    for _ in range(40):
        for _ in range(40):
            B1 = _build_bulged(B0, counts, bulge)
            if B1 is not None:
                break
            bulge /= 2
        else:
            raise ApproxError("could not place bulged points in convex position")
        if _verify_approx(B1, oracle, eps, eta, side_cap):
            return B1
        counts = [2 * c for c in counts]
    raise ApproxError("subdivision did not converge to η-short sides")


def _build_bulged(B0: SymmetricPolygon, counts: list[int],
                  bulge: Fraction) -> Optional[SymmetricPolygon]:
    pts: list[Vec2] = list(B0.vertices())
    uppers = norm_uppers(B0)
    for i in range(2 * B0.m):
        a, b = B0.side_segment(i)
        n, _ = B0.side_line(i)
        out_dir = n if n.dot(a) > 0 else -n
        n_upper = uppers[i % B0.m]
        cnt = counts[i % B0.m]
        for j in range(1, cnt):
            lam = Fraction(j, cnt)
            base = a + (b - a).scale(lam)
            # parabolic bulge keeps the pushed points strictly convex
            t = (bulge * 4 * lam * (1 - lam)) / n_upper
            pts.append(base + out_dir.scale(t))
    sym = pts + [-p for p in pts]
    hull = _convex_hull(sym)
    if len(hull) != len(set((p.x, p.y) for p in sym)):
        return None
    try:
        return polygon_from_hull(sym)
    except PolygonError:
        return None


def _circle_point(th: float) -> Vec2:
    """The rational point (1 − t², 2t)/(1 + t²) of the unit circle, with
    t ≈ tan(θ/2)."""
    t = Fraction(math.tan(th / 2)).limit_denominator(10**8)
    den = 1 + t * t
    return Vec2((1 - t * t) / den, 2 * t / den)


def _approx_sampled(eps: Fraction, eta: AngleBound,
                    side_cap: int) -> SymmetricPolygon:
    """The hull of `_circle_point`(πj/M), j < M, and their negatives, with
    M doubled until it passes `_verify_approx` (at most 20 rounds)."""
    step = eta.radians() / 4
    M = max(3, math.ceil(math.pi / step))
    for _ in range(20):
        pts = [_circle_point(math.pi * j / M) for j in range(M)]
        B1 = polygon_from_hull(pts + [-q for q in pts])
        if _verify_approx(B1, NormOracle.euclidean(), eps, eta, side_cap):
            return B1
        M *= 2
    raise ApproxError("circle approximation did not converge")


# --- offset box radius -------------------------------------------------------


def norm_uppers(B1: SymmetricPolygon) -> list[Fraction]:
    """Rational upper bounds uᵢ ≥ ‖nᵢ‖, one per normal."""
    return [sqrt_interval(n.norm_sq()).hi for n in B1.normals]


def vertex_displacement_factor(B1: SymmetricPolygon) -> Fraction:
    """Rational K with: any offset t moves every vertex by ≤ K·max|tᵢ| (Euclidean)."""
    K = Fraction(0)
    m = B1.m
    us = norm_uppers(B1)
    for i in range(m):
        n1 = B1.normals[i]
        n2 = B1.normals[(i + 1) % m]
        det = abs(n1.cross(n2))
        K = max(K, (us[i] + us[(i + 1) % m]) / det)
    return K


def _validity_radius(B1: SymmetricPolygon, K: Fraction) -> Fraction:
    """δ with: every offset polygon B₁(t), max|tᵢ| ≤ δ, is still a valid
    2m-gon (every side facet-defining).

    Two sufficient margins, both exact: each vertex stays strictly feasible
    for every constraint not defining it (vertex moves ≤ δK while the
    constraint line moves ≤ δ in functional scale), and consecutive
    vertices stay distinct (each moves ≤ δK against their initial gap).
    The polygon is 0-symmetric, so vertices m..2m−1 repeat the margins of
    vertices 0..m−1.
    """
    m = B1.m
    D, ns, cs = B1.scaled
    table = B1._vertex_table
    bound = min(B1.offsets) / 4
    # over one denominator L·D, the gap cᵢ − |⟨nᵢ, v⟩| of vertex v = P/L
    # is the integer Cᵢ·L − |⟨nᵢ, P⟩|·D; only positive gaps bind
    L = math.lcm(*(E for _, _, E in table[:m]))
    pts = [(X * (L // E), Y * (L // E)) for X, Y, E in table]
    for (nx, ny), C, u in zip(ns, cs, norm_uppers(B1)):
        gaps = [g for g in (C * L - abs(nx * px + ny * py) * D for px, py in pts[:m])
                if g > 0]
        if gaps:
            bound = min(bound, Fraction(min(gaps), L * D) / (2 * (K * u + 1)))
    for i in range(m):
        (px, py), (qx, qy) = pts[i], pts[i - 1]
        side_gap = sqrt_interval(Fraction((px - qx) ** 2 + (py - qy) ** 2, L * L)).lo
        bound = min(bound, side_gap / (4 * K))
    return bound


def choose_delta0(B1: SymmetricPolygon, B0: NormOracle, eps: RationalLike,
                  eta: AngleBound) -> Fraction:
    """δ₀ > 0 for offset polygons B₁(t), |tᵢ| ≤ δ₀. Proved, not tested:

    - validity: every such B₁(t) is a 2m-gon with every side
      facet-defining, because δ₀ never exceeds `_validity_radius`, whose
      margins are at most half of the gaps they protect;
    - ε-closeness: matching vertices of B₁(t) and B₁ are at most K·max|tᵢ|
      apart (K the vertex-displacement factor), and so are matching convex
      combinations of them, so d_H(B₁(t), B₁) ≤ K·δ₀ ≤ slack/2 with
      slack = ε − d_H(B₁, oracle), and the triangle inequality gives
      d_H(B₁(t), oracle) ≤ ε − slack/2 < ε.

    Tested: η-shortness (when B₁ is η-short), only at the two uniform
    offsets ±δ₀, not for the whole box; δ₀ is halved until both pass.
    When B₁ is not η-short the first δ₀ is returned.
    """
    eps = rat(eps)
    slack = eps - hausdorff_to_oracle(B1, B0).hi
    if slack <= 0:
        raise ValueError("B1 is not strictly within eps of the oracle")
    K = vertex_displacement_factor(B1)
    delta0 = min(slack / (2 * K), _validity_radius(B1, K))
    if not B1.is_eta_short(eta):
        return delta0
    for _ in range(80):
        if all(offset_polygon(B1, (s,) * B1.m).is_eta_short(eta)
               for s in (delta0, -delta0)):
            return delta0
        delta0 /= 2
    raise ValueError("no admissible positive delta0 found")
