"""Planar norms: exact polygonal unit balls, offset polygons, Hausdorff
distance, and polygonal approximation of arbitrary norms.

Polygonal norms are fully exact (rational normals/offsets, rational gauge).
Analytic oracles (euclidean, p-norms) are supported for experiments; the
euclidean unit test is still exact (squared lengths), while p-norm
evaluation is floating point with a documented 1e-12 tolerance and is kept
out of certificate paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .ratlin import (
    RatInterval,
    RationalLike,
    Vec2,
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


def segment_is_eta_short(a: Vec2, b: Vec2, eta: AngleBound) -> bool:
    """True iff no two lines through 0 with mutual angle ≥ η meet segment ab.

    Equivalent (for a segment avoiding 0) to: the endpoint directions span
    an angle < η. Endpoint directions at or beyond a right angle always fail
    since η ≤ π/2.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("segment touches the origin")
    if a.dot(b) <= 0:
        return False
    c = a.cross(b)
    return c * c < eta.sin_sq * a.norm_sq() * b.norm_sq()


def _canonical_halfplane(v: Vec2) -> Vec2:
    """Representative of ±v in the upper halfplane minus the negative x-axis."""
    if v.y > 0 or (v.y == 0 and v.x > 0):
        return v
    return -v


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

    Constraints are canonicalized on construction: normals are primitive
    integer vectors in the upper halfplane, listed in ascending angular
    order over the half-turn; side s_{m+i} is −s_i. Every constraint must
    be facet-defining.
    """

    normals: tuple[Vec2, ...]
    offsets: tuple[Fraction, ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Vec2, RationalLike]]) -> "SymmetricPolygon":
        canon = []
        for n, c in pairs:
            c = rat(c)
            if n.is_zero():
                raise PolygonError("zero normal")
            if c <= 0:
                raise PolygonError("offsets must be positive (0 interior)")
            canon.append(_primitive_pair(_canonical_halfplane(n), c))
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

    # --- side indexing: sides 0..2m−1, side m+i = −side i ------------------

    def side_line(self, i: int) -> tuple[Vec2, Fraction]:
        """(n, o) with side i on the line ⟨n, z⟩ = o (o signed)."""
        m = self.m
        i %= 2 * m
        if i < m:
            return self.normals[i], self.offsets[i]
        return self.normals[i - m], -self.offsets[i - m]

    def vertex(self, i: int) -> Vec2:
        """Vertex between side i and side i+1 (exact 2×2 solve)."""
        n1, o1 = self.side_line(i)
        n2, o2 = self.side_line(i + 1)
        det = n1.cross(n2)
        x = (o1 * n2.y - o2 * n1.y) / det
        y = (n1.x * o2 - n2.x * o1) / det
        return Vec2(x, y)

    def vertices(self) -> tuple[Vec2, ...]:
        return tuple(self.vertex(i) for i in range(2 * self.m))

    def side_segment(self, i: int) -> tuple[Vec2, Vec2]:
        """Endpoints of side i (between vertices i−1 and i)."""
        return self.vertex(i - 1), self.vertex(i)

    def _validate_facets(self):
        verts = self.vertices()
        for k in range(2 * self.m):
            v = verts[k]
            if v == verts[k - 1]:
                raise PolygonError(f"side {k} degenerates to a point")
            for n, c in zip(self.normals, self.offsets):
                d = n.dot(v)
                if d > c or -d > c:
                    raise PolygonError("redundant constraint: candidate vertex infeasible")

    # --- norm evaluation ----------------------------------------------------

    def gauge(self, z: Vec2) -> Fraction:
        """The norm of z: max_i |⟨nᵢ, z⟩| / cᵢ (exact)."""
        return max(abs(n.dot(z)) / c for n, c in zip(self.normals, self.offsets))

    def contains(self, z: Vec2) -> bool:
        return all(abs(n.dot(z)) <= c for n, c in zip(self.normals, self.offsets))

    def contains_strictly(self, z: Vec2) -> bool:
        return all(abs(n.dot(z)) < c for n, c in zip(self.normals, self.offsets))

    def contains_polygon(self, other: "SymmetricPolygon") -> bool:
        return all(self.contains(v) for v in other.vertices())

    def is_eta_short(self, eta: AngleBound) -> bool:
        """True iff every side is so short that no two η-separated lines meet it."""
        return all(
            segment_is_eta_short(*self.side_segment(i), eta)
            for i in range(2 * self.m)
        )

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


def diamond(half_diag: RationalLike = 1) -> SymmetricPolygon:
    """ℓ₁ unit ball |x| + |y| ≤ a."""
    a = rat(half_diag)
    return SymmetricPolygon.from_pairs([(Vec2.of(1, 1), a), (Vec2.of(-1, 1), a)])


@dataclass(frozen=True)
class OffsetVector:
    """Per-side-pair offsets t, measured in the functional scale ⟨nᵢ,·⟩ = cᵢ + tᵢ."""

    values: tuple[Fraction, ...]

    @staticmethod
    def of(values: Sequence[RationalLike]) -> "OffsetVector":
        return OffsetVector(tuple(rat(v) for v in values))

    @staticmethod
    def uniform(t: RationalLike, m: int) -> "OffsetVector":
        return OffsetVector(tuple(rat(t) for _ in range(m)))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]


def offset_polygon(B1: SymmetricPolygon, t) -> SymmetricPolygon:
    """B₁(t): the polygon with offsets cᵢ + tᵢ; fails if a side goes redundant."""
    ts = list(t)
    if len(ts) != B1.m:
        raise PolygonError("offset vector length must match side-pair count")
    return SymmetricPolygon.from_pairs(
        (n, c + rat(dt)) for (n, c, dt) in zip(B1.normals, B1.offsets, ts)
    )


# --- Hausdorff distance ------------------------------------------------------


def _point_segment_dist_sq(p: Vec2, a: Vec2, b: Vec2) -> Fraction:
    ab = b - a
    ap = p - a
    denom = ab.norm_sq()
    t = ap.dot(ab) / denom
    if t <= 0:
        return ap.norm_sq()
    if t >= 1:
        return (p - b).norm_sq()
    foot = a + ab.scale(t)
    return (p - foot).norm_sq()


def point_polygon_dist_sq(p: Vec2, B: SymmetricPolygon) -> Fraction:
    """Exact squared Euclidean distance from p to the polygon (0 if inside)."""
    if B.contains(p):
        return Fraction(0)
    verts = B.vertices()
    return min(
        _point_segment_dist_sq(p, verts[i - 1], verts[i]) for i in range(len(verts))
    )


def _directed_hausdorff_sq(A: SymmetricPolygon, B: SymmetricPolygon) -> Fraction:
    # sup over A of dist(·, B) is attained at a vertex of A (convexity).
    return max(point_polygon_dist_sq(v, B) for v in A.vertices())


def hausdorff(A: SymmetricPolygon, B: SymmetricPolygon,
              max_width: RationalLike = Fraction(1, 10**12)) -> RatInterval:
    """Two-sided Hausdorff distance max(h(A,B), h(B,A)) as a tight interval."""
    d_sq = max(_directed_hausdorff_sq(A, B), _directed_hausdorff_sq(B, A))
    return sqrt_interval(d_sq, max_width)


# --- norm oracles ------------------------------------------------------------

PNORM_TOL = 1e-12


@dataclass(frozen=True)
class NormOracle:
    """A norm to approximate: exact polygon, euclidean, or p-norm (float)."""

    kind: str  # "polygon" | "euclidean" | "pnorm"
    polygon: Optional[SymmetricPolygon] = None
    p: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind == "polygon":
            if self.polygon is None:
                raise ValueError("polygon oracle needs a polygon")
        elif self.kind == "pnorm":
            if self.p is None or self.p < 1:
                raise ValueError("p-norm oracle needs rational p >= 1")
        elif self.kind != "euclidean":
            raise ValueError(f"unknown norm kind {self.kind!r}")

    @staticmethod
    def of_polygon(B: SymmetricPolygon) -> "NormOracle":
        return NormOracle("polygon", polygon=B)

    @staticmethod
    def euclidean() -> "NormOracle":
        return NormOracle("euclidean")

    @staticmethod
    def pnorm(p: RationalLike) -> "NormOracle":
        return NormOracle("pnorm", p=rat(p))

    def gauge_float(self, z: Vec2) -> float:
        x, y = float(z.x), float(z.y)
        if self.kind == "polygon":
            return float(self.polygon.gauge(z))
        if self.kind == "euclidean":
            return math.hypot(x, y)
        p = float(self.p)
        return (abs(x) ** p + abs(y) ** p) ** (1.0 / p)

    def is_unit(self, z: Vec2) -> bool:
        """Exact unit test for polygon/euclidean; 1e-12 tolerance for p-norms."""
        if self.kind == "polygon":
            return self.polygon.gauge(z) == 1
        if self.kind == "euclidean":
            return z.norm_sq() == 1
        return abs(self.gauge_float(z) - 1.0) <= PNORM_TOL


def hausdorff_to_oracle(B1: SymmetricPolygon, oracle: NormOracle,
                        max_width: RationalLike = Fraction(1, 10**12)) -> RatInterval:
    """Hausdorff distance from B1 to the oracle's unit ball.

    Exact (interval of requested width) for polygon and euclidean oracles;
    a sampled estimate with a stated slack for p-norm oracles.
    """
    if oracle.kind == "polygon":
        return hausdorff(B1, oracle.polygon, max_width)
    if oracle.kind == "euclidean":
        out_sq = max(v.norm_sq() for v in B1.vertices())
        out_iv = sqrt_interval(out_sq, max_width)
        h_out = RatInterval(max(Fraction(0), out_iv.lo - 1),
                            max(Fraction(0), out_iv.hi - 1))
        # distance from 0 to side line i is cᵢ/‖nᵢ‖
        dist_ivs = []
        for n, c in zip(B1.normals, B1.offsets):
            nn = sqrt_interval(n.norm_sq(), max_width)
            dist_ivs.append(RatInterval(c / nn.hi, c / nn.lo))
        min_lo = min(iv.lo for iv in dist_ivs)
        min_hi = min(iv.hi for iv in dist_ivs)
        h_in = RatInterval(max(Fraction(0), 1 - min_hi),
                           max(Fraction(0), 1 - min_lo))
        return h_out.max_with(h_in)
    return _hausdorff_pnorm_estimate(B1, oracle)


def _hausdorff_pnorm_estimate(B1: SymmetricPolygon, oracle: NormOracle,
                              samples: int = 2048) -> RatInterval:
    # Float estimate; slack covers the sampling gap. Experiments only.
    pts_b = []
    for j in range(samples):
        th = 2 * math.pi * j / samples
        g = oracle.gauge_float(Vec2.of(Fraction(math.cos(th)).limit_denominator(10**6),
                                       Fraction(math.sin(th)).limit_denominator(10**6)))
        pts_b.append((math.cos(th) / g, math.sin(th) / g))
    verts = [(float(v.x), float(v.y)) for v in B1.vertices()]
    pts_a = []
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        for j in range(8):
            lam = j / 8
            pts_a.append((ax + lam * (bx - ax), ay + lam * (by - ay)))

    def directed(ps, qs):
        return max(min(math.dist(p, q) for q in qs) for p in ps)

    est = max(directed(pts_a, pts_b), directed(pts_b, pts_a))
    slack = 8.0 * math.pi / samples + 1e-9
    return RatInterval(
        max(Fraction(0), Fraction(est).limit_denominator(10**9) - Fraction(slack).limit_denominator(10**9)),
        Fraction(est).limit_denominator(10**9) + Fraction(slack).limit_denominator(10**9),
    )


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
        if n.y > 0 or (n.y == 0 and n.x > 0):
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
    if oracle.kind == "euclidean":
        return _approx_euclidean(oracle, eps, eta, side_cap)
    return _approx_pnorm(oracle, eps, eta, side_cap)


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
    count_by_side = {i: counts[i % B0.m] for i in range(2 * B0.m)}
    for i in range(2 * B0.m):
        a, b = B0.side_segment(i)
        n, _ = B0.side_line(i)
        out_dir = n if n.dot(a) > 0 else -n
        n_upper = sqrt_interval(n.norm_sq()).hi
        cnt = count_by_side[i]
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


def _approx_euclidean(oracle: NormOracle, eps: Fraction, eta: AngleBound,
                      side_cap: int) -> SymmetricPolygon:
    step = eta.radians() / 4
    M = max(3, math.ceil(math.pi / step))
    for _ in range(20):
        pts = []
        for j in range(M):
            th = math.pi * j / M
            t = Fraction(math.tan(th / 2)).limit_denominator(10**8)
            den = 1 + t * t
            pts.append(Vec2((1 - t * t) / den, 2 * t / den))
        sym = pts + [-p for p in pts]
        B1 = polygon_from_hull(sym)
        # vertices land exactly on the unit circle
        assert all(v.norm_sq() == 1 for v in B1.vertices())
        if _verify_approx(B1, oracle, eps, eta, side_cap):
            return B1
        M *= 2
    raise ApproxError("circle approximation did not converge")


def _approx_pnorm(oracle: NormOracle, eps: Fraction, eta: AngleBound,
                  side_cap: int) -> SymmetricPolygon:
    step = eta.radians() / 4
    M = max(3, math.ceil(math.pi / step))
    p = float(oracle.p)
    for _ in range(20):
        pts = []
        for j in range(M):
            th = math.pi * j / M
            x, y = math.cos(th), math.sin(th)
            g = (abs(x) ** p + abs(y) ** p) ** (1.0 / p)
            # snap slightly inward so rationalization stays inside the ball
            shrink = 1.0 - 1e-9
            pts.append(Vec2(
                Fraction(x / g * shrink).limit_denominator(10**9),
                Fraction(y / g * shrink).limit_denominator(10**9),
            ))
        sym = pts + [-q for q in pts]
        B1 = polygon_from_hull(sym)
        if _verify_approx(B1, oracle, eps, eta, side_cap):
            return B1
        M *= 2
    raise ApproxError("p-norm approximation did not converge")


# --- offset box radius -------------------------------------------------------


def vertex_displacement_factor(B1: SymmetricPolygon) -> Fraction:
    """Rational K with: any offset t moves every vertex by ≤ K·max|tᵢ| (Euclidean)."""
    K = Fraction(0)
    m = B1.m
    for i in range(m):
        n1 = B1.normals[i]
        n2 = B1.normals[(i + 1) % m]
        det = abs(n1.cross(n2))
        u1 = sqrt_interval(n1.norm_sq()).hi
        u2 = sqrt_interval(n2.norm_sq()).hi
        K = max(K, (u1 + u2) / det)
    return K


def _validity_radius(B1: SymmetricPolygon, K: Fraction) -> Fraction:
    """δ with: every offset polygon B₁(t), max|tᵢ| < δ, is still a valid
    2m-gon (every side facet-defining).

    Two sufficient margins, both exact: each vertex stays strictly feasible
    for every constraint not defining it (vertex moves ≤ δK while the
    constraint line moves ≤ δ in functional scale), and consecutive
    vertices stay distinct (each moves ≤ δK against their initial gap).
    """
    verts = B1.vertices()
    bound = min(B1.offsets) / 4
    for i, v in enumerate(verts):
        for n, c in zip(B1.normals, B1.offsets):
            gap = c - abs(n.dot(v))
            if gap <= 0:
                continue  # a defining line of this vertex
            u = sqrt_interval(n.norm_sq()).hi
            bound = min(bound, gap / (2 * (K * u + 1)))
        side_gap = sqrt_interval((v - verts[i - 1]).norm_sq()).lo
        bound = min(bound, side_gap / (4 * K))
    return bound


def choose_delta0(B1: SymmetricPolygon, B0: NormOracle, eps: RationalLike,
                  eta: AngleBound) -> Fraction:
    """δ₀ > 0 such that every |tᵢ| ≤ δ₀ keeps B₁(t) valid, η-short (when B₁
    is), and within Hausdorff ε of the oracle.

    Conservative vertex-displacement bound, then verified at the extreme
    uniform offsets (and all sign corners for m ≤ 12); halved until the
    checks pass.
    """
    eps = rat(eps)
    hd = hausdorff_to_oracle(B1, B0)
    slack = eps - hd.hi
    if slack <= 0:
        raise ValueError("B1 is not strictly within eps of the oracle")
    K = vertex_displacement_factor(B1)
    delta0 = min(slack / (2 * K), _validity_radius(B1, K))
    eta_applies = B1.is_eta_short(eta)
    for _ in range(80):
        if _delta0_ok(B1, B0, eps, eta, eta_applies, delta0):
            return delta0
        delta0 /= 2
    raise ValueError("no admissible positive delta0 found")


def _delta0_ok(B1: SymmetricPolygon, B0: NormOracle, eps: Fraction,
               eta: AngleBound, eta_applies: bool, delta0: Fraction) -> bool:
    try:
        for s in (delta0, -delta0):
            Bt = offset_polygon(B1, OffsetVector.uniform(s, B1.m))
            if eta_applies and not Bt.is_eta_short(eta):
                return False
            if not hausdorff_to_oracle(Bt, B0).strictly_below(eps):
                return False
        if B1.m <= 12:
            for corner in range(1 << B1.m):
                t = [delta0 if (corner >> i) & 1 else -delta0 for i in range(B1.m)]
                offset_polygon(B1, t)
    except PolygonError:
        return False
    return True
