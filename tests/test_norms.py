import hashlib
import json
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import octagon, random_polygon, segment_is_eta_short, twelve_gon
from udnorm import norms
from udnorm.cli import pipeline_decagon
from udnorm.norms import (
    AngleBound,
    ApproxError,
    NormOracle,
    PolygonError,
    SymmetricPolygon,
    _angle_sort_key,
    _directed_hausdorff_sq,
    _primitive_pair,
    _validity_radius,
    canonical_direction,
    choose_delta0,
    eta_separated,
    hausdorff,
    hausdorff_to_oracle,
    offset_polygon,
    polygon_approx,
    polygon_from_hull,
    scaled_segment_is_eta_short,
    square,
    vertex_displacement_factor,
)
from udnorm.ratlin import Vec2, rat, sqrt_interval

SQRT2 = Fraction(2)


def diamond() -> SymmetricPolygon:
    """ℓ₁ unit ball |x| + |y| ≤ 1."""
    return SymmetricPolygon.from_pairs([(Vec2.of(1, 1), 1), (Vec2.of(-1, 1), 1)])


class TestPolygonConstruction:
    def test_square_canonical(self):
        sq = square()
        assert sq.m == 2
        assert sq.vertices() == (
            Vec2.of(1, 1), Vec2.of(-1, 1), Vec2.of(-1, -1), Vec2.of(1, -1),
        )

    def test_normals_canonicalized(self):
        # scaled and flipped constraints collapse to the same polygon
        a = SymmetricPolygon.from_pairs([(Vec2.of(2, 0), 2), (Vec2.of(0, -3), 3)])
        assert a == square()

    def test_rejects_redundant_side(self):
        with pytest.raises(PolygonError):
            SymmetricPolygon.from_pairs([
                (Vec2.of(1, 0), 1), (Vec2.of(0, 1), 1), (Vec2.of(1, 1), 5),
            ])

    def test_rejects_parallel_normals(self):
        with pytest.raises(PolygonError):
            SymmetricPolygon.from_pairs([(Vec2.of(1, 0), 1), (Vec2.of(-2, 0), 3)])

    def test_rejects_unbounded(self):
        with pytest.raises(PolygonError):
            SymmetricPolygon.from_pairs([(Vec2.of(1, 0), 1)])

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(PolygonError):
            SymmetricPolygon.from_pairs([(Vec2.of(1, 0), 0), (Vec2.of(0, 1), 1)])


class TestGauge:
    def test_square_example(self):
        assert square().gauge(Vec2.of(3, Fraction(1, 2))) == 3

    def test_zero(self, octagon):
        assert octagon.gauge(Vec2.of(0, 0)) == 0

    def test_diamond_example(self):
        assert diamond().gauge(Vec2.of(1, 1)) == 2

    def test_boundary_iff_one(self, octagon):
        for v in octagon.vertices():
            assert octagon.gauge(v) == 1

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=13),
           st.fractions(min_value=-20, max_value=20, max_denominator=13),
           st.fractions(min_value=-5, max_value=5, max_denominator=7))
    def test_homogeneity_and_symmetry(self, x, y, a):
        B = octagon()
        z = Vec2(x, y)
        assert B.gauge(z.scale(a)) == abs(a) * B.gauge(z)
        assert B.gauge(-z) == B.gauge(z)

    def test_triangle_inequality_sampled(self):
        rng = random.Random(1)
        B = twelve_gon()
        for _ in range(10**4):
            x = Vec2.of(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            y = Vec2.of(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                        Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            assert B.gauge(x + y) <= B.gauge(x) + B.gauge(y)


class TestHausdorff:
    def test_identical(self, octagon):
        iv = hausdorff(octagon, octagon)
        assert iv.lo == iv.hi == 0

    def test_nested_squares_sqrt2(self):
        iv = hausdorff(square(1), square(2))
        assert iv.width() <= Fraction(1, 10**9)
        assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi

    def test_diamond_square_half_sqrt2(self):
        iv = hausdorff(diamond(), square())
        assert iv.lo * iv.lo <= Fraction(1, 2) <= iv.hi * iv.hi

    def test_encloses_sampling_estimate(self):
        rng = random.Random(2)
        for _ in range(100):
            A = random_polygon(rng)
            B = random_polygon(rng)
            iv = hausdorff(A, B)
            est = _sampled_hausdorff(A, B, 60)
            # samples include every vertex, so the estimate dominates the
            # true value; it overshoots by at most the sample spacing
            assert float(iv.lo) - 1e-6 <= est
            assert est <= float(iv.hi) + _sampling_gap(A, B, 60) + 1e-6


def _boundary_samples(B, per_edge):
    verts = [(float(v.x), float(v.y)) for v in B.vertices()]
    out = []
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        for j in range(per_edge):
            t = j / per_edge
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return out


def _sampled_hausdorff(A, B, per_edge):
    pa = _boundary_samples(A, per_edge)
    pb = _boundary_samples(B, per_edge)

    def directed(ps, qs):
        return max(min(math.dist(p, q) for q in qs) for p in ps)

    return max(directed(pa, pb), directed(pb, pa))


def _sampling_gap(A, B, per_edge):
    def longest_edge(P):
        verts = [(float(v.x), float(v.y)) for v in P.vertices()]
        return max(math.dist(p, q)
                   for p, q in zip(verts, verts[1:] + verts[:1]))

    return max(longest_edge(A), longest_edge(B)) / per_edge


class TestEtaPredicates:
    def test_perpendicular(self):
        eta = AngleBound.of(Fraction(1, 4))
        assert eta_separated(Vec2.of(1, 0), Vec2.of(0, 1), eta)

    def test_parallel_never(self):
        eta = AngleBound.of(Fraction(1, 10**6))
        assert not eta_separated(Vec2.of(1, 0), Vec2.of(2, 0), eta)

    def test_diagonal(self):
        eta = AngleBound.of(Fraction(1, 4))
        assert eta_separated(Vec2.of(1, 0), Vec2.of(1, 1), eta)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            eta_separated(Vec2.of(0, 0), Vec2.of(1, 0), AngleBound.of(1))

    def test_segment_shortness(self):
        # the Fraction reference and the integer test, on (1, ∓1/5) as
        # (5, ∓1)/5 and on a right angle
        eta = AngleBound.of(Fraction(1, 2))  # 45°
        assert segment_is_eta_short(Vec2.of(1, Fraction(-1, 5)),
                                    Vec2.of(1, Fraction(1, 5)), eta)
        assert scaled_segment_is_eta_short((5, -1, 5), (5, 1, 5), eta)
        # right-angle spread can never be η-short
        assert not segment_is_eta_short(Vec2.of(1, 0), Vec2.of(0, 1),
                                        AngleBound.of(1))
        assert not scaled_segment_is_eta_short((1, 0, 1), (0, 1, 1),
                                               AngleBound.of(1))

    @pytest.mark.parametrize("sin_sq", [0, Fraction(3, 2), -1],
                             ids=["0", "3/2", "-1"])
    def test_angle_bound_range(self, sin_sq):
        with pytest.raises(ValueError):
            AngleBound.of(sin_sq)

    def test_segment_rejects_either_zero_endpoint(self):
        eta, u, z = AngleBound.of(1), Vec2.of(1, 0), Vec2.of(0, 0)
        for a, b in ((z, u), (u, z)):
            with pytest.raises(ValueError):
                segment_is_eta_short(a, b, eta)

    def test_scaled_segment_unit_dot(self):
        # directions 45° apart with a dot product of exactly 1: short at
        # sin²η = 3/5 > 1/2
        assert scaled_segment_is_eta_short((1, 0, 1), (1, 1, 1),
                                           AngleBound.of(Fraction(3, 5)))


class TestPolygonApprox:
    def test_euclidean_disc(self):
        eta = AngleBound.of(Fraction(1, 4))  # sin η = 1/2
        B1 = polygon_approx(NormOracle.euclidean(), Fraction(1, 5), eta)
        assert B1.m >= 12
        assert B1.is_eta_short(eta)
        hd = hausdorff_to_oracle(B1, NormOracle.euclidean())
        assert hd.hi <= Fraction(1, 10)

    def test_side_cap_raises(self):
        # 48 sides are needed at η = arcsin(1/2): the cap must stop the
        # doubling at once, so an alarm turns a runaway search into a failure
        def runaway(signum, frame):
            raise TimeoutError("side_cap did not stop the search")

        previous = signal.signal(signal.SIGALRM, runaway)
        signal.alarm(20)
        try:
            with pytest.raises(ApproxError, match="exceeds cap 8"):
                polygon_approx(NormOracle.euclidean(), Fraction(1, 4),
                               AngleBound.of(Fraction(1, 4)), side_cap=8)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_square_bulged(self):
        eta = AngleBound.of(Fraction(1, 4))
        oracle = NormOracle.of_polygon(square())
        B1 = polygon_approx(oracle, Fraction(1, 5), eta)
        assert B1.is_eta_short(eta)
        assert hausdorff_to_oracle(B1, oracle).hi <= Fraction(1, 10)
        # side midpoints of the square, displaced outward, are inside B1
        for mid in (Vec2.of(1, 0), Vec2.of(0, 1)):
            assert B1.gauge(mid) < 1
        # and every square side carries a vertex strictly outside its line
        assert any(v.x > 1 for v in B1.vertices())
        assert any(v.y > 1 for v in B1.vertices())
        # B1 contains the oracle ball
        assert all(B1.gauge(v) <= 1 for v in square().vertices())

    def test_polygon_already_short(self, twelve_gon):
        eta = AngleBound.of(Fraction(3, 5))
        oracle = NormOracle.of_polygon(twelve_gon)
        B1 = polygon_approx(oracle, Fraction(1, 4), eta)
        assert B1.is_eta_short(eta)
        assert hausdorff_to_oracle(B1, oracle).hi <= Fraction(1, 8)
        assert all(B1.gauge(v) <= 1 for v in twelve_gon.vertices())


class TestOffsetPolygon:
    def test_zero_offset(self, octagon):
        assert offset_polygon(octagon, (Fraction(0),) * 4) == octagon

    def test_uniform_inflation(self):
        out = offset_polygon(square(), [Fraction(1, 10), Fraction(1, 10)])
        assert out == square(Fraction(11, 10))

    def test_twelve_gon_mixed_signs(self, twelve_gon):
        t = [Fraction(1, 50), Fraction(-1, 40), Fraction(1, 60),
             Fraction(-1, 70), Fraction(1, 80), Fraction(-1, 90)]
        out = offset_polygon(twelve_gon, t)
        assert len(out.vertices()) == 12

    def test_redundant_side_fails(self, octagon):
        # pushing the diagonal pair far out makes it redundant
        with pytest.raises(PolygonError):
            offset_polygon(octagon, [0, 0, 10, 10])

    def test_sandwich_monotonicity(self, twelve_gon):
        rng = random.Random(3)
        for _ in range(50):
            t1 = [Fraction(rng.randint(-20, 20), 1000) for _ in range(6)]
            t2 = [v + Fraction(rng.randint(0, 10), 1000) for v in t1]
            inner = offset_polygon(twelve_gon, t1)
            outer = offset_polygon(twelve_gon, t2)
            assert all(outer.gauge(v) <= 1 for v in inner.vertices())


class TestChooseDelta0:
    def test_square_headroom(self):
        # slack 1/2, displacement factor 2 → first candidate 1/8 accepted
        d0 = choose_delta0(square(), NormOracle.of_polygon(square()),
                           Fraction(1, 2), AngleBound.of(1))
        assert d0 >= Fraction(1, 8)

    def test_tight_approximation_shrinks(self, octagon):
        eta = AngleBound.of(Fraction(5, 9))
        inflated = offset_polygon(octagon, (Fraction(1, 5),) * 4)
        hd = hausdorff_to_oracle(octagon, NormOracle.of_polygon(inflated))
        eps = hd.hi + Fraction(1, 10**6)
        d0 = choose_delta0(octagon, NormOracle.of_polygon(inflated), eps, eta)
        assert 0 < d0 < Fraction(1, 100)

    def test_always_positive(self, twelve_gon):
        eta = AngleBound.of(Fraction(2, 5))
        d0 = choose_delta0(twelve_gon, NormOracle.of_polygon(twelve_gon),
                           Fraction(1, 4), eta)
        assert d0 > 0
        # extremes are valid and within eps
        for s in (d0, -d0):
            Bt = offset_polygon(twelve_gon, (s,) * 6)
            assert Bt.is_eta_short(eta)
            hd = hausdorff_to_oracle(Bt, NormOracle.of_polygon(twelve_gon))
            assert hd.strictly_below(Fraction(1, 4))


# --- reference geometry in Fractions ------------------------------------------
# Each vertex solved as a 2×2 system in Fractions, offset polygons
# re-canonicalized by `from_pairs`, Hausdorff distances through the foot of
# the perpendicular. The integer vertex tables must reproduce every value
# and every PolygonError message of this reference.


def _meet(n1, o1, n2, o2):
    """The point on both lines ⟨n₁, z⟩ = o₁ and ⟨n₂, z⟩ = o₂ (exact 2×2 solve)."""
    det = n1.cross(n2)
    return Vec2((o1 * n2.y - o2 * n1.y) / det, (n1.x * o2 - n2.x * o1) / det)


def _ref_vertex(B, i):
    return _meet(*B.side_line(i), *B.side_line(i + 1))


def _ref_vertices(B):
    return tuple(_ref_vertex(B, i) for i in range(2 * B.m))


def _ref_validate_facets(B):
    verts = _ref_vertices(B)
    for k in range(2 * B.m):
        v = verts[k]
        if v == verts[k - 1]:
            raise PolygonError(f"side {k} degenerates to a point")
        for n, c in zip(B.normals, B.offsets):
            d = n.dot(v)
            if d > c or -d > c:
                raise PolygonError("redundant constraint: candidate vertex infeasible")


def _ref_from_pairs(pairs):
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
    poly = SymmetricPolygon(tuple(n for n, _ in canon), tuple(c for _, c in canon))
    _ref_validate_facets(poly)
    return poly


def _ref_offset_polygon(B1, t):
    ts = list(t)
    if len(ts) != B1.m:
        raise PolygonError("offset vector length must match side-pair count")
    return _ref_from_pairs(
        (n, c + rat(dt)) for (n, c, dt) in zip(B1.normals, B1.offsets, ts))


def _ref_point_segment_dist_sq(p, a, b):
    ab = b - a
    ap = p - a
    t = ap.dot(ab) / ab.norm_sq()
    if t <= 0:
        return ap.norm_sq()
    if t >= 1:
        return (p - b).norm_sq()
    foot = a + ab.scale(t)
    return (p - foot).norm_sq()


def _ref_directed_hausdorff_sq(A, B):
    verts = _ref_vertices(B)

    def dist_sq(p):
        if B.gauge(p) <= 1:
            return Fraction(0)
        return min(_ref_point_segment_dist_sq(p, verts[i - 1], verts[i])
                   for i in range(len(verts)))

    return max(dist_sq(v) for v in _ref_vertices(A))


def _ref_is_eta_short(B, eta):
    verts = _ref_vertices(B)
    return all(segment_is_eta_short(verts[i - 1], verts[i], eta)
               for i in range(2 * B.m))


def _ref_validity_radius(B1, K):
    verts = _ref_vertices(B1)
    bound = min(B1.offsets) / 4
    for i, v in enumerate(verts):
        for n, c in zip(B1.normals, B1.offsets):
            gap = c - abs(n.dot(v))
            if gap <= 0:
                continue
            u = sqrt_interval(n.norm_sq()).hi
            bound = min(bound, gap / (2 * (K * u + 1)))
        side_gap = sqrt_interval((v - verts[i - 1]).norm_sq()).lo
        bound = min(bound, side_gap / (4 * K))
    return bound


def _outcome(f, *args):
    try:
        return f(*args)
    except PolygonError as exc:
        return ("PolygonError", str(exc))


_coord = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def hulls(draw):
    """A symmetric polygon: the hull of 3–7 random points with mixed
    denominators and their negatives."""
    pts = draw(st.lists(st.tuples(_coord, _coord).filter(lambda p: p != (0, 0)),
                        min_size=3, max_size=7))
    sym = [Vec2(x, y) for x, y in pts]
    try:
        return polygon_from_hull(sym + [-p for p in sym])
    except PolygonError:
        assume(False)


def _collapse_offset(B, i):
    """tᵢ that moves side i through the meeting point of sides i−1 and i+1,
    so that side i shrinks to a point (None when those sides are parallel)."""
    n1, o1 = B.side_line(i - 1)
    n2, o2 = B.side_line(i + 1)
    if n1.cross(n2) == 0:
        return None
    return B.normals[i].dot(_meet(n1, o1, n2, o2)) - B.offsets[i]


@st.composite
def offset_cases(draw):
    """A polygon and an offset vector whose entries are drawn to keep a
    side, move it a little, make it redundant, collapse it to a point (exact
    when its neighbours are kept), or make its offset zero or negative."""
    B = draw(hulls())
    t = []
    for i in range(B.m):
        c = B.offsets[i]
        kind = draw(st.sampled_from(["keep", "keep", "keep", "small", "redundant",
                                     "collapse", "zero", "negative"]))
        if kind == "keep":
            dt = Fraction(0)
        elif kind == "redundant":
            dt = c * draw(st.integers(2, 10))
        elif kind == "collapse":
            dt = _collapse_offset(B, i)
            if dt is None:
                dt = Fraction(0)
        elif kind == "zero":
            dt = -c
        elif kind == "negative":
            dt = -c - draw(st.fractions(min_value=0, max_value=1, max_denominator=9))
        else:
            dt = c * draw(st.fractions(min_value=-1, max_value=1, max_denominator=40)) / 4
        t.append(dt)
    return B, t


class TestIntegerGeometryEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(hulls())
    def test_vertex_table(self, B):
        assert B.vertices() == _ref_vertices(B)
        for i in range(-2 * B.m, 4 * B.m):
            assert B.vertex(i) == _ref_vertex(B, i)
            assert B.side_segment(i) == (_ref_vertex(B, i - 1), _ref_vertex(B, i))

    @settings(max_examples=150, deadline=None)
    @given(hulls(), st.fractions(min_value=Fraction(1, 50), max_value=1,
                                 max_denominator=50))
    def test_eta_short_and_validity_radius(self, B, sin_sq):
        # the drawn bound, and each side's own sin² (where "short" is strict)
        verts = _ref_vertices(B)
        bounds = {sin_sq}
        for a, b in zip(verts, verts[1:]):
            if a.dot(b) > 0:
                bounds.add(a.cross(b) ** 2 / (a.norm_sq() * b.norm_sq()))
        for s in bounds - {0}:
            eta = AngleBound(s)
            assert B.is_eta_short(eta) == _ref_is_eta_short(B, eta)
        K = vertex_displacement_factor(B)
        assert _validity_radius(B, K) == _ref_validity_radius(B, K)

    @settings(max_examples=300, deadline=None)
    @given(offset_cases())
    def test_offset_polygon_matches_from_pairs(self, case):
        B, t = case
        new, ref = _outcome(offset_polygon, B, t), _outcome(_ref_offset_polygon, B, t)
        assert new == ref
        if isinstance(new, SymmetricPolygon):
            assert new.vertices() == _ref_vertices(ref)

    @settings(max_examples=150, deadline=None)
    @given(hulls(), hulls())
    def test_hausdorff_without_common_normals(self, A, B):
        assert _directed_hausdorff_sq(A, B) == _ref_directed_hausdorff_sq(A, B)
        assert _directed_hausdorff_sq(B, A) == _ref_directed_hausdorff_sq(B, A)
        d_sq = max(_ref_directed_hausdorff_sq(A, B), _ref_directed_hausdorff_sq(B, A))
        assert hausdorff(A, B) == sqrt_interval(d_sq, Fraction(1, 10**12))

    @settings(max_examples=150, deadline=None)
    @given(hulls(), st.data())
    def test_hausdorff_with_common_normals(self, A, data):
        t = [c * data.draw(st.fractions(min_value=-1, max_value=1,
                                        max_denominator=30)) / 8
             for c in A.offsets]
        B = _outcome(offset_polygon, A, t)
        assume(isinstance(B, SymmetricPolygon))
        assert _directed_hausdorff_sq(A, B) == _ref_directed_hausdorff_sq(A, B)
        assert _directed_hausdorff_sq(B, A) == _ref_directed_hausdorff_sq(B, A)
        d_sq = max(_ref_directed_hausdorff_sq(A, B), _ref_directed_hausdorff_sq(B, A))
        assert hausdorff(A, B) == sqrt_interval(d_sq, Fraction(1, 10**12))

    def test_rejects_fractional_normal(self):
        with pytest.raises(PolygonError, match="not an integer vector"):
            SymmetricPolygon((Vec2.of(Fraction(1, 2), 1), Vec2.of(1, 0)),
                             (Fraction(1), Fraction(1)))


def _geometry_rows():
    eta14 = AngleBound.of(Fraction(1, 4))
    cases = [
        (pipeline_decagon(), Fraction(1, 4), AngleBound.of(Fraction(2, 5))),
        (octagon(), Fraction(1, 4), AngleBound.of(Fraction(5, 9))),
        (twelve_gon(), Fraction(1, 4), AngleBound.of(Fraction(2, 5))),
        (polygon_approx(NormOracle.of_polygon(square()), Fraction(1, 5), eta14),
         Fraction(1, 5), eta14),
        (polygon_approx(NormOracle.of_polygon(twelve_gon()), Fraction(1, 4),
                        AngleBound.of(Fraction(3, 5))),
         Fraction(1, 4), AngleBound.of(Fraction(3, 5))),
        (polygon_approx(NormOracle.euclidean(), Fraction(1, 5), eta14),
         Fraction(1, 5), eta14),
    ]
    rows = []
    for B, eps, eta in cases:
        for oracle in (NormOracle.of_polygon(B), NormOracle.euclidean()):
            hd = hausdorff_to_oracle(B, oracle)
            rows.append([str(hd.lo), str(hd.hi)])
        d0 = choose_delta0(B, NormOracle.of_polygon(B), eps, eta)
        rows.append(str(d0))
        for s in (d0, -d0):
            Bt = offset_polygon(B, (s,) * B.m)
            for oracle in (NormOracle.of_polygon(B), NormOracle.euclidean()):
                hd = hausdorff_to_oracle(Bt, oracle)
                rows.append([str(hd.lo), str(hd.hi)])
    A, C = octagon(), twelve_gon()
    for P, Q in ((A, C), (C, A), (cases[0][0], A)):
        hd = hausdorff(P, Q)
        rows.append([str(hd.lo), str(hd.hi)])
    return rows


def test_delta0_and_hausdorff_pinned():
    """choose_delta0 and hausdorff_to_oracle on the pipeline decagon, the
    octagon, the 12-gon and three polygon_approx outputs (m = 24, 16, 24),
    pinned by the digest of the Fraction geometry they replaced."""
    digest = hashlib.sha256(json.dumps(_geometry_rows()).encode())
    assert digest.hexdigest() == (
        "023552aaaa0a2015a97d0e9aae5c23f8bbf932d40ef7e1952c7e96c5023bc3da")


class TestValidityRadius:
    """choose_delta0 builds no offset polygon but the two uniform ones at
    ±δ₀, so _validity_radius alone must keep every offset polygon inside
    its box valid, and K·δ₀ ≤ slack/2 alone must keep it within ε."""

    @pytest.mark.parametrize("B,oracle,eps,sin_sq,m", [
        (None, NormOracle.euclidean(), Fraction(1, 5), Fraction(3, 5), 15),
        (None, NormOracle.euclidean(), Fraction(1, 5), Fraction(2, 5), 19),
        (None, NormOracle.euclidean(), Fraction(1, 5), Fraction(1, 4), 24),
        (None, NormOracle.of_polygon(twelve_gon()), Fraction(1, 4),
         Fraction(3, 5), 16),
        (pipeline_decagon(), NormOracle.of_polygon(pipeline_decagon()),
         Fraction(1, 4), Fraction(2, 5), 5),
        (octagon(), NormOracle.euclidean(), Fraction(1, 4), Fraction(5, 9), 4),
        (twelve_gon(), NormOracle.euclidean(), Fraction(1, 4), Fraction(2, 5), 6),
    ], ids=["euclidean-m15", "euclidean-m19", "euclidean-m24", "12gon-m16",
            "decagon-m5", "octagon-m4", "12gon-m6"])
    def test_random_offsets_stay_valid(self, B, oracle, eps, sin_sq, m):
        # B None: the polygon_approx of the oracle
        eta = AngleBound.of(sin_sq)
        if B is None:
            B = polygon_approx(oracle, eps, eta)
        assert B.m == m
        K = vertex_displacement_factor(B)
        r = _validity_radius(B, K)
        assert r > 0
        # the first δ₀ candidate: validity is proved up to r, ε-closeness up
        # to slack/(2K)
        rho = min(r, (eps - hausdorff_to_oracle(B, oracle).hi) / (2 * K))
        assert choose_delta0(B, oracle, eps, eta) <= rho
        rng = random.Random(B.m)
        draws = [[Fraction(rng.randint(-999, 999), 1000) for _ in range(B.m)]
                 for _ in range(40)]
        draws += [[Fraction(999 if (j >> i) & 1 else -999, 1000)
                   for i in range(B.m)] for j in (0, 1, 2, 5, (1 << B.m) - 1)]
        for u in draws:
            Bt = offset_polygon(B, [r * x for x in u])
            assert Bt.m == B.m
            assert len(set(Bt.vertices())) == 2 * B.m
            near = Bt if rho == r else offset_polygon(B, [rho * x for x in u])
            assert hausdorff_to_oracle(near, oracle).hi < eps


def _reference_choose_delta0(B1, B0, eps, eta):
    """choose_delta0 before it dropped the re-tests its bounds prove: at
    each halving round it also rebuilt B₁(±δ₀) for validity and
    d_H < ε, and for m ≤ 12 built all 2^m sign corners."""
    eps = rat(eps)
    hd = hausdorff_to_oracle(B1, B0)
    slack = eps - hd.hi
    if slack <= 0:
        raise ValueError("B1 is not strictly within eps of the oracle")
    K = vertex_displacement_factor(B1)
    delta0 = min(slack / (2 * K), _validity_radius(B1, K))
    eta_applies = B1.is_eta_short(eta)

    def ok(delta0):
        try:
            for s in (delta0, -delta0):
                Bt = offset_polygon(B1, (s,) * B1.m)
                if eta_applies and not Bt.is_eta_short(eta):
                    return False
                if not hausdorff_to_oracle(Bt, B0).strictly_below(eps):
                    return False
            if B1.m <= 12:
                for corner in range(1 << B1.m):
                    offset_polygon(B1, [delta0 if (corner >> i) & 1 else -delta0
                                        for i in range(B1.m)])
        except PolygonError:
            return False
        return True

    for _ in range(80):
        if ok(delta0):
            return delta0
        delta0 /= 2
    raise ValueError("no admissible positive delta0 found")


def _delta0_outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, PolygonError) as exc:
        return (type(exc).__name__, str(exc))


class TestChooseDelta0Reference:
    @settings(max_examples=200, deadline=None)
    @given(hulls(), st.one_of(st.none(), hulls()),
           st.sampled_from([Fraction(1, 50), Fraction(1, 10), Fraction(2, 5), 1]),
           st.sampled_from([Fraction(1, 100), Fraction(1, 4), Fraction(3)]))
    def test_same_as_reference(self, B, target, sin_sq, eps):
        # target None: the Euclidean oracle
        oracle = (NormOracle.euclidean() if target is None
                  else NormOracle.of_polygon(target))
        eta = AngleBound.of(sin_sq)
        assert (_delta0_outcome(choose_delta0, B, oracle, eps, eta)
                == _delta0_outcome(_reference_choose_delta0, B, oracle, eps, eta))

    # one Hausdorff distance, and per halving round B₁(+δ₀), then B₁(−δ₀)
    # only if B₁(+δ₀) is η-short: the decagon passes at its third candidate
    # (1/16: +δ₀ fails; 1/32: −δ₀ fails; 1/64), the octagon at its second
    @pytest.mark.parametrize("B,sin_sq,offsets", [
        (pipeline_decagon(), Fraction(2, 5), 1 + 2 + 2),
        (octagon(), Fraction(5, 9), 1 + 2),
        (square(), Fraction(1), 0),  # not η-short at any η: no round
    ], ids=["decagon", "octagon", "square-not-short"])
    def test_calls(self, B, sin_sq, offsets, monkeypatch):
        calls = {"hausdorff_to_oracle": 0, "offset_polygon": 0}
        for name in calls:
            def counted(*args, _f=getattr(norms, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(norms, name, counted)
        norms.choose_delta0(B, NormOracle.of_polygon(B), Fraction(1, 4),
                            AngleBound.of(sin_sq))
        assert calls == {"hausdorff_to_oracle": 1, "offset_polygon": offsets}
