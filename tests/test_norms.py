import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import octagon, random_polygon, twelve_gon
from udnorm.norms import (
    AngleBound,
    ApproxError,
    NormOracle,
    OffsetVector,
    PolygonError,
    SymmetricPolygon,
    choose_delta0,
    diamond,
    eta_separated,
    hausdorff,
    hausdorff_to_oracle,
    offset_polygon,
    polygon_approx,
    segment_is_eta_short,
    square,
)
from udnorm.ratlin import Vec2

SQRT2 = Fraction(2)


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
        eta = AngleBound.of(Fraction(1, 2))  # 45°
        assert segment_is_eta_short(Vec2.of(1, Fraction(-1, 5)),
                                    Vec2.of(1, Fraction(1, 5)), eta)
        # right-angle spread can never be η-short
        assert not segment_is_eta_short(Vec2.of(1, 0), Vec2.of(0, 1),
                                        AngleBound.of(1))


class TestPolygonApprox:
    def test_euclidean_disc(self):
        eta = AngleBound.of(Fraction(1, 4))  # sin η = 1/2
        B1 = polygon_approx(NormOracle.euclidean(), Fraction(1, 5), eta)
        assert B1.m >= 12
        assert B1.is_eta_short(eta)
        hd = hausdorff_to_oracle(B1, NormOracle.euclidean())
        assert hd.hi <= Fraction(1, 10)

    @pytest.mark.parametrize("oracle", [NormOracle.euclidean(),
                                        NormOracle.pnorm(3)],
                             ids=["euclidean", "pnorm3"])
    def test_side_cap_raises(self, oracle):
        # 48 sides are needed at η = arcsin(1/2): the cap must stop the
        # doubling at once, so an alarm turns a runaway search into a failure
        def runaway(signum, frame):
            raise TimeoutError("side_cap did not stop the search")

        previous = signal.signal(signal.SIGALRM, runaway)
        signal.alarm(20)
        try:
            with pytest.raises(ApproxError, match="exceeds cap 8"):
                polygon_approx(oracle, Fraction(1, 4),
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
            assert B1.contains_strictly(mid)
        # and every square side carries a vertex strictly outside its line
        assert any(v.x > 1 for v in B1.vertices())
        assert any(v.y > 1 for v in B1.vertices())
        # B1 contains the oracle ball
        assert B1.contains_polygon(square())

    def test_polygon_already_short(self, twelve_gon):
        eta = AngleBound.of(Fraction(3, 5))
        oracle = NormOracle.of_polygon(twelve_gon)
        B1 = polygon_approx(oracle, Fraction(1, 4), eta)
        assert B1.is_eta_short(eta)
        assert hausdorff_to_oracle(B1, oracle).hi <= Fraction(1, 8)
        assert B1.contains_polygon(twelve_gon)

    def test_pnorm_experimental(self):
        eta = AngleBound.of(Fraction(1, 4))
        oracle = NormOracle.pnorm(3)
        B1 = polygon_approx(oracle, Fraction(1, 4), eta)
        assert B1.is_eta_short(eta)


class TestOffsetPolygon:
    def test_zero_offset(self, octagon):
        assert offset_polygon(octagon, OffsetVector.uniform(0, 4)) == octagon

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
            assert outer.contains_polygon(inner)


class TestChooseDelta0:
    def test_square_headroom(self):
        # slack 1/2, displacement factor 2 → first candidate 1/8 accepted
        d0 = choose_delta0(square(), NormOracle.of_polygon(square()),
                           Fraction(1, 2), AngleBound.of(1))
        assert d0 >= Fraction(1, 8)

    def test_tight_approximation_shrinks(self, octagon):
        eta = AngleBound.of(Fraction(5, 9))
        inflated = offset_polygon(octagon, OffsetVector.uniform(Fraction(1, 5), 4))
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
            Bt = offset_polygon(twelve_gon, OffsetVector.uniform(s, 6))
            assert Bt.is_eta_short(eta)
            hd = hausdorff_to_oracle(Bt, NormOracle.of_polygon(twelve_gon))
            assert hd.strictly_below(Fraction(1, 4))


class TestOracles:
    def test_euclidean_exact_unit(self):
        o = NormOracle.euclidean()
        assert o.is_unit(Vec2.of(Fraction(3, 5), Fraction(4, 5)))
        assert not o.is_unit(Vec2.of(1, 1))

    def test_pnorm_tolerance(self):
        o = NormOracle.pnorm(2)
        assert o.is_unit(Vec2.of(Fraction(3, 5), Fraction(4, 5)))

    def test_oracle_axioms_sampled(self):
        rng = random.Random(4)
        for o in (NormOracle.euclidean(), NormOracle.pnorm(Fraction(5, 2))):
            for _ in range(200):
                x = Vec2.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                y = Vec2.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                gx, gy = o.gauge_float(x), o.gauge_float(y)
                assert o.gauge_float(x + y) <= gx + gy + 1e-9
                assert abs(o.gauge_float(-x) - gx) <= 1e-12
                assert abs(o.gauge_float(x.scale(3)) - 3 * gx) <= 1e-9
