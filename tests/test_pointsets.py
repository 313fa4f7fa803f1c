import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import octagon, random_polygon, twelve_gon
from udnorm.norms import square
from udnorm.pointsets import (
    PointSeq,
    SubsetSumCollision,
    _primes_from,
    _subset_sums_distinct,
    boundary_point,
    flat_side_quadratic,
    generic_unit_vectors,
    grid_pointset,
    subset_sum_pointset,
    two_row_pointset,
)
from udnorm.ratlin import Vec2
from udnorm.udg import count_unit_distances

# mixed denominators and signs; small enough that sums collide by accident
SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestPointSeq:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PointSeq.of([Vec2.of(0, 0), Vec2.of(0, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSeq.of([])


class TestSubsetSum:
    def test_single_vector(self):
        P = subset_sum_pointset([Vec2.of(1, 0)])
        assert list(P) == [Vec2.of(0, 0), Vec2.of(1, 0)]
        assert count_unit_distances(P, square()) == 1

    def test_spec_k2_example(self):
        P = subset_sum_pointset([
            Vec2.of(1, Fraction(3, 10)), Vec2.of(Fraction(1, 5), 1),
        ])
        assert len(P) == 4
        assert count_unit_distances(P, square()) == 4

    def test_k3_generic(self):
        vecs = generic_unit_vectors(square(), 3)
        P = subset_sum_pointset(vecs)
        assert len(P) == 8
        assert count_unit_distances(P, square()) == 12

    def test_collision_detected(self):
        with pytest.raises(SubsetSumCollision):
            subset_sum_pointset([Vec2.of(1, 0), Vec2.of(1, 0)])

    def test_output_size(self):
        vecs = generic_unit_vectors(octagon(), 5)
        assert len(subset_sum_pointset(vecs)) == 32

    @pytest.mark.parametrize("k", range(9))
    def test_matches_per_mask_sums(self, twelve_gon, k):
        # doubling gives every mask's sum, in binary counter order
        vecs = generic_unit_vectors(twelve_gon, k) if k else []
        ref = []
        for mask in range(1 << k):
            acc = Vec2.of(0, 0)
            for i in range(k):
                if (mask >> i) & 1:
                    acc = acc + vecs[i]
            ref.append(acc)
        assert list(subset_sum_pointset(vecs)) == ref

    def test_generic_vectors_are_unit(self, twelve_gon):
        for k in (1, 4, 9):
            for v in generic_unit_vectors(twelve_gon, k):
                assert twelve_gon.gauge(v) == 1

    def test_generic_needs_enough_sides(self):
        with pytest.raises(ValueError):
            generic_unit_vectors(square(), 5)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(SMALL_RATIONALS, SMALL_RATIONALS), min_size=0,
                    max_size=7),
           st.sampled_from(["none", "sum", "negation", "repeat"]),
           st.randoms(use_true_random=False))
    def test_distinct_sums_match_fraction_set(self, coords, plant, rnd):
        vecs = [Vec2(x, y) for x, y in coords]
        if len(vecs) >= 2 and plant != "none":
            a, b = rnd.sample(range(len(vecs)), 2)
            vecs.append({"sum": vecs[a] + vecs[b], "negation": -vecs[a],
                         "repeat": vecs[a]}[plant])
        sums = {(p.x, p.y) for p in
                [sum((v for i, v in enumerate(vecs) if (mask >> i) & 1),
                     Vec2.of(0, 0)) for mask in range(1 << len(vecs))]}
        assert _subset_sums_distinct(vecs) == (len(sums) == 1 << len(vecs))

    @pytest.mark.parametrize("seed", range(6))
    def test_generic_vectors_match_fraction_reference(self, twelve_gon, seed):
        B = twelve_gon if seed == 0 else random_polygon(random.Random(seed))
        for k in range(1, min(2 * B.m, 11) + 1):
            assert generic_unit_vectors(B, k) == \
                reference_generic_unit_vectors(B, k)


def reference_generic_unit_vectors(B, k):
    """Reference: the retry loop that tests each pattern by building its
    Fraction subset-sum set."""
    for attempt in range(16):
        primes = _primes_from(8 * k + 13 + 97 * attempt, k)
        vecs = []
        for j in range(k):
            p = primes[j]
            num = (p * (2 * j + 3)) // (8 * k + 11) % p or 1
            vecs.append(boundary_point(B, j % (2 * B.m), Fraction(num, p)))
        if len(set((v.x, v.y) for v in vecs)) != k:
            continue
        try:
            subset_sum_pointset(vecs)
        except SubsetSumCollision:
            continue
        return vecs
    raise SubsetSumCollision("no generic parameter pattern found")


class TestFlatSide:
    def test_n2(self):
        assert count_unit_distances(flat_side_quadratic(2), square()) == 1

    def test_n4(self):
        assert count_unit_distances(flat_side_quadratic(4), square()) == 4

    def test_n10(self):
        assert count_unit_distances(flat_side_quadratic(10), square()) == 25

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            flat_side_quadratic(1)


def _euclidean_unit_pairs(P):
    return sum((q - p).norm_sq() == 1 for p, q in itertools.combinations(P, 2))


class TestGrid:
    def test_single(self):
        P = grid_pointset(1, 1)
        assert list(P) == [Vec2.of(0, 0)]

    def test_unit_square(self):
        assert _euclidean_unit_pairs(grid_pointset(2, 2, 1)) == 4

    def test_3x3_euclidean(self):
        assert _euclidean_unit_pairs(grid_pointset(3, 3, 1)) == 12


class TestTwoRow:
    def test_all_cross_pairs_unit(self):
        rng = random.Random(11)
        for _ in range(10):
            B = random_polygon(rng)
            side = rng.randrange(2 * B.m)
            rows = rng.choice([3, 4, 5])
            P = two_row_pointset(B, side, rows)
            assert count_unit_distances(P, B) == rows * rows
