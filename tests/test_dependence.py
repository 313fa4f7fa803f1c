import random
from fractions import Fraction

import pytest

from conftest import random_polygon
from udnorm.dependence import (
    DependenceConfig,
    DependenceSystem,
    ExtractionFailure,
    extract_dependences,
    signed_path_sum,
    verify_on_realization,
)
from udnorm.norms import square
from udnorm.pointsets import PointSeq, flat_side_quadratic, two_row_pointset
from udnorm.ratlin import Vec2
from udnorm.udg import DecoratedUDG, build_udg

GOLDEN_GRAPH = DecoratedUDG(
    n=6,
    edges=((1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6)),
    colors=(2, 1, 2, 3, 4, 2),
    signs=(1, -1, 1, -1, 1, 1),
)

# proper rearrangement of the same signed sum, embedded so the cover search
# returns I = {2, 3, 4} and the five-edge path is the unique shortest route
NINE_GRAPH = DecoratedUDG(
    n=9,
    edges=((1, 2), (1, 6), (1, 7), (2, 3), (2, 8), (3, 4), (3, 7), (4, 5),
           (5, 6), (5, 9), (6, 9), (8, 9)),
    colors=(2, 1, 3, 3, 6, 2, 5, 4, 2, 7, 4, 2),
    signs=(1, -1, 1, -1, 1, 1, 1, 1, 1, 1, 1, 1),
)


class TestSignedPathSum:
    def test_golden_row(self):
        row = signed_path_sum(GOLDEN_GRAPH, [1, 2, 3, 4, 5, 6], (1, 6))
        assert row == {2: -3, 3: 1, 4: -1}

    def test_one_step(self):
        G = DecoratedUDG(3, ((1, 2), (1, 3), (2, 3)), (1, 2, 3), (1, 1, 1))
        assert signed_path_sum(G, [1, 2, 3], (1, 3)) == {1: 1, 3: 1}

    def test_orientation_flip(self):
        # traversing (1,2) from 2 to 1 against sigma=+1 contributes -u1
        G = DecoratedUDG(3, ((1, 2), (1, 3), (2, 3)), (1, 2, 3), (1, 1, 1))
        assert signed_path_sum(G, [2, 1, 3], (2, 3)) == {1: -1, 2: 1}

    def test_rejects_bad_path(self):
        with pytest.raises(ValueError):
            signed_path_sum(GOLDEN_GRAPH, [1, 2, 3], (1, 6))
        with pytest.raises(ValueError):
            signed_path_sum(GOLDEN_GRAPH, [1, 3, 6], (1, 6))


class TestDependenceSystem:
    # each rejection test also takes one non-integer coefficient: the rows
    # are integers by type, so a Fraction, float or bool is refused even
    # where it equals an integer
    def test_rejects_ell_zero(self):
        with pytest.raises(ValueError):
            DependenceSystem(ell=0, indices=(1,), coeffs=())
        with pytest.raises(ValueError, match="integers"):
            DependenceSystem(ell=1, indices=(1, 2, 3),
                             coeffs=((Fraction(1, 2),), (1,)))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            DependenceSystem(ell=1, indices=(1, 1, 2), coeffs=((1,), (1,)))
        with pytest.raises(ValueError, match="integers"):
            DependenceSystem(ell=1, indices=(1, 2, 3), coeffs=((1.0,), (1,)))

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError):
            DependenceSystem(ell=1, indices=(1, 2, 3), coeffs=((0,), (1,)))
        with pytest.raises(ValueError, match="integers"):
            DependenceSystem(ell=1, indices=(1, 2, 3), coeffs=((True,), (1,)))


class TestExtraction:
    def test_embedded_golden_row(self):
        res = extract_dependences(NINE_GRAPH, DependenceConfig(C=Fraction(1, 10)))
        assert res.system.ell == 3
        assert res.system.indices[:3] == (2, 3, 4)  # base colors
        assert res.system.indices[3] == 1  # first dependent color
        assert res.system.coeffs[0] == (-3, 1, -1)
        assert res.paths[0] == (1, 2, 3, 4, 5, 6)

    def test_rainbow_k4_too_few_colors(self):
        # spanning-tree cover of K4 has ell = 3, which needs 7 distinct
        # colors; K4 only has 6, so extraction must report failure
        import itertools
        edges = tuple(itertools.combinations(range(1, 5), 2))
        G = DecoratedUDG(4, edges, tuple(range(1, 7)), (1,) * 6)
        with pytest.raises(ExtractionFailure):
            extract_dependences(
                G, DependenceConfig(q=Fraction(3, 2), C=Fraction(1, 16)))

    def test_rainbow_k5_tree_rows(self):
        # K5 rainbow: ell = 4 spanning-tree colors, five dependent colors,
        # each expressed along its tree path
        import itertools
        edges = tuple(itertools.combinations(range(1, 6), 2))
        G = DecoratedUDG(5, edges, tuple(range(1, 11)), (1,) * 10)
        res = extract_dependences(
            G, DependenceConfig(q=Fraction(3, 2), C=Fraction(1, 16)))
        assert res.system.ell == 4
        assert len(res.system.coeffs) == 5
        for row, path in zip(res.system.coeffs, res.paths):
            assert any(c != 0 for c in row)
            assert sum(abs(c) for c in row) <= len(path) - 1

    def test_sparse_failure(self):
        # a path is far below any density threshold: the cover search
        # collapses and extraction reports failure
        G = DecoratedUDG(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
                         (1, 2, 1, 2, 1), (1, 1, 1, 1, 1))
        with pytest.raises(ExtractionFailure):
            extract_dependences(G, DependenceConfig(C=Fraction(2)))

    def test_flat_side_system(self):
        P = flat_side_quadratic(10)
        G = build_udg(P, square())
        res = extract_dependences(G, DependenceConfig(C=Fraction(1, 4)))
        assert res.system.ell == 2
        assert verify_on_realization(res.system, G.without_directions(), P,
                                     square())
        assert 3 * res.pruned_edge_count >= res.original_edge_count

    def test_coefficients_bounded_by_path_length(self):
        res = extract_dependences(NINE_GRAPH, DependenceConfig(C=Fraction(1, 10)))
        for row, path in zip(res.system.coeffs, res.paths):
            assert sum(abs(c) for c in row) <= len(path) - 1


def _random_instance(rng):
    B = random_polygon(rng)
    side = rng.randrange(2 * B.m)
    rows = rng.choice([4, 5, 6])
    shift = Vec2.of(Fraction(rng.randint(-5, 5), 3),
                    Fraction(rng.randint(-5, 5), 3))
    lam = Fraction(rng.randint(2, 6), 8)
    P = two_row_pointset(B, side, rows, lam, shift)
    return B, P


class TestSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_rows_verify_on_realizations(self, seed):
        rng = random.Random(seed)
        done = 0
        while done < 5:
            B, P = _random_instance(rng)
            G = build_udg(P, B)
            try:
                res = extract_dependences(G, DependenceConfig(C=Fraction(1, 8)))
            except ExtractionFailure:
                continue
            assert verify_on_realization(res.system, G.without_directions(),
                                         P, B)
            done += 1

    def test_perturbed_coefficient_fails(self):
        rng = random.Random(123)
        B, P = _random_instance(rng)
        G = build_udg(P, B)
        res = extract_dependences(G, DependenceConfig(C=Fraction(1, 8)))
        S = res.system
        bad_rows = list(list(r) for r in S.coeffs)
        bad_rows[0][0] += 1
        bad = DependenceSystem(S.ell, S.indices,
                               tuple(tuple(r) for r in bad_rows))
        assert not verify_on_realization(bad, G.without_directions(), P, B)

    def test_coefficients_independent_of_realization(self):
        # the same abstract graph realized at two different translations
        # yields rows that verify on both
        rng = random.Random(7)
        B, P = _random_instance(rng)
        G = build_udg(P, B)
        res = extract_dependences(G, DependenceConfig(C=Fraction(1, 8)))
        shift = Vec2.of(Fraction(9, 7), Fraction(-3, 5))
        P2 = PointSeq.of([p + shift for p in P])
        assert verify_on_realization(res.system, G.without_directions(), P2, B)

    def test_precondition_checked(self):
        rng = random.Random(9)
        B, P = _random_instance(rng)
        G = build_udg(P, B)
        res = extract_dependences(G, DependenceConfig(C=Fraction(1, 8)))
        other = flat_side_quadratic(6)
        with pytest.raises(ValueError):
            verify_on_realization(res.system, G.without_directions(), other, B)
