import random
from fractions import Fraction

import pytest

from udnorm import _kern_py, kernels
from udnorm.colored import weak_delta_table
from udnorm.norms import square
from udnorm.pointsets import flat_side_quadratic
from udnorm.ratlin import Vec2

try:
    from udnorm import _kern_cy
except ImportError:
    _kern_cy = None

needs_ext = pytest.mark.skipif(_kern_cy is None,
                               reason="compiled kernels unavailable")


def random_unit_pair_input(rng, n, m):
    vals = [[rng.randint(-10**6, 10**6) for _ in range(m)] for _ in range(n)]
    bounds = [rng.randint(1, 10**6) for _ in range(m)]
    # plant exact hits: duplicate some rows shifted by exactly a bound
    for _ in range(n // 4):
        i = rng.randrange(n)
        row = list(vals[i])
        c = rng.randrange(m)
        row[c] += bounds[c] * rng.choice([-1, 1])
        vals.append(row)
    return vals, bounds


class TestUnitPairsBackends:
    @needs_ext
    @pytest.mark.parametrize("seed", range(10))
    def test_agreement(self, seed):
        rng = random.Random(seed)
        vals, bounds = random_unit_pair_input(rng, rng.randint(2, 60),
                                              rng.randint(1, 5))
        assert _kern_py.unit_pairs(vals, bounds) == \
            _kern_cy.unit_pairs(vals, bounds)

    def test_bigint_dispatch(self):
        # huge coordinates exceed the int64 bound: dispatch must still be exact
        big = Fraction(10**30)
        pts = [Vec2.of(0, 0), Vec2.of(big, 0), Vec2.of(2 * big, 0)]
        constraints = [(Vec2.of(1, 0), big), (Vec2.of(0, 1), big)]
        pairs = kernels.unit_pair_indices(pts, constraints)
        assert pairs == [(0, 1), (1, 2)]
        _, _, max_dv = kernels.scaled_unit_pair_input(pts, constraints)
        assert max_dv >= 2**62  # confirms the fallback path was required

    def test_dispatch_matches_forced_python(self):
        P = flat_side_quadratic(30)
        constraints = list(zip(square().normals, square().offsets))
        fast = kernels.unit_pair_indices(list(P), constraints)
        vals, bounds, _ = kernels.scaled_unit_pair_input(list(P), constraints)
        assert fast == _kern_py.unit_pairs(vals, bounds)


class TestWeakCutBackends:
    @needs_ext
    @pytest.mark.parametrize("seed", range(10))
    def test_agreement(self, seed):
        rng = random.Random(seed)
        w = rng.randint(2, 14)
        adj = [0] * w
        for i in range(w):
            for j in range(i + 1, w):
                if rng.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        r = rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])
        thr = weak_delta_table(w, r)
        assert _kern_py.min_weak_cut(adj, w, thr) == \
            _kern_cy.min_weak_cut(adj, w, thr)

    def test_trivial_cases(self):
        # no weak cut in a K3 at r=1/2
        adj = [0b110, 0b101, 0b011]
        thr = weak_delta_table(3, Fraction(1, 2))
        assert kernels.min_weak_cut(adj, thr) is None
        # disconnected pair: the component split has delta 0
        adj = [0b0010, 0b0001, 0b1000, 0b0100]
        thr = weak_delta_table(4, Fraction(1))
        hit = kernels.min_weak_cut(adj, thr)
        assert hit is not None and hit[1] == 0

    def test_backend_reported(self):
        assert kernels.active_backend() in ("python", "cython")
