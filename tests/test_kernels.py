import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def flat_min_weak_cut(adj, thr):
    """Reference: the flat scan over every mask in ascending order, each
    scored with an early exit at min(thr[min side], best Δ − 1)."""
    w = len(adj)
    best_mask = -1
    best_delta = -1
    full = (1 << w) - 1
    for a in range(1, 1 << (w - 1)):
        mask = a << 1
        pc = mask.bit_count()
        mn = pc if pc * 2 <= w else w - pc
        t = thr[mn]
        if t < 0:
            continue
        limit = t if best_delta < 0 else min(t, best_delta - 1)
        if limit < 0:
            continue
        other = full ^ mask
        delta = 0
        for v in range(w):
            side = other if (mask >> v) & 1 else mask
            d = (adj[v] & side).bit_count()
            if d > delta:
                delta = d
                if delta > limit:
                    break
        else:
            if best_delta < 0 or delta < best_delta:
                best_mask = mask
                best_delta = delta
    if best_mask < 0:
        return None
    return best_mask, best_delta


def cut_degree(adj, mask):
    """Reference Δ of the cut A = mask: the largest count of neighbours
    across."""
    w = len(adj)
    return max((adj[v] & (((1 << w) - 1) ^ mask if (mask >> v) & 1 else mask))
               .bit_count() for v in range(w))


@st.composite
def weak_cut_inputs(draw):
    """A graph on at most 12 vertices and r in [1/4, 1024]. Disjoint copies
    of one block and complete multipartite graphs have many tied minima."""
    w = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["random", "copies", "multipartite"]))
    edges = set()
    if kind == "random":
        pairs = list(itertools.combinations(range(w), 2))
        flags = draw(st.lists(st.booleans(), min_size=len(pairs),
                              max_size=len(pairs)))
        edges = {e for e, on in zip(pairs, flags) if on}
    elif kind == "copies":
        size = draw(st.integers(1, w))
        block = draw(st.sets(st.tuples(st.integers(0, size - 1),
                                       st.integers(0, size - 1))))
        for start in range(0, w - size + 1, size):
            edges |= {(start + i, start + j) for i, j in block if i < j}
    else:
        part = draw(st.lists(st.integers(0, 3), min_size=w, max_size=w))
        edges = {(i, j) for i, j in itertools.combinations(range(w), 2)
                 if part[i] != part[j]}
    adj = [0] * w
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    r = Fraction(draw(st.integers(1, 4096)), 4)
    return adj, r


class TestWeakCutBackends:
    @settings(max_examples=300, deadline=None)
    @given(weak_cut_inputs())
    def test_matches_flat_reference(self, inputs):
        adj, r = inputs
        thr = weak_delta_table(len(adj), r)
        hit = kernels.min_weak_cut(adj, thr)
        assert hit == flat_min_weak_cut(adj, thr)
        if hit is not None:
            assert cut_degree(adj, hit[0]) == hit[1]

    @settings(max_examples=100, deadline=None)
    @given(weak_cut_inputs(), st.integers(0, 2**12 - 1), st.integers(-1, 12))
    def test_cut_max_degree_limit(self, inputs, mask, limit):
        adj, _ = inputs
        mask &= (1 << len(adj)) - 1
        delta = cut_degree(adj, mask)
        assert kernels.cut_max_degree(adj, mask) == delta
        got = kernels.cut_max_degree(adj, mask, limit)
        assert got == delta if delta <= limit else got > limit

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
