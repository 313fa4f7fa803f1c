import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import octagon, twelve_gon
from udnorm import kernels
from udnorm.colored import weak_delta_table
from udnorm.norms import square
from udnorm.ratlin import Vec2


def flat_unit_pairs(vals, bounds):
    """Reference: every pair i < j in row-major order, kept iff |Δv_c| ≤ d_c
    for every c with equality for some c."""
    n = len(vals)
    m = len(bounds)
    out = []
    for i in range(n):
        vi = vals[i]
        for j in range(i + 1, n):
            vj = vals[j]
            tight = False
            ok = True
            for c in range(m):
                dv = vj[c] - vi[c]
                if dv < 0:
                    dv = -dv
                d = bounds[c]
                if dv > d:
                    ok = False
                    break
                if dv == d:
                    tight = True
            if ok and tight:
                out.append((i, j))
    return out


@st.composite
def unit_pair_inputs(draw):
    """Rows on a small grid, so that pairs tight on one or on two
    constraints are common, then each column mapped by v ↦ shift + scale·v
    (its bound scaled too): values reach far past ±2⁶² and below zero.
    Some rows are planted at an exact bound from another row, tight on one
    or two constraints and strictly inside the others, and some are
    repeated."""
    m = draw(st.integers(1, 4))
    grid = draw(st.lists(st.lists(st.integers(-5, 5), min_size=m, max_size=m),
                         min_size=1, max_size=14))
    bounds = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 4))):
        row = list(draw(st.sampled_from(grid)))
        tight = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=2))
        for c, d in enumerate(bounds):
            if c in tight:
                row[c] += draw(st.sampled_from([-d, d]))
            else:
                row[c] += draw(st.integers(1 - d, d - 1))
        grid.append(row)
    for _ in range(draw(st.integers(0, 3))):
        grid.append(list(draw(st.sampled_from(grid))))
    grid = draw(st.permutations(grid))
    scale = draw(st.lists(st.sampled_from([1, 7, 2**62 + 1, 3**50]),
                          min_size=m, max_size=m))
    shift = draw(st.lists(st.integers(-2**90, 2**90), min_size=m, max_size=m))
    vals = [[shift[c] + scale[c] * x for c, x in enumerate(row)]
            for row in grid]
    return vals, [d * s for d, s in zip(bounds, scale)]


@st.composite
def unit_pair_points(draw):
    """Points on a grid of step 1/q around a far-off origin, under the
    square, octagon or 12-gon norm, plus points planted at a vertex (tight
    on two constraints) or a side midpoint (tight on one) from another."""
    B = draw(st.sampled_from([square(), octagon(), twelve_gon()]))
    q = draw(st.sampled_from([1, 2, 5]))
    origin = Vec2(Fraction(draw(st.integers(-10**25, 10**25)), 3),
                  Fraction(draw(st.integers(-10**25, 10**25)), 7))
    coords = st.integers(-2 * q, 2 * q)
    pts = [origin + Vec2(Fraction(a, q), Fraction(b, q))
           for a, b in draw(st.lists(st.tuples(coords, coords), min_size=1,
                                     max_size=16))]
    verts = B.vertices()
    steps = list(verts) + [(a + b).scale(Fraction(1, 2))
                           for a, b in zip(verts, verts[1:] + verts[:1])]
    for _ in range(draw(st.integers(0, 6))):
        pts.append(draw(st.sampled_from(pts)) + draw(st.sampled_from(steps)))
    return pts, list(zip(B.normals, B.offsets))


class TestUnitPairs:
    @settings(max_examples=300, deadline=None)
    @given(unit_pair_inputs())
    def test_scan_matches_flat_reference(self, inputs):
        vals, bounds = inputs
        assert kernels.unit_pairs(vals, bounds) == flat_unit_pairs(vals, bounds)

    @settings(max_examples=100, deadline=None)
    @given(unit_pair_points())
    def test_indices_match_flat_reference(self, inputs):
        pts, constraints = inputs
        vals, bounds, _ = kernels.scaled_unit_pair_input(pts, constraints)
        assert kernels.unit_pair_indices(pts, constraints) == \
            flat_unit_pairs(vals, bounds)

    def test_exact_beyond_int64(self):
        # scaled values far beyond int64 are compared exactly
        big = Fraction(10**30)
        pts = [Vec2.of(0, 0), Vec2.of(big, 0), Vec2.of(2 * big, 0)]
        constraints = [(Vec2.of(1, 0), big), (Vec2.of(0, 1), big)]
        pairs = kernels.unit_pair_indices(pts, constraints)
        assert pairs == [(0, 1), (1, 2)]
        _, _, max_dv = kernels.scaled_unit_pair_input(pts, constraints)
        assert max_dv >= 2**62

    def test_single_backend(self):
        assert kernels.active_backend() == "python"


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
        # the degree sequence rules out every cut of K3 at r = 1/2 and of K14
        # at r = 1
        adj = [0b110, 0b101, 0b011]
        assert kernels.weak_cut_bounds(adj, weak_delta_table(3, Fraction(1, 2)))[1] < 0
        full = (1 << 14) - 1
        adj = [full ^ (1 << v) for v in range(14)]
        assert kernels.weak_cut_bounds(adj, weak_delta_table(14, Fraction(1)))[1] < 0
        # no weak cut in a K3 at r=1/2
        adj = [0b110, 0b101, 0b011]
        thr = weak_delta_table(3, Fraction(1, 2))
        assert kernels.min_weak_cut(adj, thr) is None
        # disconnected pair: the component split has delta 0
        adj = [0b0010, 0b0001, 0b1000, 0b0100]
        thr = weak_delta_table(4, Fraction(1))
        hit = kernels.min_weak_cut(adj, thr)
        assert hit is not None and hit[1] == 0


@st.composite
def dense_weak_cut_inputs(draw):
    """A graph on at most 14 vertices, often dense, and r in [1/16, 64],
    mostly at most 3: the degree proof fires on about a third of them."""
    w = draw(st.integers(2, 14))
    p = draw(st.sampled_from([0.3, 0.6, 0.8, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    adj = [0] * w
    for i, j in itertools.combinations(range(w), 2):
        if rng.random() < p:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    r = Fraction(draw(st.one_of(st.integers(1, 48), st.integers(1, 1024))), 16)
    return adj, r


class TestDegreeProof:
    """kernels.weak_cut_bounds: bound[s] is at least the Δ of every weak cut
    whose smaller side has s or more vertices."""

    @settings(max_examples=150, deadline=None)
    @given(dense_weak_cut_inputs())
    def test_bound_holds_for_every_weak_cut(self, inputs):
        adj, r = inputs
        w = len(adj)
        thr = weak_delta_table(w, r)
        bound = kernels.weak_cut_bounds(adj, thr)
        assert all(a >= b for a, b in zip(bound[1:], bound[2:]))
        for a in range(1, 1 << (w - 1)):
            mask = a << 1
            pc = mask.bit_count()
            mn = min(pc, w - pc)
            delta = cut_degree(adj, mask)
            if delta <= thr[mn]:
                assert delta <= bound[mn]

    @settings(max_examples=300, deadline=None)
    @given(dense_weak_cut_inputs())
    def test_proof_implies_no_weak_cut(self, inputs):
        adj, r = inputs
        thr = weak_delta_table(len(adj), r)
        if kernels.weak_cut_bounds(adj, thr)[1] < 0:
            assert kernels.min_weak_cut(adj, thr) is None
            assert flat_min_weak_cut(adj, thr) is None
        else:
            assert kernels.min_weak_cut(adj, thr) == flat_min_weak_cut(adj, thr)
