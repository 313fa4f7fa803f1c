import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (integral, octagon, random_polygon, reference_rank,
                      scale_null_vectors, trapezoid_corners, twelve_gon)
from udnorm import certify, jsonio
from udnorm.checker import check_certificate
from udnorm.cli import pipeline_decagon
from udnorm.certify import (
    AffineForm,
    CertifierError,
    KillRecord,
    NormCertificate,
    OffsetBox,
    RefutationHit,
    VerifyReport,
    build_system,
    certify_box,
    enumerate_admissible,
    kill_assignment,
    sample_verify,
    witness_norm,
)
from udnorm.dependence import DependenceConfig, DependenceSystem, extract_dependences
from udnorm.norms import (
    AngleBound,
    NormOracle,
    OffsetVector,
    SymmetricPolygon,
    choose_delta0,
    eta_separated,
    hausdorff,
    offset_polygon,
    polygon_from_hull,
    square,
)
from udnorm.pointsets import flat_side_quadratic
from udnorm.ratlin import Vec2, left_null_basis, over_common_denominator, solve
from udnorm.udg import build_udg

TOY = DependenceSystem(ell=1, indices=(1, 2, 3), coeffs=((2,), (-1,)))
ETA_OCT = AngleBound.of(Fraction(5, 9))


def side_rhs(B1, alpha, t):
    """b(t) read off the side lines: side s lies on ⟨n, z⟩ = o ± t_(s mod m)."""
    m = B1.m
    out = []
    for side in alpha:
        _, o = B1.side_line(side)
        out.append(o + t[side % m] if side < m else o - t[side % m])
    return out


def side_matrix(S, B1, alpha):
    """A read off the side lines, in Fraction: row i is ⟨n_(αᵢ), ·⟩ applied
    to uᵢ."""
    weights = [[int(s == i) for s in range(S.ell)] for i in range(S.ell)]
    weights += [list(row) for row in S.coeffs]
    rows = []
    for side, row in zip(alpha, weights):
        n, _ = B1.side_line(side)
        rows.append([w * v for w in row for v in (n.x, n.y)])
    return rows


def rescaled_payload_certificate(cert, scale):
    """cert written as a payload with every y times `scale`, and read back."""
    d = jsonio.certificate_to_json(cert)
    scale_null_vectors(d, scale)
    return jsonio.certificate_from_json(d)


def assignment_functionals(S, B1):
    """(α, α mod m, [(y, h = yᵀb)]) per admissible assignment, one pair per
    left-null basis vector of its class tuple, in lexicographic order."""
    return certify._assignment_functionals(
        B1, certify._null_spaces(S, B1), enumerate_admissible(S.ell, B1.m))


def reference_form(B1, alpha, y):
    """h = yᵀb(t) built from the side lines in Fraction."""
    m = B1.m
    b0 = side_rhs(B1, alpha, [Fraction(0)] * m)
    coeffs = [Fraction(0)] * m
    for yi, side in zip(y, alpha):
        coeffs[side % m] = yi if side < m else -yi
    return AffineForm(sum(yi * bi for yi, bi in zip(y, b0)), coeffs)


def pipeline_system():
    """The ℓ = 2 system `udnorm pipeline` certifies at its defaults."""
    G = build_udg(flat_side_quadratic(10), square())
    config = DependenceConfig(q=Fraction(2001, 1000), C=Fraction(1, 4), seed=0)
    return extract_dependences(G, config).system


def brute_admissible(ell, m):
    count = 2 * ell + 1
    out = []
    for alpha in itertools.product(range(2 * m), repeat=count):
        classes = [a % m for a in alpha]
        if len(set(classes)) == count:
            out.append(alpha)
    return out


# --- the Fraction reject path: references for sample_verify's integer one ---


def point_in_trapezoid(corners, p):
    """Exact convex-quad membership (boundary counts as inside)."""
    sign = 0
    for a, b in zip(corners, tuple(corners[1:]) + (corners[0],)):
        c = (b - a).cross(p - a)
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def side_offset_of_point(B1, side, p):
    """The unique t with p on side `side`'s translated line ⟨n,z⟩ = ±(c+t)."""
    n, _ = B1.side_line(side)
    c = B1.offsets[side % B1.m]
    if side < B1.m:
        return n.dot(p) - c
    return -n.dot(p) - c


def reference_root_in_box(h, box):
    """The root walk in Fraction: from the box's center, each coordinate
    absorbs as much of the residual value as its half-width allows."""
    lo, hi = _reference_range(h, box)
    value = (lo + hi) / 2
    t = [(a + b) / 2 for a, b in zip(box.lo, box.hi)]
    for j, c in enumerate(h.coeffs):
        if value == 0:
            break
        if c == 0:
            continue
        reach = abs(c) * (box.hi[j] - box.lo[j]) / 2
        shift = max(-reach, min(reach, -value))
        t[j] += shift / c
        value += shift
    return tuple(t)


def reference_sample_verify(cert, trials, seed=0):
    """sample_verify with t, b(t), x and the directions in Fraction: A and
    b(t) read off the side lines, `solve`, and the corner, sweep and
    η-separation tests on `Vec2`s."""
    B1, box, S = cert.polygon, cert.box, cert.system
    m = B1.m
    sweep_ok = all(
        box.lo[side % m] <= side_offset_of_point(B1, side, corner) <= box.hi[side % m]
        for side in range(2 * m) for corner in trapezoid_corners(cert, side))
    hits = []

    def try_solve(alpha, t, source):
        x = solve(side_matrix(S, B1, alpha), side_rhs(B1, alpha, t))
        if x is None:
            return
        base = [Vec2(x[2 * s], x[2 * s + 1]) for s in range(S.ell)]
        us = tuple(base + [sum((u.scale(c) for c, u in zip(row, base)), Vec2.of(0, 0))
                           for row in S.coeffs])
        in_traps = all(point_in_trapezoid(trapezoid_corners(cert, side), u)
                       for side, u in zip(alpha, us))
        separated = not any(u.is_zero() for u in us) and all(
            eta_separated(u, v, cert.eta) for u, v in itertools.combinations(us, 2))
        hits.append(RefutationHit(alpha, tuple(t), us, in_traps, separated, source))

    null_spaces = certify._null_spaces(S, B1)
    factors = certify._box_factors(B1, box)
    undecided = sorted(
        alpha for classes, basis in null_spaces.items()
        if len(basis) > 1 or not certify._class_tuple_killed(basis[0], classes,
                                                            factors)
        for alpha in certify._side_choices(classes, m))
    open_systems = []
    for alpha in undecided:
        hforms = [reference_form(B1, alpha, y)
                  for y in null_spaces[tuple(a % m for a in alpha)]]
        for h in hforms:
            if h.sign_on(box):
                continue
            root = reference_root_in_box(h, box)
            if all(hf.eval(root) == 0 for hf in hforms):
                try_solve(alpha, root, "directed")
        if len(hforms) > 1:
            open_systems.append((alpha, hforms))
    rng = random.Random(seed)
    GRID = 1 << 30
    for _ in range(trials if open_systems else 0):
        t = tuple(lo + (hi - lo) * Fraction(rng.randrange(GRID + 1), GRID)
                  for lo, hi in zip(box.lo, box.hi))
        for alpha, hforms in open_systems:
            if all(hf.eval(t) == 0 for hf in hforms):
                try_solve(alpha, t, "random")
    return VerifyReport(trials, len(null_spaces) << (2 * S.ell + 1), sweep_ok,
                        tuple(hits))


def reference_kills(cert):
    """The kill records as a walk over `enumerate_admissible`: each
    assignment's form read off the side lines, its sign from `sign_on`."""
    table = dict(cert.null_vectors)
    m = cert.polygon.m
    out = []
    for alpha in enumerate_admissible(cert.system.ell, m):
        y = table[tuple(a % m for a in alpha)]
        h = reference_form(cert.polygon, alpha, y)
        out.append(KillRecord(alpha, y, h, h.sign_on(cert.box)))
    return tuple(out)


def stretches(m, low=-3, high=16):
    """Per coordinate, how far (in eighths of its width) each bound of a box
    moves outward; a negative count moves it inward."""
    return st.lists(st.tuples(st.integers(low, high), st.integers(low, high)),
                    min_size=m, max_size=m)


def stretched(cert, stretch):
    """The certificate on its box with each bound moved by `stretch`."""
    box = cert.box
    widths = [hi - lo for lo, hi in zip(box.lo, box.hi)]
    return dataclasses.replace(cert, box=OffsetBox(
        OffsetVector(tuple(lo - w * Fraction(a, 8)
                           for lo, w, (a, _) in zip(box.lo, widths, stretch))),
        OffsetVector(tuple(hi + w * Fraction(b, 8)
                           for hi, w, (_, b) in zip(box.hi, widths, stretch))),
    ))


class TestEnumerateAdmissible:
    @pytest.mark.parametrize("ell,m,expected", [
        (1, 2, 0), (1, 3, 48), (2, 5, 3840),
    ])
    def test_counts(self, ell, m, expected):
        got = list(enumerate_admissible(ell, m))
        assert len(got) == expected

    @pytest.mark.parametrize("ell,m", [(1, 3), (1, 4), (2, 5), (2, 6)])
    def test_matches_brute_force(self, ell, m):
        got = list(enumerate_admissible(ell, m))
        brute = brute_admissible(ell, m)
        assert sorted(got) == sorted(brute)
        assert got == sorted(got)  # lexicographic emission order

    def test_no_opposite_pairs(self):
        for a in enumerate_admissible(1, 4):
            classes = [v % 4 for v in a]
            assert len(set(classes)) == 3


class TestBuildSystem:
    def test_shape(self, octagon):
        alpha = next(enumerate_admissible(1, 4))
        A = build_system(TOY, octagon, alpha)
        assert (len(A), len(A[0])) == (3, 2)
        assert all(type(v) is int for row in A for v in row)
        first, classes, functionals = next(assignment_functionals(TOY, octagon))
        assert first == alpha == classes
        assert len(functionals) == 1

    def test_b_components_single_coordinate(self, octagon):
        # bᵢ = ±(c + tₖ) with k = αᵢ mod m, so h = yᵀb carries ±yᵢ at k
        for alpha, _, functionals in itertools.islice(
                assignment_functionals(TOY, octagon), 20):
            coords = [a % 4 for a in alpha]
            assert len(set(coords)) == 3  # admissibility: distinct mod m
            for y, h in functionals:
                nz = [j for j, c in enumerate(h.coeffs) if c != 0]
                assert nz == sorted(k for k, yi in zip(coords, y) if yi != 0)
                for k, yi in zip(coords, y):
                    assert abs(h.coeffs[k]) == abs(yi)

    @pytest.mark.parametrize("case", ["octagon", "twelve_gon", "pipeline", "open",
                                      "rational_y"])
    def test_null_functionals_match_reference(self, case):
        # each α against its own A and a b(t) read off the side lines:
        # yᵀA = 0, one functional per left-null dimension, h(t) = yᵀb(t)
        S, B1, step = {
            "octagon": (TOY, octagon(), 1),
            "rational_y": (TOY, twelve_gon(), 1),
            "twelve_gon": (TOY, twelve_gon(), 1),
            "pipeline": (pipeline_system(), pipeline_decagon(), 97),
            "open": (TestOpenAssignments.S, pipeline_decagon(), 97),
        }[case]
        m = B1.m
        box = OffsetBox(
            OffsetVector(tuple(Fraction(-(j + 1), 100) for j in range(m))),
            OffsetVector(tuple(Fraction(j + 2, 70) for j in range(m))),
        )
        if case == "rational_y":
            # a payload whose null vectors are not integral (the table scaled
            # by 2/3), read through jsonio and the derived kill records
            table = tuple((classes, basis[0])
                          for classes, basis in certify._null_spaces(S, B1).items())
            cert = rescaled_payload_certificate(witness_norm(NormCertificate(
                polygon=B1, box=box, null_vectors=table, system=S, eta=ETA_OCT)),
                Fraction(2, 3))
            items = [(rec.alpha, [(rec.y, rec.h)]) for rec in cert.kills]
            assert all(rec.sign == rec.h.sign_on(box) for rec in cert.kills)
        else:
            items = [(a, f) for a, _, f in assignment_functionals(S, B1)]
        assert [a for a, _ in items] == list(enumerate_admissible(S.ell, m))
        for alpha, functionals in items[::step]:
            ref = side_matrix(S, B1, alpha)
            assert build_system(S, B1, alpha) == ref
            assert len(functionals) == len(ref) - reference_rank(ref)
            for y, h in functionals:
                assert any(y) and all(type(v) is int for v in y)
                assert all(sum((yi * ref[i][j] for i, yi in enumerate(y)),
                               Fraction(0)) == 0 for j in range(len(ref[0])))
                for t in (box.lo, box.center(), box.hi):
                    b = side_rhs(B1, alpha, t)
                    assert h.eval(t) == sum(yi * bi for yi, bi in zip(y, b))
                # the same form built from Fraction const and coefficients
                want = reference_form(B1, alpha, y)
                assert h == want and hash(h) == hash(want)
                assert_reduced(h)

    def test_rows_encode_side_membership(self, octagon):
        # u2 = 2·u1, u3 = u1; alpha = (side x=1, side y=1, side x=-1):
        # octagon side ids 0 ((1,0) normal), 2 ((0,1) normal), 4 (= -side 0)
        S = DependenceSystem(ell=1, indices=(1, 2, 3), coeffs=((2,), (1,)))
        alpha = (0, 2, 4)
        A = build_system(S, octagon, alpha)
        u1 = Vec2.of(1, Fraction(1, 3))
        t = (Fraction(1, 10), Fraction(-1, 20), Fraction(0), Fraction(0))
        lhs = [a * u1.x + b * u1.y for a, b in A]
        # row 0: <(1,0), u1> = 1 + t_0 ; row 1: <(0,1), 2 u1> = 1 + t_2;
        # row 2: <(1,0), u1> = -(1 + t_0)
        assert lhs[0] == u1.x
        assert lhs[1] == 2 * u1.y
        assert lhs[2] == u1.x
        # b(t) as the reference tests read it off the side lines
        assert side_rhs(octagon, alpha, t) == [
            1 + t[0], 1 + t[2], -(1 + t[0])]


class TestKillAssignment:
    # A = [[1], [1]] has the left null vector y = (1, −1), so h = b₀ − b₁
    ALPHA = (0, 1)
    Y = (1, -1)

    def test_constant_nonzero_unchanged(self):
        h = AffineForm(Fraction(1), (Fraction(0),))
        box = OffsetBox.symmetric(1, 1)
        sub, rec = kill_assignment(self.ALPHA, (self.Y, h), box)
        assert sub == box
        assert rec.sign == 1
        assert (rec.alpha, rec.y, rec.h) == (self.ALPHA, self.Y, h)

    def test_center_shift_rule(self):
        # h(t) = t1 on [-1,1] shrinks to [1/4, 1]
        h = AffineForm(Fraction(0), (Fraction(1), Fraction(0)))
        box = OffsetBox.symmetric(1, 2)
        sub, rec = kill_assignment(self.ALPHA, (self.Y, h), box)
        assert (sub.lo[0], sub.hi[0]) == (Fraction(1, 4), Fraction(1))
        assert (sub.lo[1], sub.hi[1]) == (Fraction(-1), Fraction(1))
        assert rec.sign == 1
        assert rec.h.interval_on(sub).excludes_zero()

    def test_volume_factor(self):
        # every shrunk coordinate keeps at least 1/4 of its width
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(1, 4)
            coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
            h = AffineForm(Fraction(rng.randint(-2, 2), 4), coeffs)
            box = OffsetBox.symmetric(1, m)
            try:
                sub, _ = kill_assignment(self.ALPHA, (self.Y, h), box)
            except CertifierError:
                continue  # h identically zero
            for j in range(m):
                assert sub.hi[j] - sub.lo[j] >= Fraction(1, 4) * 2

    def test_unsolvable_downstream(self, octagon):
        rng = random.Random(4)
        alpha, _, functionals = list(assignment_functionals(TOY, octagon))[17]
        assert alpha == list(enumerate_admissible(1, 4))[17]
        A = build_system(TOY, octagon, alpha)
        box = OffsetBox.symmetric(Fraction(1, 100), 4)
        sub, rec = kill_assignment(alpha, functionals[0], box)
        for _ in range(100):
            t = tuple(
                lo + (hi - lo) * Fraction(rng.randrange(1024), 1024)
                for lo, hi in zip(sub.lo, sub.hi)
            )
            assert solve(A, side_rhs(octagon, alpha, t)) is None


def assert_reduced(h):
    """The stored integers are in lowest terms with a positive denominator."""
    assert h.den > 0
    assert math.gcd(h.num, h.den, *h.nums) == 1
    assert (h.const, h.coeffs) == (Fraction(h.num, h.den),
                                   tuple(Fraction(c, h.den) for c in h.nums))


def _reference_range(h, box):
    """[lo, hi] of h on the box, summed term by term in Fraction."""
    lo = hi = h.const
    for c, a, b in zip(h.coeffs, box.lo, box.hi):
        lo += c * a if c > 0 else c * b
        hi += c * b if c > 0 else c * a
    return lo, hi


RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=60)


@st.composite
def forms_and_boxes(draw):
    m = draw(st.integers(1, 5))
    coeffs = draw(st.lists(RATIONALS, min_size=m, max_size=m))
    lo = draw(st.lists(RATIONALS, min_size=m, max_size=m))
    widths = draw(st.lists(
        st.fractions(min_value=Fraction(1, 60), max_value=8, max_denominator=60),
        min_size=m, max_size=m))
    box = OffsetBox(OffsetVector(tuple(lo)),
                    OffsetVector(tuple(a + w for a, w in zip(lo, widths))))
    # half the time, move the lower or upper end of the range onto 0
    const = draw(RATIONALS)
    lo0, hi0 = _reference_range(AffineForm(Fraction(0), tuple(coeffs)), box)
    const = draw(st.sampled_from([const, const, -lo0, -hi0]))
    return AffineForm(const, tuple(coeffs)), box


class TestIntegerCore:
    @settings(max_examples=200, deadline=None)
    @given(forms_and_boxes())
    def test_matches_fraction_reference(self, case):
        h, box = case
        lo, hi = _reference_range(h, box)
        iv = h.interval_on(box)
        assert (iv.lo, iv.hi) == (lo, hi)
        assert h.sign_on(box) == (1 if lo > 0 else -1 if hi < 0 else 0)
        t = box.center()
        assert h.eval(t) == h.const + sum(c * v for c, v in zip(h.coeffs, t))

    @given(RATIONALS, st.lists(RATIONALS, min_size=1, max_size=5))
    def test_reduced_and_hashable(self, const, coeffs):
        h = AffineForm(const, coeffs)
        assert_reduced(h)
        assert (h.const, h.coeffs) == (const, tuple(coeffs))
        # the same rationals given as strings, or as ints where integral
        same = AffineForm(f"{const.numerator}/{const.denominator}",
                          [int(c) if c.denominator == 1 else c for c in coeffs])
        assert same == h and hash(same) == hash(h)
        assert len({h, same}) == 1
        if any(coeffs):
            assert h != AffineForm(const, [2 * c for c in coeffs])


def _reference_kill(h, box):
    """The shrink rule in Fraction: the box itself when h is sign-definite
    on it, else h takes the sign of h(center) (+1 at 0) and each coordinate
    with c ≠ 0 keeps [center + width/8, hi] or [lo, center − width/8]."""
    lo, hi = _reference_range(h, box)
    if lo > 0 or hi < 0:
        return box, 1 if lo > 0 else -1
    center = [(a + b) / 2 for a, b in zip(box.lo, box.hi)]
    at_center = h.const + sum(c * v for c, v in zip(h.coeffs, center))
    sign = 1 if at_center >= 0 else -1
    new_lo, new_hi = list(box.lo), list(box.hi)
    for j, c in enumerate(h.coeffs):
        width = box.hi[j] - box.lo[j]
        if c != 0 and (c > 0) == (sign > 0):
            new_lo[j] = center[j] + width / 8
        elif c != 0:
            new_hi[j] = center[j] - width / 8
    return OffsetBox(tuple(new_lo), tuple(new_hi)), sign


@st.composite
def forms_with_zero_at(draw, definite=True):
    """A form and a box with the constant moved so that h vanishes at the
    center or at a drawn point of its range, or (when `definite`) so that
    the range lies above or below 0."""
    h, box = draw(forms_and_boxes())
    lo, hi = _reference_range(h, box)
    lam = draw(st.sampled_from(
        [Fraction(1, 2), Fraction(0), Fraction(1),
         draw(st.fractions(min_value=0, max_value=1, max_denominator=30))]))
    root = -(lo + lam * (hi - lo))
    shift = draw(st.sampled_from(
        [Fraction(0), root, 1 - lo, -1 - hi] if definite else [root]))
    return AffineForm(h.const + shift, h.coeffs), box


class TestKillRule:
    """kill_assignment and _root_in_box evaluate h on the box through its
    integer range only; both agree with the Fraction rule they replaced."""

    ALPHA = (0, 1)
    Y = (1, -1)

    @settings(max_examples=200, deadline=None)
    @given(forms_with_zero_at())
    def test_kill_matches_fraction_reference(self, case):
        h, box = case
        want_box, want_sign = _reference_kill(h, box)
        lo, hi = _reference_range(h, want_box)
        if not (lo > 0 if want_sign > 0 else hi < 0):
            # only h ≡ 0 survives the shrink
            assert not any(h.coeffs) and h.const == 0
            with pytest.raises(CertifierError):
                kill_assignment(self.ALPHA, (self.Y, h), box)
            return
        sub, rec = kill_assignment(self.ALPHA, (self.Y, h), box)
        assert (sub.lo, sub.hi) == (want_box.lo, want_box.hi)
        assert (sub is box) == (want_box is box)
        assert (rec.alpha, rec.y, rec.h, rec.sign) == (
            self.ALPHA, self.Y, h, want_sign)

    @settings(max_examples=200, deadline=None)
    @given(forms_with_zero_at(definite=False))
    def test_root_in_box(self, case):
        # the integer root is the Fraction walk's point, over T > 0
        h, box = case
        assert h.sign_on(box) == 0
        T, ts = certify._root_in_box(h, box)
        t = tuple(Fraction(v, T) for v in ts)
        assert T > 0 and t == reference_root_in_box(h, box)
        assert all(a <= v <= b for a, v, b in zip(box.lo, t, box.hi))
        assert h.const + sum(c * v for c, v in zip(h.coeffs, t)) == 0


class TestRandomPassCore:
    """The random verify pass tests h(t) = 0 on t·T, with T = D·2³⁰ a
    common denominator of every t of a trial but not always the least."""

    @settings(max_examples=200, deadline=None)
    @given(forms_with_zero_at(definite=False), st.integers(1, 2**30))
    def test_scaled_value_matches_fractions(self, case, extra):
        h, box = case
        for t in (box.center(), reference_root_in_box(h, box), box.lo):
            T, ts = over_common_denominator(t)
            value = h._scaled_value(T * extra, [v * extra for v in ts])
            want = h.const + sum(c * v for c, v in zip(h.coeffs, t))
            assert Fraction(value, h.den * T * extra) == want == h.eval(t)


def circle_polygon(ts):
    """The polygon whose vertices are the rational points of the unit circle
    ((1 − t²)/(1 + t²), 2t/(1 + t²)) for t in ts and their negatives: one side
    pair per t, since no three of the points are collinear."""
    pts = [Vec2((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
           for t in map(Fraction, ts)]
    return polygon_from_hull(pts + [-p for p in pts])


@st.composite
def class_tuple_systems(draw, rank_deficient=False):
    """(S, B, class tuple) with ℓ = 1..3 and 2ℓ+1 ≤ m. A rank-deficient
    system has every dependent row equal to ±e_b for one base direction b,
    so M's other rows vanish and nullity ≥ 2 once ℓ ≥ 2."""
    if draw(st.booleans()):
        B = circle_polygon(draw(st.lists(
            st.fractions(min_value=Fraction(1, 9), max_value=40,
                         max_denominator=9), min_size=3, max_size=8, unique=True)))
    else:
        B = random_polygon(random.Random(draw(st.integers(0, 2**32 - 1))),
                           points=draw(st.integers(4, 9)))
    assume(B.m >= 3)
    ell = draw(st.integers(1, min(3, (B.m - 1) // 2)))
    if rank_deficient:
        b = draw(st.integers(0, ell - 1))
        coeffs = tuple(tuple(sign * int(s == b) for s in range(ell))
                       for sign in draw(st.lists(st.sampled_from((1, -1)),
                                                 min_size=ell + 1, max_size=ell + 1)))
    else:
        row = st.lists(st.integers(-4, 4), min_size=ell, max_size=ell).filter(any)
        coeffs = tuple(map(tuple, draw(st.lists(row, min_size=ell + 1,
                                                max_size=ell + 1))))
    S = DependenceSystem(ell=ell, indices=tuple(range(1, 2 * ell + 2)),
                         coeffs=coeffs)
    classes = tuple(draw(st.permutations(range(B.m)))[:2 * ell + 1])
    return S, B, classes


class TestClosedForm:
    """The closed-form null vector is `left_null_basis`'s, entries and sign
    included, and it declines exactly when rank(M) < ℓ."""

    @staticmethod
    def check(S, B, classes):
        ell = S.ell
        y = certify._closed_form_null_vector(
            *certify._normal_products(B.scaled[1]), S.coeffs, classes)
        basis = left_null_basis(build_system(S, B, classes))
        # M[s][j] = w_j[s]·[n_s, n_j] on the dependent entries, in Fraction
        n = [B.normals[k] for k in classes]
        M = [[S.coeffs[j][s] * n[s].cross(n[ell + j]) for j in range(ell + 1)]
             for s in range(ell)]
        assert (y is None) == (reference_rank(M) < ell) == (len(basis) >= 2)
        if y is not None:
            assert [y] == basis
        return y

    @settings(max_examples=300, deadline=None)
    @given(class_tuple_systems())
    def test_matches_left_null_basis(self, case):
        self.check(*case)

    @settings(max_examples=100, deadline=None)
    @given(class_tuple_systems(rank_deficient=True))
    def test_rank_deficient(self, case):
        S, _, _ = case
        assert (self.check(*case) is None) == (S.ell >= 2)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_every_class_tuple(self, ell):
        # ℓ = 3 needs m ≥ 7: a circle polygon with 7 side pairs
        B = circle_polygon([Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), 1,
                            Fraction(3, 2), Fraction(5, 2), 6])
        rng = random.Random(ell)
        S = DependenceSystem(
            ell=ell, indices=tuple(range(1, 2 * ell + 2)),
            coeffs=tuple(tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                               for _ in range(ell)) for _ in range(ell + 1)))
        perms = list(itertools.permutations(range(B.m), 2 * ell + 1))
        for classes in perms[::max(1, len(perms) // 150)]:
            self.check(S, B, classes)


@st.composite
def class_tuple_boxes(draw):
    """(B, class tuple, integer y, box). Half the time one bound of the box
    is moved so that one side choice's form has a range ending exactly at 0."""
    B = draw(st.sampled_from([octagon(), twelve_gon(), pipeline_decagon()]))
    m = B.m
    ell = draw(st.integers(1, (m - 1) // 2))
    classes = tuple(draw(st.permutations(range(m)))[:2 * ell + 1])
    y = draw(st.lists(st.integers(-6, 6), min_size=2 * ell + 1,
                      max_size=2 * ell + 1))
    small = st.fractions(min_value=-1, max_value=1, max_denominator=40)
    lo = draw(st.lists(small, min_size=m, max_size=m))
    widths = draw(st.lists(st.fractions(min_value=Fraction(1, 40), max_value=1,
                                        max_denominator=40),
                           min_size=m, max_size=m))
    box = OffsetBox(tuple(lo), tuple(a + w for a, w in zip(lo, widths)))
    if draw(st.booleans()):
        alpha = tuple(k + m * draw(st.integers(0, 1)) for k in classes)
        h = reference_form(B, alpha, y)
        coords = [j for j, c in enumerate(h.coeffs) if c]
        if coords:
            j = draw(st.sampled_from(coords))
            c = h.coeffs[j]
            low, high = _reference_range(h, box)
            new_lo, new_hi = list(box.lo), list(box.hi)
            if draw(st.booleans()):
                # the low end reads lo_j when c > 0 and hi_j when c < 0
                (new_lo if c > 0 else new_hi)[j] -= low / c
            else:
                (new_hi if c > 0 else new_lo)[j] -= high / c
            if all(a < b for a, b in zip(new_lo, new_hi)):
                box = OffsetBox(tuple(new_lo), tuple(new_hi))
    return B, classes, y, box


class TestClassTupleTest:
    @settings(max_examples=300, deadline=None)
    @given(class_tuple_boxes())
    def test_matches_every_side_choice(self, case):
        B, classes, y, box = case
        m = B.m
        want = all(reference_form(B, tuple(k + m * s for k, s in zip(classes, sides)),
                                  y).sign_on(box) != 0
                   for sides in itertools.product((0, 1), repeat=len(classes)))
        factors = certify._box_factors(B, box)
        assert certify._class_tuple_killed(y, classes, factors) == want


def reference_certify_box(S, B1, delta0, eta):
    """certify_box as one kill_assignment per assignment in lexicographic
    order, with each class tuple's y from `left_null_basis` and each form
    from the side lines."""
    m = B1.m
    box = OffsetBox.symmetric(delta0, m)
    firsts = {classes: left_null_basis(integral(side_matrix(S, B1, classes)))[0]
              for classes in itertools.permutations(range(m), 2 * S.ell + 1)}
    for alpha in enumerate_admissible(S.ell, m):
        y = firsts[tuple(a % m for a in alpha)]
        box, _ = kill_assignment(alpha, (y, reference_form(B1, alpha, y)), box)
    return NormCertificate(polygon=B1, box=box, null_vectors=tuple(firsts.items()),
                           system=S, eta=eta, degenerate=not firsts)


def _random_systems(count, seed=11):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3))
        if all(any(r) for r in rows):
            out.append(DependenceSystem(ell=2, indices=(1, 2, 3, 4, 5), coeffs=rows))
    return out


REFERENCE_CASES = {
    "toy-octagon": lambda: (TOY, octagon(), ETA_OCT),
    "toy-twelve_gon": lambda: (TOY, twelve_gon(), AngleBound.of(Fraction(2, 5))),
    "pipeline": lambda: (pipeline_system(), pipeline_decagon(),
                         AngleBound.of(Fraction(2, 5))),
    **{f"random-{i}": (lambda S=S: (S, pipeline_decagon(),
                                    AngleBound.of(Fraction(2, 5))))
       for i, S in enumerate(_random_systems(5))},
}


class TestCertifyBoxReference:
    @pytest.mark.parametrize("delta0", ["1/100", "1/20", "1/10", "1/5"])
    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_same_certificate(self, case, delta0):
        # the larger δ₀ force shrinks; the class-tuple walk must leave the
        # same box and the same table
        S, B1, eta = REFERENCE_CASES[case]()
        try:
            want = reference_certify_box(S, B1, Fraction(delta0), eta)
        except CertifierError as err:
            with pytest.raises(CertifierError, match=str(err)):
                certify_box(S, B1, Fraction(delta0), eta)
            return
        assert certify_box(S, B1, Fraction(delta0), eta) == want


def _toy_certificate(polygon, eta, with_witness=True):
    cert = certify_box(TOY, polygon, Fraction(1, 100), eta)
    return witness_norm(cert) if with_witness else cert


class TestCertifyBox:
    def test_octagon(self, octagon):
        cert = _toy_certificate(octagon, ETA_OCT, with_witness=False)
        assert len(cert.kills) == 192
        assert not cert.degenerate
        # one null vector per class tuple, in the order certify met them
        first_met = list(dict.fromkeys(
            tuple(a % 4 for a in rec.alpha) for rec in cert.kills))
        assert [classes for classes, _ in cert.null_vectors] == first_met
        assert len(first_met) == 4 * 3 * 2
        for rec in cert.kills:
            iv = rec.h.interval_on(cert.box)
            assert iv.excludes_zero()
            assert (iv.lo > 0) == (rec.sign > 0)

    @pytest.mark.parametrize("which", ["octagon", "pipeline"])
    def test_null_vectors_are_ints(self, which):
        S, B, delta0, eta = {
            "octagon": (TOY, octagon(), Fraction(1, 100), ETA_OCT),
            "pipeline": (pipeline_system(), pipeline_decagon(), Fraction(1, 64),
                         AngleBound.of(Fraction(2, 5))),
        }[which]
        cert = certify_box(S, B, delta0, eta)
        assert cert.null_vectors
        assert all(type(v) is int for _, y in cert.null_vectors for v in y)
        assert all(type(v) is int for rec in cert.kills for v in rec.y)

    def test_degenerate_when_m_too_small(self, octagon):
        # 2ℓ+1 = 5 > m = 4: no admissible assignment exists
        wide = DependenceSystem(ell=2, indices=(1, 2, 3, 4, 5),
                                coeffs=((1, 1), (1, -1), (2, 1)))
        cert = certify_box(wide, octagon, Fraction(1, 100), ETA_OCT)
        assert cert.degenerate
        assert cert.kills == () == cert.null_vectors

    def test_idempotent(self, octagon):
        cert = _toy_certificate(octagon, ETA_OCT, with_witness=False)
        again = certify_box(TOY, octagon, Fraction(1, 100), ETA_OCT)
        # the box was never shrunk past sign-definiteness: rerunning from
        # the final box leaves it unchanged
        assert again.box == cert.box
        for rec in cert.kills:
            assert rec.h.interval_on(again.box).excludes_zero()

    @pytest.mark.parametrize("delta0", [Fraction(1, 20), Fraction(1, 10)],
                             ids=["1/20", "1/10"])
    def test_shrunk_box_keeps_every_sign(self, octagon, delta0):
        # at these δ₀ kill_assignment shrinks the box, and certify_box keeps
        # no record to recheck: each sign must still hold on the final box.
        # The shrunk boxes' trapezoids are not η-short, so there is no
        # witness, and the checker's one failure is that missing witness
        cert = certify_box(TOY, octagon, delta0, ETA_OCT)
        assert cert.box != OffsetBox.symmetric(delta0, octagon.m)
        assert len(cert.kills) == 192
        assert all(rec.sign != 0 for rec in cert.kills)
        with pytest.raises(CertifierError, match="not η-short"):
            witness_norm(cert)
        report = check_certificate(cert)
        assert not report.ok
        assert report.failing_alphas == []
        assert len(report.failures) == 1
        assert "witness" in report.failures[0]

    def test_requires_eta_short(self, octagon):
        with pytest.raises(CertifierError):
            certify_box(TOY, octagon, Fraction(1, 100), AngleBound.of(Fraction(1, 4)))


def _homothetic_witness():
    """witness_norm on the pipeline decagon with tᵢ ∈ ‖nᵢ‖·[1/8, 1/4]:
    its canonical offsets are ‖nᵢ‖, so B_in = 9/8·B and B_out = 5/4·B, and
    its trapezoids span the decagon's own η-short sides. A square has no
    such box: its trapezoids span a right angle, which no η ≤ π/2 passes."""
    B = pipeline_decagon()
    lengths = [math.isqrt(int(n.norm_sq())) for n in B.normals]
    assert lengths == list(B.offsets)
    box = OffsetBox(tuple(Fraction(c, 8) for c in lengths),
                    tuple(Fraction(c, 4) for c in lengths))
    return B, witness_norm(NormCertificate(
        polygon=B, box=box, null_vectors=(), system=TOY,
        eta=AngleBound.of(Fraction(2, 5)), degenerate=True))


def _scaled(B, k):
    return SymmetricPolygon(B.normals, tuple(c * k for c in B.offsets))


class TestWitness:
    def test_homothetic_margin_rule(self):
        # integer normal lengths make the bound exact: δ = min gap/(2‖nᵢ‖)
        B, cert = _homothetic_witness()
        assert cert.witness_in == _scaled(B, Fraction(9, 8))
        assert cert.witness_out == _scaled(B, Fraction(5, 4))
        assert cert.witness_mid == _scaled(B, Fraction(19, 16))
        assert cert.delta == Fraction(1, 16)

    def test_sandwich_containment_under_jitter(self):
        _, cert = _homothetic_witness()
        rng = random.Random(5)
        B = cert.witness_mid
        for _ in range(100):
            jittered = []
            for v in B.vertices()[: B.m]:
                dx = Fraction(rng.randint(-1000, 1000), 10**5)
                dy = Fraction(rng.randint(-1000, 1000), 10**5)
                jittered.append(Vec2(v.x + dx, v.y + dy))
            sym = jittered + [-p for p in jittered]
            from udnorm.norms import polygon_from_hull
            Bp = polygon_from_hull(sym)
            # jitter of 0.01 < δ = 1/16: the sandwich must hold
            assert hausdorff(Bp, B).hi < cert.delta
            assert all(cert.witness_out.gauge(v) <= 1 for v in Bp.vertices())
            assert all(Bp.gauge(v) <= 1 for v in cert.witness_in.vertices())

    def test_full_toy_witness(self, octagon):
        cert = _toy_certificate(octagon, ETA_OCT)
        assert cert.delta > 0
        assert all(cert.witness_out.gauge(v) <= 1 for v in cert.witness_mid.vertices())
        assert all(cert.witness_mid.gauge(v) <= 1 for v in cert.witness_in.vertices())
        for t in (cert.box.lo, cert.box.center(), cert.box.hi):
            Bt = offset_polygon(octagon, t)
            assert all(cert.witness_out.gauge(v) <= 1 for v in Bt.vertices())
            assert all(Bt.gauge(v) <= 1 for v in cert.witness_in.vertices())


class TestCorrectnessChecks:
    # each check raises CertifierError, so it also runs under python -O

    def test_final_recheck_retests_class_tuples(self, octagon, monkeypatch):
        # the loop's 24 class-tuple tests (one per class tuple) pass by fiat,
        # so nothing shrinks the box at δ₀ = 1/5; the final recheck retests
        # every class tuple and names the first assignment in lexicographic
        # order whose form has a root on the box
        killed = certify._class_tuple_killed
        calls = []

        def lenient(*args):
            calls.append(args)
            return len(calls) <= 24 or killed(*args)

        monkeypatch.setattr(certify, "_class_tuple_killed", lenient)
        with pytest.raises(CertifierError, match="not sign-definite") as err:
            certify_box(TOY, octagon, Fraction(1, 5), ETA_OCT)
        box = OffsetBox.symmetric(Fraction(1, 5), 4)
        ys = {classes: basis[0]
              for classes, basis in certify._null_spaces(TOY, octagon).items()}
        first = next(alpha for alpha in enumerate_admissible(1, 4)
                     if reference_form(octagon, alpha,
                                       ys[tuple(a % 4 for a in alpha)]
                                       ).sign_on(box) == 0)
        assert f"kill record for {first} " in str(err.value)

    def test_margin_positive(self):
        # a degenerate box (lo = hi) that skipped OffsetBox's validation
        box = object.__new__(OffsetBox)
        flat = (Fraction(1, 8), Fraction(1, 8))
        object.__setattr__(box, "lo", flat)
        object.__setattr__(box, "hi", flat)
        cert = NormCertificate(polygon=square(), box=box, null_vectors=(),
                               system=TOY, eta=AngleBound.of(1), degenerate=True)
        with pytest.raises(CertifierError, match="margin"):
            witness_norm(cert)


class TestTrapezoids:
    def test_tiling_area(self, octagon):
        cert = _toy_certificate(octagon, ETA_OCT)
        total = Fraction(0)
        for side in range(2 * octagon.m):
            quad = trapezoid_corners(cert, side)
            acc = Fraction(0)
            for p, q in zip(quad, quad[1:] + quad[:1]):
                acc += p.cross(q)
            total += abs(acc) / 2
        annulus = cert.witness_out.area() - cert.witness_in.area()
        assert total == annulus

    def test_membership_and_tie_rule(self, octagon):
        cert = _toy_certificate(octagon, ETA_OCT)
        edges = certify._trapezoid_edges(cert)
        # a point clearly inside trapezoid 0, outside trapezoid 1
        n, _ = octagon.side_line(0)
        mid_t = (cert.box.lo[0] + cert.box.hi[0]) / 2
        p = n.scale((octagon.offsets[0] + mid_t) / n.norm_sq())
        E, (x, y) = over_common_denominator(p.as_tuple())
        assert point_in_trapezoid(trapezoid_corners(cert, 0), p)
        assert certify._in_trapezoid(edges[0], x, y, E)
        assert not certify._in_trapezoid(edges[1], x, y, E)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["octagon", "twelve_gon"]), st.data())
    def test_membership_matches_fraction_reference(self, which, data):
        # corners, points on the edges and points near them: the boundary
        # counts as inside in both
        polygon, eta = {"octagon": (octagon, ETA_OCT),
                        "twelve_gon": (twelve_gon, AngleBound.of(Fraction(2, 5)))}[which]
        cert = _toy_certificate(polygon(), eta)
        side = data.draw(st.integers(0, 2 * cert.polygon.m - 1))
        corners = trapezoid_corners(cert, side)
        a, b = data.draw(st.sampled_from(corners)), data.draw(st.sampled_from(corners))
        lam = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
        nudge = Vec2(*(Fraction(data.draw(st.integers(-2, 2)), 10**4)
                       for _ in range(2)))
        p = a + (b - a).scale(lam) + nudge
        E, (x, y) = over_common_denominator(p.as_tuple())
        for k in (1, 3):  # any common denominator
            assert certify._in_trapezoid(
                certify._trapezoid_edges(cert)[side], k * x, k * y, k * E
            ) == point_in_trapezoid(corners, p)

    def test_sweep_tie_rule(self, octagon):
        # the certified box's bounds are the corners' own offsets: a corner
        # on a bound passes, one a hair outside a bound fails
        cert = _toy_certificate(octagon, ETA_OCT)
        box, eps = cert.box, Fraction(1, 10**12)
        assert certify._sweep_ok(cert)
        for k in range(octagon.m):
            for moved in ((box.lo, tuple(v - eps * (j == k) for j, v in enumerate(box.hi))),
                          (tuple(v + eps * (j == k) for j, v in enumerate(box.lo)), box.hi)):
                bad = dataclasses.replace(cert, box=OffsetBox(*moved))
                assert not certify._sweep_ok(bad)
                assert not reference_sample_verify(bad, 0).sweep_ok

    def test_sweep_offsets_in_range(self, octagon):
        cert = _toy_certificate(octagon, ETA_OCT)
        assert certify._sweep_ok(cert)
        for side in range(2 * octagon.m):
            k = side % octagon.m
            for corner in trapezoid_corners(cert, side):
                t = side_offset_of_point(octagon, side, corner)
                assert cert.box.lo[k] <= t <= cert.box.hi[k]


class TestBoxUnsolvability:
    def test_all_assignments_unsolvable_at_random_t(self, octagon):
        # invariant: 100 random t in the certified box, every admissible
        # assignment, full exact solve comes back inconsistent
        cert = _toy_certificate(octagon, ETA_OCT, with_witness=False)
        systems = [
            (alpha, build_system(TOY, octagon, alpha))
            for alpha in enumerate_admissible(1, 4)
        ]
        rng = random.Random(0)
        for _ in range(100):
            t = tuple(
                lo + (hi - lo) * Fraction(rng.randrange(4096), 4096)
                for lo, hi in zip(cert.box.lo, cert.box.hi)
            )
            for alpha, A in systems:
                assert solve(A, side_rhs(octagon, alpha, t)) is None


def _widened(cert):
    """The certificate with its box scaled by the first power of two (up to
    32) on which some kill record's h has a root."""
    for factor in (2, 4, 8, 16, 32):
        wide = OffsetBox(
            OffsetVector(tuple(v * factor for v in cert.box.lo)),
            OffsetVector(tuple(v * factor for v in cert.box.hi)),
        )
        if any(rec.h.sign_on(wide) == 0 for rec in cert.kills):
            break
    return dataclasses.replace(cert, box=wide)


class TestSampleVerify:
    def test_toy_zero_hits(self, octagon):
        cert = _toy_certificate(octagon, ETA_OCT)
        rep = sample_verify(cert, 200, seed=0)
        assert rep.trials == 200
        assert rep.alphas_checked == 192
        assert rep.sweep_ok
        assert not rep.counterexample_found

    def test_empty_report(self, octagon):
        cert = _toy_certificate(octagon, ETA_OCT)
        rep = sample_verify(cert, 0, seed=0)
        assert rep.trials == 0
        assert rep.hits == ()

    def test_refuses_unwitnessed(self, octagon):
        # certify_box's construction-stage certificate has no sandwich for
        # the trapezoid and sweep tests
        cert = _toy_certificate(octagon, ETA_OCT, with_witness=False)
        with pytest.raises(CertifierError, match="witness"):
            sample_verify(cert, 0, seed=0)

    def test_zero_trials_still_decides(self, octagon):
        # trials sizes only the random pass: the directed decision still runs
        cert = _toy_certificate(octagon, ETA_OCT)
        bad = dataclasses.replace(cert, box=OffsetBox(
            OffsetVector(tuple(v * 32 for v in cert.box.lo)),
            OffsetVector(tuple(v * 32 for v in cert.box.hi)),
        ))
        rep = sample_verify(bad, 0, seed=0)
        assert rep.trials == 0
        assert rep.alphas_checked == 192
        assert rep.counterexample_found
        assert all(h.source == "directed" for h in rep.hits)

    def test_mutation_found(self, octagon):
        bad = _widened(_toy_certificate(octagon, ETA_OCT))
        rep = sample_verify(bad, 100, seed=0)
        assert rep.counterexample_found
        assert any(h.source == "directed" for h in rep.hits)
        # every reported hit is a genuine solvable system inside the box
        for hit in rep.hits[:5]:
            A = build_system(TOY, octagon, hit.alpha)
            assert all(lo <= v <= hi for lo, v, hi
                       in zip(bad.box.lo, hit.t, bad.box.hi))
            assert solve(A, side_rhs(octagon, hit.alpha, hit.t)) is not None

    @pytest.mark.parametrize("polygon,sin_sq,digest", [
        (octagon, Fraction(5, 9),
         "345cdf74bb80414bf7056c07fe97a448f39d0dbd0a14530ae0df49977d715310"),
        (twelve_gon, Fraction(2, 5),
         "b7fa1ceecaf4a9df4664ac1dae6a9b7abc7f98805a7e605a13011fcd3efa9e36"),
    ], ids=["octagon", "twelve_gon"])
    def test_refutation_report_pinned(self, polygon, sin_sq, digest):
        # changes meant to preserve behaviour must leave every hit's α, t,
        # directions and flags unchanged
        cert = _toy_certificate(polygon(), AngleBound.of(sin_sq))
        rep = sample_verify(_widened(cert), 100, seed=0)
        payload = json.dumps(jsonio.report_to_json(rep), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def oct_toy():
    return _toy_certificate(octagon(), ETA_OCT)


class TestDirectedDecision:
    @settings(max_examples=30, deadline=None)
    @given(stretches(4))
    def test_hit_iff_some_record_straddles_zero(self, oct_toy, stretch):
        # every toy null space is 1-dimensional, so the directed pass alone
        # decides each assignment: a hit exactly when some recorded h fails
        # to be sign-definite on the mutated box
        bad = stretched(oct_toy, stretch)
        expected = any(not rec.h.interval_on(bad.box).excludes_zero()
                       for rec in bad.kills)
        assert sample_verify(bad, 1, 0).counterexample_found == expected


class TestOpenAssignments:
    # three dependent rows repeating the first base direction: every
    # assignment's left null space is 2-dimensional, so none is decided by
    # the directed pass alone and all of them reach the random pass
    S = DependenceSystem(ell=2, indices=(1, 2, 3, 4, 5),
                         coeffs=((1, 0), (1, 0), (1, 0)))

    def test_two_dim_null_spaces(self):
        spaces = certify._null_spaces(self.S, pipeline_decagon())
        assert len(spaces) == 120
        for classes, basis in spaces.items():
            assert len(basis) == 2
            assert basis == left_null_basis(build_system(self.S, pipeline_decagon(),
                                                         classes))

    @classmethod
    def certificate(cls):
        B1 = pipeline_decagon()
        eta = AngleBound.of(Fraction(2, 5))
        delta0 = choose_delta0(B1, NormOracle.of_polygon(B1), Fraction(1, 4), eta)
        return witness_norm(certify_box(cls.S, B1, delta0, eta))

    def test_random_pass_points(self, monkeypatch):
        # the random pass tests the open systems at tᵢ = loᵢ + (hiᵢ − loᵢ)·r/2³⁰
        # with r drawn from Random(seed) coordinate by coordinate; on the
        # certified box the directed pass evaluates nothing. Every evaluation
        # goes through the integer core, which sees t as (T, t·T)
        cert = self.certificate()
        seen = []
        evaluate = AffineForm._scaled_value

        def recording(h, T, ts):
            t = tuple(Fraction(v, T) for v in ts)
            if not seen or seen[-1] != t:
                seen.append(t)
            return evaluate(h, T, ts)

        monkeypatch.setattr(AffineForm, "_scaled_value", recording)
        sample_verify(cert, 3, seed=5)
        rng = random.Random(5)
        GRID = 1 << 30
        expected = [tuple(lo + (hi - lo) * Fraction(rng.randrange(GRID + 1), GRID)
                          for lo, hi in zip(cert.box.lo, cert.box.hi))
                    for _ in range(3)]
        assert seen == expected

    def test_certify_check_verify(self):
        cert = self.certificate()
        assert len(cert.kills) == 3840
        assert cert.delta > 0
        assert check_certificate(cert).ok
        rep = sample_verify(cert, 1, 0)
        assert rep.alphas_checked == 3840
        assert rep.sweep_ok
        assert not rep.counterexample_found


@functools.cache
def toy_cert(which):
    polygon, sin_sq = {"octagon": (octagon, Fraction(5, 9)),
                       "twelve_gon": (twelve_gon, Fraction(2, 5))}[which]
    return _toy_certificate(polygon(), AngleBound.of(sin_sq))


@functools.cache
def open_cert():
    return TestOpenAssignments.certificate()


def concurrent_box(cert, classes, p, half_width):
    """A box centered at the offsets that put the lines of sides `classes`
    (all < m) through the point p, the other coordinates at 0."""
    B1 = cert.polygon
    center = [Fraction(0)] * B1.m
    for k in classes:
        center[k] = side_offset_of_point(B1, k, p)
    return dataclasses.replace(cert, box=OffsetBox(
        tuple(c - half_width for c in center), tuple(c + half_width for c in center)))


@functools.cache
def pipeline_cert():
    return witness_norm(certify_box(pipeline_system(), pipeline_decagon(),
                                    Fraction(1, 64), AngleBound.of(Fraction(2, 5))))


class TestIntegerRejectPath:
    """sample_verify's integer reject path gives the Fraction path's report
    hit for hit: α, t, directions, both flags and the source."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["octagon", "twelve_gon"]), st.data())
    def test_toy_matches_fraction_reference(self, which, data):
        cert = toy_cert(which)
        bad = stretched(cert, data.draw(stretches(cert.polygon.m)))
        assert sample_verify(bad, 1, 0) == reference_sample_verify(bad, 1, 0)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([Fraction(2, 5), Fraction(1, 50)]), st.data())
    def test_pipeline_matches_fraction_reference(self, sin_sq, data):
        # the toy's directions are parallel and the pipeline's five are never
        # 2/5-separated; at sin²η = 1/50 some hits are η-separated
        cert = dataclasses.replace(pipeline_cert(), eta=AngleBound.of(sin_sq))
        bad = stretched(cert, data.draw(stretches(cert.polygon.m, -3, 40)))
        assert sample_verify(bad, 1, 0) == reference_sample_verify(bad, 1, 0)

    def test_both_separation_outcomes(self):
        bad = stretched(dataclasses.replace(pipeline_cert(),
                                            eta=AngleBound.of(Fraction(1, 50))),
                        [(24, 24)] * 5)
        rep = sample_verify(bad, 1, 0)
        assert rep == reference_sample_verify(bad, 1, 0)
        assert {h.eta_separated for h in rep.hits} == {True, False}

    def test_separation_tie(self):
        # at sin²η equal to a hit's narrowest pair, that pair sits exactly
        # on the bound, which counts as separated
        bad = stretched(pipeline_cert(), [(24, 24)] * 5)
        us = sample_verify(bad, 1, 0).hits[0].directions
        narrowest = min(u.cross(v) ** 2 / (u.norm_sq() * v.norm_sq())
                        for u, v in itertools.combinations(us, 2))
        tied = dataclasses.replace(bad, eta=AngleBound(narrowest))
        rep = sample_verify(tied, 1, 0)
        assert rep == reference_sample_verify(tied, 1, 0)
        assert rep.hits[0].eta_separated

    @settings(max_examples=8, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(0, 2**16))
    def test_open_assignments_match_fraction_reference(self, data, trials, seed):
        # the nullity-2 decagon system: every assignment reaches the random
        # pass, and on a box centered where four side lines meet, the
        # directed pass's root of one form zeroes the other
        cert = open_cert()
        if data.draw(st.booleans()):
            bad = stretched(cert, data.draw(stretches(cert.polygon.m, -3, 4)))
        else:
            classes = data.draw(st.permutations(range(cert.polygon.m)))[:4]
            p = Vec2(*(Fraction(data.draw(st.integers(-20, 20)), 40)
                       for _ in range(2)))
            bad = concurrent_box(cert, classes, p, Fraction(1, 64))
        assert (sample_verify(bad, trials, seed)
                == reference_sample_verify(bad, trials, seed))


class TestKills:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["octagon", "twelve_gon"]), st.data(),
           st.sampled_from([1, Fraction(2, 3), Fraction(-5, 7)]))
    def test_matches_assignment_walk(self, which, data, scale):
        # integral null vectors as certify derives them, or a payload with
        # them scaled to non-integral ones, read through jsonio; stretched
        # boxes give records of every sign
        cert = stretched(toy_cert(which), data.draw(stretches(4 if which == "octagon" else 6)))
        if scale != 1:
            back = rescaled_payload_certificate(cert, scale)
            # the reader scales each y by its positive common denominator,
            # so every record keeps the sign of the scaled one
            sign = 1 if scale > 0 else -1
            assert [rec.sign for rec in back.kills] == [
                sign * rec.sign for rec in cert.kills]
            cert = back
        assert all(type(v) is int for rec in cert.kills for v in rec.y)
        assert cert.kills == reference_kills(cert)

    def test_pipeline_certificate(self):
        cert = certify_box(pipeline_system(), pipeline_decagon(), Fraction(1, 64),
                           AngleBound.of(Fraction(2, 5)))
        assert cert.kills == reference_kills(cert)
        assert len(cert.kills) == 3840
