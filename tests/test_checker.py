import copy
import dataclasses
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (octagon, segment_is_eta_short, trapezoid_corners,
                      twelve_gon)
from udnorm import checker, jsonio
from udnorm.certify import (CertifierError, NormCertificate, OffsetBox,
                            certify_box, witness_norm)
from udnorm.checker import check_certificate
from udnorm.cli import pipeline_decagon
from udnorm.dependence import DependenceSystem
from udnorm.norms import (AngleBound, NormOracle, OffsetVector, PolygonError,
                          SymmetricPolygon, offset_polygon, square)
from udnorm.ratlin import (over_common_denominator, rat, rat_from_str,
                           rat_to_str, sqrt_interval)

TOY = DependenceSystem(ell=1, indices=(1, 2, 3), coeffs=((2,), (-1,)))


@pytest.fixture(scope="module")
def oct_cert():
    return witness_norm(certify_box(TOY, octagon(), Fraction(1, 100),
                                    AngleBound.of(Fraction(5, 9))))


class TestValidCertificates:
    def test_octagon_passes(self, oct_cert):
        rep = check_certificate(oct_cert)
        assert rep.ok, rep.failures

    def test_with_oracle(self, oct_cert):
        rep = check_certificate(oct_cert, NormOracle.of_polygon(octagon()),
                                Fraction(1, 2))
        assert rep.ok, rep.failures

    def test_twelve_gon_passes(self):
        cert = witness_norm(certify_box(TOY, twelve_gon(), Fraction(1, 100),
                                        AngleBound.of(Fraction(2, 5))))
        rep = check_certificate(cert, NormOracle.of_polygon(twelve_gon()),
                                Fraction(1, 2))
        assert rep.ok, rep.failures

    def test_degenerate_passes(self, octagon):
        wide = DependenceSystem(ell=2, indices=(1, 2, 3, 4, 5),
                                coeffs=((1, 1), (1, -1), (2, 1)))
        cert = witness_norm(certify_box(wide, octagon, Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        assert check_certificate(cert).ok

    def test_degenerate_with_large_ell_is_quick(self, octagon):
        # 2ℓ+1 = 41 > m: no class tuple exists, so the 2^41 side choices
        # must not be built; the guard fails instead of exhausting memory
        def bounded_product(*args, repeat=1):
            assert repeat <= 2 * 4 + 1, "side choices for a missing class tuple"
            return itertools.product(*args, repeat=repeat)

        ell = 20
        wide = DependenceSystem(
            ell=ell, indices=tuple(range(1, 2 * ell + 2)),
            coeffs=tuple(tuple(int(i == j) + 1 for j in range(ell))
                         for i in range(ell + 1)))
        cert = witness_norm(certify_box(wide, octagon, Fraction(1, 100),
                                        AngleBound.of(Fraction(5, 9))))
        assert cert.null_vectors == ()
        payload = jsonio.certificate_to_json(cert)
        guarded = mock.Mock(wraps=itertools, product=bounded_product)
        with mock.patch.object(checker, "itertools", guarded):
            assert check_certificate(jsonio.certificate_from_json(payload)).ok


# the certified pipeline system, and a box on which all three witness
# polygons have η-short sides while trapezoid 4 of B_out ∖ B_in spans
# 1.0025 times sin²η (trapezoid 9 is its negative)
PIPELINE_SYSTEM = DependenceSystem(ell=2, indices=(4, 5, 1, 2, 3),
                                   coeffs=((4, -3), (3, -2), (2, -1)))
WIDE_TRAPEZOID_BOX = OffsetBox(
    tuple(Fraction(v) for v in ("-7/640", "-93/3200", "-1/200", "1/200",
                                "-57/1280")),
    tuple(Fraction(v) for v in ("133/6400", "109/6400", "133/6400",
                                "251/6400", "-127/3200")),
)


@pytest.fixture(scope="module")
def decagon_cert():
    return certify_box(PIPELINE_SYSTEM, pipeline_decagon(), Fraction(1, 64),
                       AngleBound.of(Fraction(2, 5)))


def _trapezoid_failures(report):
    return [f for f in report.failures if f.startswith("trapezoid ")
            and f.endswith("is not η-short")]


def _angle_spread(corners) -> float:
    """The widest angle at 0 between two of the corners, in floats."""
    a = corners[0]
    angles = [math.atan2(float(a.cross(p)), float(a.dot(p))) for p in corners]
    return max(angles) - min(angles)


class TestTrapezoids:
    def test_wide_trapezoid_is_reported(self, decagon_cert):
        cert = _unguarded_witness(_tamper(decagon_cert, box=WIDE_TRAPEZOID_BOX))
        for poly in (cert.witness_in, cert.witness_mid, cert.witness_out):
            assert poly.is_eta_short(cert.eta)
        rep = check_certificate(cert)
        assert _trapezoid_failures(rep) == ["trapezoid 4 is not η-short"]
        assert not any("side that is not η-short" in f for f in rep.failures)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_corner_angle_reference(self, decagon_cert, data):
        # boxes around the wide box, each bound moved by up to a quarter of
        # its width (about half of them have a wide trapezoid): a trapezoid
        # is reported iff, by float angles, two of its corners are at
        # least η apart
        shift = st.integers(-64, 64)
        lo, hi = [], []
        for a, b in zip(WIDE_TRAPEZOID_BOX.lo, WIDE_TRAPEZOID_BOX.hi):
            step = (b - a) / 256
            lo.append(a + data.draw(shift) * step)
            hi.append(b + data.draw(shift) * step)
        boxed = _tamper(decagon_cert, box=OffsetBox(tuple(lo), tuple(hi)))
        cert = _unguarded_witness(boxed)
        eta = cert.eta.radians()
        wide = []
        for side in range(cert.polygon.m):
            spread = _angle_spread(trapezoid_corners(cert, side))
            assume(abs(spread - eta) > 1e-9)
            if spread >= eta:
                wide.append(f"trapezoid {side} is not η-short")
        assert _trapezoid_failures(check_certificate(cert)) == wide
        # the exact `segment_is_eta_short` loop over each trapezoid's corner
        # pairs agrees with the float angles
        assert wide == [f"trapezoid {side} is not η-short"
                        for side in range(cert.polygon.m)
                        if not all(segment_is_eta_short(p, q, cert.eta)
                                   for p, q in itertools.combinations(
                                       trapezoid_corners(cert, side), 2))]
        # witness_norm refuses exactly these boxes, naming the first
        if wide:
            with pytest.raises(CertifierError) as exc:
                witness_norm(boxed)
            assert str(exc.value) == wide[0]
        else:
            assert witness_norm(boxed) == cert

    def test_witness_norm_refuses_wide_trapezoid(self, decagon_cert):
        with pytest.raises(CertifierError) as exc:
            witness_norm(_tamper(decagon_cert, box=WIDE_TRAPEZOID_BOX))
        assert str(exc.value) == "trapezoid 4 is not η-short"

    def test_pipeline_certificate_has_short_trapezoids(self, decagon_cert):
        assert not _trapezoid_failures(
            check_certificate(witness_norm(decagon_cert)))


def _tamper(cert, **changes):
    return dataclasses.replace(cert, **changes)


def _unguarded_witness(cert):
    """The sandwich and margin-rule δ that witness_norm fills, without its
    trapezoid test: offset polygons at lo, mid and hi of the box, and
    δ = min gap / (2·‖n‖ upper bound)."""
    B1, box = cert.polygon, cert.box
    delta = min((hi - lo) / (2 * sqrt_interval(n.norm_sq()).hi)
                for n, lo, hi in zip(B1.normals, box.lo, box.hi))
    return _tamper(cert, witness_in=offset_polygon(B1, box.lo),
                   witness_mid=offset_polygon(B1, box.center()),
                   witness_out=offset_polygon(B1, box.hi), delta=delta)


def _table(cert, entries):
    return _tamper(cert, null_vectors=tuple(entries))


def _bumped(y):
    return (y[0] + 1,) + tuple(y[1:])


class TestCorruptions:
    def test_widened_box(self, oct_cert):
        wide = OffsetBox(
            OffsetVector(tuple(v * 8 for v in oct_cert.box.lo)),
            OffsetVector(tuple(v * 8 for v in oct_cert.box.hi)),
        )
        rep = check_certificate(_tamper(oct_cert, box=wide))
        assert not rep.ok
        assert rep.failing_alphas

    def test_tampered_null_vector(self, oct_cert):
        (classes, y), *rest = oct_cert.null_vectors
        rep = check_certificate(_table(oct_cert, [(classes, _bumped(y))] + rest))
        assert not rep.ok
        assert any("yᵀA" in f for f in rep.failures)

    def test_tampered_functional(self, oct_cert):
        # h = yᵀb(t) is rebuilt from the polygon's offsets, so moving one
        # offset moves the constant of every h that reads it (the sandwich
        # check sees the change too)
        B = oct_cert.polygon
        moved = SymmetricPolygon.from_pairs(
            (n, c + Fraction(i == 0, 20))
            for i, (n, c) in enumerate(zip(B.normals, B.offsets)))
        rep = check_certificate(_tamper(oct_cert, polygon=moved))
        assert not rep.ok
        assert any("sign-definite" in f for f in rep.failures)
        assert rep.failing_alphas

    def test_consistent_non_null_vector(self, oct_cert):
        # y is no longer a null vector, but the h derived from it is still
        # sign-definite on the box
        *rest, (classes, y) = oct_cert.null_vectors
        rep = check_certificate(_table(oct_cert, rest + [(classes, _bumped(y))]))
        assert not rep.ok
        assert all("yᵀA" in f for f in rep.failures)
        assert {tuple(a % 4 for a in al) for al in rep.failing_alphas} == {classes}

    def test_missing_kill(self, oct_cert):
        (classes, _), *rest = oct_cert.null_vectors
        rep = check_certificate(_table(oct_cert, rest))
        assert not rep.ok
        assert any("no null vector" in f for f in rep.failures)
        # every side choice of the class tuple is left without evidence
        assert len(rep.failing_alphas) == 8
        assert {tuple(a % 4 for a in al) for al in rep.failing_alphas} == {classes}

    def test_duplicate_kill(self, oct_cert):
        entry = oct_cert.null_vectors[0]
        rep = check_certificate(_table(oct_cert, oct_cert.null_vectors + (entry,)))
        assert not rep.ok
        assert any("duplicate null vector" in f for f in rep.failures)
        assert rep.failing_alphas == [entry[0]]

    @pytest.mark.parametrize("classes, message", [
        ((0, 1), "wrong arity"),
        ((0, 1, 2, 3), "wrong arity"),
        ((0, 1, 4), "inadmissible"),
        ((-1, 1, 2), "inadmissible"),
        ((0, 1, 1), "inadmissible"),
    ])
    def test_malformed_table_entry(self, oct_cert, classes, message):
        y = oct_cert.null_vectors[0][1]
        rep = check_certificate(_table(oct_cert, oct_cert.null_vectors
                                       + ((classes, y),)))
        assert not rep.ok
        assert any(message in f for f in rep.failures)
        assert rep.failing_alphas == [classes]

    def test_zero_null_vector(self, oct_cert):
        (classes, y), *rest = oct_cert.null_vectors
        rep = check_certificate(_table(oct_cert, [(classes, (0,) * len(y))] + rest))
        assert any("zero null vector" in f for f in rep.failures)
        assert len(rep.failing_alphas) == 8

    def test_ignores_the_kills_view(self, oct_cert):
        # the checker reads the table alone: a corrupted kills view of an
        # otherwise valid certificate does not change its verdict
        cert = _tamper(oct_cert)
        object.__setattr__(cert, "kills", ())
        assert check_certificate(cert).ok

    def test_delta_too_large(self, oct_cert):
        rep = check_certificate(_tamper(oct_cert, delta=oct_cert.delta * 100))
        assert not rep.ok
        assert any("margin" in f for f in rep.failures)

    def test_smaller_delta_is_a_weaker_claim(self, oct_cert):
        # no norm within δ/2 of the witness is implied by "none within δ"
        assert check_certificate(_tamper(oct_cert, delta=oct_cert.delta / 2)).ok

    def test_witness_offsets_tampered(self, oct_cert):
        from udnorm.norms import offset_polygon
        bad_mid = offset_polygon(oct_cert.polygon,
                                 (Fraction(1, 7),) * 4)
        rep = check_certificate(_tamper(oct_cert, witness_mid=bad_mid))
        assert not rep.ok

    def test_eps_violation_detected(self, oct_cert):
        # the witness norm is nowhere near the unit square at this eps
        rep = check_certificate(oct_cert, NormOracle.of_polygon(square()),
                                Fraction(1, 10**6))
        assert not rep.ok
        assert any("eps" in f for f in rep.failures)


# --- payload fuzzing: one field at a time ---------------------------------------

NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(
    lambda d: d != 0)
TABLE_MUTATIONS = ("y", "y.length", "classes", "missing", "extra", "duplicate",
                   "schema")


@pytest.fixture(scope="module")
def oct_payload(oct_cert):
    return jsonio.certificate_to_json(oct_cert)


def _shifted(value: str, d: Fraction) -> str:
    return rat_to_str(rat_from_str(value) + d)


def _mutate_table(payload, data):
    """A copy of the payload with one null-vector table entry, the table's
    length or the schema field changed, and a description of the change."""
    d = copy.deepcopy(payload)
    table = d["null_vectors"]
    entry = table[data.draw(st.integers(0, len(table) - 1), label="entry")]
    what = data.draw(st.sampled_from(TABLE_MUTATIONS), label="field")
    # 1-based on the wire: 0 and m + 1 are out of range
    wire_classes = st.integers(0, len(d["box"]["lo"]) + 1)
    if what == "y":
        i = data.draw(st.integers(0, len(entry["y"]) - 1))
        entry["y"][i] = _shifted(entry["y"][i], data.draw(NONZERO))
    elif what == "y.length":
        if data.draw(st.booleans()):
            entry["y"].append(rat_to_str(data.draw(NONZERO | st.just(0))))
        else:
            entry["y"].pop()
    elif what == "classes":
        i = data.draw(st.integers(0, len(entry["classes"]) - 1))
        entry["classes"][i] = data.draw(wire_classes.filter(
            lambda k: k != entry["classes"][i])
            | st.sampled_from([entry["classes"][i] + 0.5, 1.0, "1", None]))
    elif what == "missing":
        table.remove(entry)
    elif what == "extra":
        table.append({"classes": data.draw(st.lists(wire_classes, max_size=5)),
                      "y": list(entry["y"])})
    elif what == "duplicate":
        # the copy may be a valid null vector of its tuple: still a duplicate
        q = data.draw(NONZERO)
        table.append({"classes": list(entry["classes"]),
                      "y": [rat_to_str(rat_from_str(v) * q) for v in entry["y"]]})
    elif data.draw(st.booleans()):
        del d["schema"]
    else:
        d["schema"] = data.draw(st.sampled_from([1, 3, "2", 2.0, True, None]))
    return d, what


def _polygon_mutation(poly, data):
    i = data.draw(st.integers(0, len(poly["offsets"]) - 1))
    if data.draw(st.booleans()):
        poly["offsets"][i] = _shifted(poly["offsets"][i],
                                      data.draw(NONZERO) / 100)
    else:
        j = data.draw(st.integers(0, 1))
        poly["normals"][i][j] = _shifted(poly["normals"][i][j],
                                         Fraction(data.draw(st.integers(-3, 3)
                                                            .filter(bool))))


def _mutate_field(payload, data):
    """A copy of the payload with one field outside the table changed (or
    dropped), and a description of the change."""
    d = copy.deepcopy(payload)
    what = data.draw(st.sampled_from((
        "box", "box.length", "polygon", "polygon.m", "system.l",
        "system.coeff", "witness", "delta", "degenerate", "drop")), label="field")
    if what == "box":
        side = d["box"][data.draw(st.sampled_from(("lo", "hi")))]
        i = data.draw(st.integers(0, len(side) - 1))
        side[i] = _shifted(side[i], data.draw(NONZERO) / 100)
    elif what == "box.length":
        side = d["box"][data.draw(st.sampled_from(("lo", "hi")))]
        side.pop() if data.draw(st.booleans()) else side.append(side[-1])
    elif what == "polygon":
        _polygon_mutation(d["polygon"], data)
    elif what == "polygon.m":
        d["polygon"]["m"] += data.draw(st.integers(-2, 2).filter(bool))
    elif what == "system.l":
        d["system"]["l"] += data.draw(st.integers(-1, 2).filter(bool))
    elif what == "system.coeff":
        row = d["system"]["coeffs"][data.draw(st.integers(0, 1))]
        row[0] += data.draw(st.integers(-3, 3).filter(bool))
    elif what == "witness":
        _polygon_mutation(
            d["witness"][data.draw(st.sampled_from(("in", "mid", "out")))], data)
    elif what == "delta":
        d["delta"] = _shifted(d["delta"], data.draw(NONZERO))
    elif what == "degenerate":
        d["degenerate"] = data.draw(st.sampled_from([True, None, 0, 1, "false"]))
    else:
        del d[data.draw(st.sampled_from(
            ("box", "polygon", "system", "witness", "delta", "degenerate")))]
    return d, what


class TestFuzz:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 16), st.integers(-3, 16)),
                    min_size=4, max_size=4))
    def test_box_stretch_rejects_exactly_straddling_records(self, oct_cert,
                                                            stretch):
        # the checker's sign decision against a term-by-term Fraction sum
        box = oct_cert.box
        widths = [hi - lo for lo, hi in zip(box.lo, box.hi)]
        bad = OffsetBox(
            OffsetVector(tuple(lo - w * Fraction(a, 8)
                               for lo, w, (a, _) in zip(box.lo, widths, stretch))),
            OffsetVector(tuple(hi + w * Fraction(b, 8)
                               for hi, w, (_, b) in zip(box.hi, widths, stretch))),
        )
        expected = set()
        for rec in oct_cert.kills:
            lo = hi = rec.h.const
            for c, a, b in zip(rec.h.coeffs, bad.lo, bad.hi):
                lo += c * a if c > 0 else c * b
                hi += c * b if c > 0 else c * a
            if not (lo > 0 if rec.sign > 0 else hi < 0):
                expected.add(rec.alpha)
        rep = check_certificate(_tamper(oct_cert, box=bad))
        assert set(rep.failing_alphas) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_kill_record_mutation_never_checks_ok(self, oct_payload, data):
        # kill records are implied by the null-vector table: mutate it
        payload, what = _mutate_table(oct_payload, data)
        try:
            cert = jsonio.certificate_from_json(payload)
        except jsonio.PayloadError:
            return
        rep = check_certificate(cert)
        assert not rep.ok, what
        assert rep.failing_alphas, what

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_field_mutation_never_checks_ok(self, oct_cert, oct_payload, data):
        payload, what = _mutate_field(oct_payload, data)
        try:
            cert = jsonio.certificate_from_json(payload)
        except jsonio.PayloadError:
            return
        # a re-encoding of the same object (a polygon normal negated or
        # scaled together with its offset) is not a change
        assume(cert != oct_cert)
        assert not check_certificate(cert).ok, what

    @settings(max_examples=30, deadline=None)
    @given(q=st.fractions(min_value=-50, max_value=50,
                          max_denominator=50).filter(bool),
           every=st.booleans())
    def test_rational_rescaling_checks_ok(self, oct_payload, q, every):
        # y ↦ q·y with q ≠ 0 keeps yᵀA = 0 and scales h by q, so h stays
        # sign-definite (its sign flips when q < 0); no sign is stored
        d = copy.deepcopy(oct_payload)
        for entry in d["null_vectors"] if every else d["null_vectors"][:1]:
            entry["y"] = [rat_to_str(rat_from_str(v) * q) for v in entry["y"]]
        rep = check_certificate(jsonio.certificate_from_json(d))
        assert rep.ok, rep.failures[:3]


def _side_choice_range(B, classes, sides, y, lo, hi):
    """The range of h = yᵀb(t) over the box [lo, hi] for one side choice,
    in Fraction: side bit 1 flips the sign of yᵢ on ⟨n, z⟩ = ±(c_k + t_k)."""
    low = high = Fraction(0)
    for yi, k, side in zip(y, classes, sides):
        c = -yi if side else yi
        low += c * B.offsets[k] + min(c * lo[k], c * hi[k])
        high += c * B.offsets[k] + max(c * lo[k], c * hi[k])
    return low, high


@st.composite
def class_tuple_boxes(draw):
    """(B, class tuple, integer y, lo, hi) with lo < hi. Half the time one
    bound is moved so that one side choice's range ends exactly at 0."""
    B = draw(st.sampled_from([octagon(), twelve_gon(), pipeline_decagon()]))
    m = B.m
    ell = draw(st.integers(1, (m - 1) // 2))
    count = 2 * ell + 1
    classes = tuple(draw(st.permutations(range(m)))[:count])
    y = tuple(draw(st.lists(st.integers(-6, 6), min_size=count, max_size=count)))
    lo = draw(st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=40),
                       min_size=m, max_size=m))
    widths = draw(st.lists(st.fractions(min_value=Fraction(1, 40), max_value=1,
                                        max_denominator=40),
                           min_size=m, max_size=m))
    hi = [a + w for a, w in zip(lo, widths)]
    if draw(st.booleans()):
        sides = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
        i = draw(st.integers(0, count - 1))
        k, c = classes[i], (-y[i] if sides[i] else y[i])
        if c:
            low, high = _side_choice_range(B, classes, sides, y, lo, hi)
            # the low end reads lo_k when c > 0 and hi_k when c < 0
            if draw(st.booleans()):
                (lo if c > 0 else hi)[k] -= low / c
            else:
                (hi if c > 0 else lo)[k] -= high / c
            assume(all(a < b for a, b in zip(lo, hi)))
    return B, classes, y, lo, hi


def _reference_failing(cert):
    """The assignments of a certificate with a complete table whose Fraction
    range of h meets 0, in the checker's enumeration order."""
    B, m = cert.polygon, cert.polygon.m
    table = dict(cert.null_vectors)
    failing = []
    for classes in itertools.permutations(range(m), 2 * cert.system.ell + 1):
        for sides in itertools.product((0, 1), repeat=len(classes)):
            low, high = _side_choice_range(B, classes, sides, table[classes],
                                           cert.box.lo, cert.box.hi)
            if not (low > 0 or high < 0):
                failing.append(tuple(c + m * s for c, s in zip(classes, sides)))
    return failing


def _kill_failures(alphas):
    return [f"functional not sign-definite on the box for {a}" for a in alphas]


class TestClassTupleTest:
    """The checker's class-tuple sums against the Fraction range of each
    side choice, ties at exactly 0 included."""

    @staticmethod
    def _box(oct_cert, stretch, moved):
        """oct_cert's box stretched per coordinate; with `moved` = (i, end),
        one bound then moved so that the range of record i's h ends exactly
        at 0 (at its low end when end is 0)."""
        box = oct_cert.box
        widths = [hi - lo for lo, hi in zip(box.lo, box.hi)]
        lo = [a - w * Fraction(s, 8) for a, w, (s, _) in zip(box.lo, widths, stretch)]
        hi = [b + w * Fraction(s, 8) for b, w, (_, s) in zip(box.hi, widths, stretch)]
        if moved is not None:
            i, end = moved
            h = oct_cert.kills[i].h
            j = next(j for j, c in enumerate(h.coeffs) if c)
            c = h.coeffs[j]
            low = h.const + sum(c * (a if c > 0 else b)
                                for c, a, b in zip(h.coeffs, lo, hi))
            high = h.const + sum(c * (b if c > 0 else a)
                                 for c, a, b in zip(h.coeffs, lo, hi))
            if end == 0:
                (lo if c > 0 else hi)[j] -= low / c
            else:
                (hi if c > 0 else lo)[j] -= high / c
            assume(all(a < b for a, b in zip(lo, hi)))
        return OffsetBox(OffsetVector(tuple(lo)), OffsetVector(tuple(hi)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 16), st.integers(-3, 16)),
                    min_size=4, max_size=4),
           st.none() | st.tuples(st.integers(0, 191), st.integers(0, 1)))
    def test_same_report_as_per_assignment_checks(self, oct_cert, stretch,
                                                  moved):
        # every assignment whose Fraction range meets 0 is named, in
        # enumeration order, before the witness failures of the stretched box
        bad = _tamper(oct_cert, box=self._box(oct_cert, stretch, moved))
        want = _reference_failing(bad)
        rep = check_certificate(bad)
        assert rep.failing_alphas == want
        assert rep.failures[:len(want)] == _kill_failures(want)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 16), st.integers(-3, 16)),
                    min_size=4, max_size=4),
           st.none() | st.tuples(st.integers(0, 191), st.integers(0, 1)))
    def test_matches_check_kill(self, oct_cert, stretch, moved):
        # per class tuple: the sums kill it iff no side choice's Fraction
        # range meets 0, and _check_kill reports exactly the side choices
        # whose range does, with the not-sign-definite reason
        box = self._box(oct_cert, stretch, moved)
        B, m = oct_cert.polygon, oct_cert.polygon.m
        lo, hi = list(box.lo), list(box.hi)
        factors = checker._box_factors(B, lo, hi)
        for classes, y in oct_cert.null_vectors:
            half, radius = checker._half_sums(factors, classes, y)
            killed = all(low > 0 or high < 0 for low, high in (
                _side_choice_range(B, classes, sides, y, lo, hi)
                for sides in itertools.product((0, 1), repeat=len(classes))))
            assert (min(map(abs, half)) > radius) == killed, classes
        bad = _tamper(oct_cert, box=box)
        with mock.patch.object(checker, "_check_kill",
                               wraps=checker._check_kill) as kill:
            check_certificate(bad)
        assert [c.args[1:] for c in kill.call_args_list] == [
            ("functional not sign-definite on the box for", alpha)
            for alpha in _reference_failing(bad)]

    @settings(max_examples=200, deadline=None)
    @given(class_tuple_boxes())
    def test_names_every_failing_side_choice(self, case):
        # random class tuples, y and boxes on three polygons, half of them
        # with a side choice's range ending exactly at 0: the helper's sums
        # are the ranges times 2·Dc·D, and the checker names the side
        # choices whose range meets 0
        B, classes, y, lo, hi = case
        m = B.m
        choices = list(itertools.product((0, 1), repeat=len(classes)))
        ranges = [_side_choice_range(B, classes, sides, y, lo, hi)
                  for sides in choices]
        scale = 2 * B.scaled[0] * over_common_denominator(lo + hi)[0]
        half, radius = checker._half_sums(checker._box_factors(B, lo, hi),
                                          classes, y)
        assert [(mid - radius, mid + radius)
                for mid in half + [-v for v in reversed(half)]] == [
            (low * scale, high * scale) for low, high in ranges]
        cert = NormCertificate(
            polygon=B, box=OffsetBox(tuple(lo), tuple(hi)), null_vectors=(),
            system={1: TOY, 2: WIDE}[len(classes) // 2], eta=AngleBound.of(1))
        # the table holds y for this class tuple alone, and the enumeration
        # meets no other
        only = mock.Mock(wraps=itertools, permutations=lambda *_: [classes])
        with mock.patch.object(checker, "_null_vector_table",
                               return_value={classes: y}), \
                mock.patch.object(checker, "itertools", only):
            rep = check_certificate(cert)
        want = [tuple(c + m * s for c, s in zip(classes, sides))
                for sides, (low, high) in zip(choices, ranges)
                if not (low > 0 or high < 0)]
        assert rep.failing_alphas == want
        assert rep.failures[:len(want)] == _kill_failures(want)


# --- the witness check: offset polygons, margin rule, trapezoids ------------------

WIDE = DependenceSystem(ell=2, indices=(1, 2, 3, 4, 5),
                        coeffs=((1, 1), (1, -1), (2, 1)))


def _reference_check_witness(report, cert):
    """The witness check before the implied checks were removed: offsets
    compared side pair by side pair, η-short witness polygons, the strict
    sandwich, the sweep and the tiling area sum besides the margin rule and
    the trapezoids. The reference for the verdict."""
    B1 = cert.polygon
    m = B1.m
    b_in, b_mid, b_out = cert.witness_in, cert.witness_mid, cert.witness_out
    lo, hi = cert.box.lo, cert.box.hi
    mid = [(a + b) / 2 for a, b in zip(lo, hi)]
    for name, poly, offs in (("inner", b_in, lo), ("mid", b_mid, mid),
                             ("outer", b_out, hi)):
        if poly.normals != B1.normals:
            report.fail(f"witness {name} polygon is not an offset of the base")
            return
        for i in range(m):
            if poly.offsets[i] != B1.offsets[i] + offs[i]:
                report.fail(f"witness {name} offsets wrong at side pair {i}")
                return
        if not poly.is_eta_short(cert.eta):
            report.fail(f"witness {name} polygon has a side that is not η-short")
    for i in range(m):
        if not (b_in.offsets[i] < b_mid.offsets[i] < b_out.offsets[i]):
            report.fail("witness sandwich is not strict")
            return
    delta = rat(cert.delta)
    if delta <= 0:
        report.fail("margin δ must be positive")
        return
    for i, n in enumerate(B1.normals):
        gap = hi[i] - lo[i]
        if (2 * delta) ** 2 * n.norm_sq() > gap * gap:
            report.fail(f"margin δ too large for side pair {i}")
    for side in range(2 * m):
        a_in, bb_in = b_in.side_segment(side)
        a_out, bb_out = b_out.side_segment(side)
        n = B1.normals[side % m]
        c = B1.offsets[side % m]
        for p in (a_in, bb_in, bb_out, a_out):
            t = (n.dot(p) - c) if side < m else (-n.dot(p) - c)
            if not lo[side % m] <= t <= hi[side % m]:
                report.fail(f"sweep property fails at side {side}")
                break
    for side in range(m):
        quad = b_in.side_segment(side) + b_out.side_segment(side)
        if not all(segment_is_eta_short(p, q, cert.eta)
                   for p, q in itertools.combinations(quad, 2)):
            report.fail(f"trapezoid {side} is not η-short")
    total = Fraction(0)
    for side in range(2 * m):
        a_in, bb_in = b_in.side_segment(side)
        a_out, bb_out = b_out.side_segment(side)
        quad = (a_in, bb_in, bb_out, a_out)
        acc = Fraction(0)
        for p, q in zip(quad, quad[1:] + quad[:1]):
            acc += p.cross(q)
        total += abs(acc) / 2
    if total != b_out.area() - b_in.area():
        report.fail("trapezoids do not tile the sandwich annulus")


def _unvalidated(B, t):
    """B offset by t, built without the facet validation."""
    return SymmetricPolygon(B.normals, tuple(c + x for c, x in zip(B.offsets, t)))


class TestWitnessSandwich:
    def test_inner_polygon_with_redundant_side_fails(self, octagon):
        # a degenerate octagon certificate (2ℓ+1 > m) whose box makes side
        # pair 2 of B_in redundant; the witnesses skip the facet validation
        # that the JSON reader applies, and every implied check passes
        lo = tuple(map(Fraction, ("3/20", "117/100", "6/5", "1/5")))
        hi = tuple(map(Fraction, ("19/20", "133/100", "121/100", "36/25")))
        box = OffsetBox(lo, hi)
        cert = NormCertificate(
            polygon=octagon, box=box, null_vectors=(), system=WIDE,
            eta=AngleBound.of(1),
            witness_in=_unvalidated(octagon, lo),
            witness_mid=_unvalidated(octagon, box.center()),
            witness_out=_unvalidated(octagon, hi), delta=Fraction(1, 300))
        old = checker.CheckReport(ok=True)
        _reference_check_witness(old, cert)
        assert old.ok
        with pytest.raises(PolygonError):
            offset_polygon(octagon, lo)
        rep = check_certificate(cert)
        assert rep.failures == ["witness inner polygon: redundant constraint: "
                                "candidate vertex infeasible"]

    @staticmethod
    def _assert_same_verdict(cert, data):
        """With the witness of the certificate's box, or one polygon
        replaced by that of a box moved on one coordinate, the witness check
        agrees with the reference."""
        try:
            cert = _unguarded_witness(cert)
        except PolygonError:
            assume(False)
        which = data.draw(st.sampled_from((None, "in", "mid", "out")))
        if which is not None:
            i = data.draw(st.integers(0, cert.polygon.m - 1))
            shift = [Fraction(0)] * cert.polygon.m
            shift[i] = Fraction(data.draw(st.integers(-3, 3).filter(bool)), 1000)
            t = {"in": cert.box.lo, "mid": cert.box.center(),
                 "out": cert.box.hi}[which]
            try:
                moved = offset_polygon(cert.polygon,
                                       [a + b for a, b in zip(t, shift)])
            except PolygonError:
                assume(False)
            cert = _tamper(cert, **{f"witness_{which}": moved})
        new, old = checker.CheckReport(ok=True), checker.CheckReport(ok=True)
        checker._check_witness(new, cert)
        _reference_check_witness(old, cert)
        assert new.ok == old.ok, (new.failures, old.failures)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_reference_around_wide_box(self, decagon_cert, data):
        shift = st.integers(-64, 64)
        lo, hi = [], []
        for a, b in zip(WIDE_TRAPEZOID_BOX.lo, WIDE_TRAPEZOID_BOX.hi):
            step = (b - a) / 256
            lo.append(a + data.draw(shift) * step)
            hi.append(b + data.draw(shift) * step)
        box = OffsetBox(tuple(lo), tuple(hi))
        self._assert_same_verdict(_tamper(decagon_cert, box=box), data)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_reference_on_octagon(self, oct_cert, data):
        # bounds in [−3/100, 3/100]: about two boxes in three have a wide
        # trapezoid at sin²η = 5/9
        ends = st.lists(st.integers(-6, 6), min_size=2, max_size=2,
                        unique=True).map(sorted)
        lo, hi = zip(*(data.draw(ends) for _ in range(oct_cert.polygon.m)))
        box = OffsetBox(tuple(Fraction(v, 200) for v in lo),
                        tuple(Fraction(v, 200) for v in hi))
        self._assert_same_verdict(_tamper(oct_cert, box=box), data)


class TestBoundaries:
    """One certificate at each edge of a check: a test of the check's
    operator or constant at that edge."""

    def test_zero_delta_fails(self, oct_cert):
        rep = check_certificate(_tamper(oct_cert, delta=Fraction(0)))
        assert rep.failures == ["margin δ must be positive"]

    def test_box_with_one_flat_coordinate_fails(self, oct_cert):
        # lo = hi on coordinate 0, in a box that skipped OffsetBox's validation
        box = object.__new__(OffsetBox)
        object.__setattr__(box, "lo", oct_cert.box.lo)
        object.__setattr__(box, "hi", (oct_cert.box.lo[0],) + oct_cert.box.hi[1:])
        rep = check_certificate(_tamper(oct_cert, box=box))
        assert rep.failures == ["box has empty interior"]

    def test_margin_at_equality(self, oct_cert):
        # side pair 0 has n = (1, 0), so ‖n‖ = 1 and 2δ = hi₀ − lo₀ is
        # rational; the box is narrowed there to make that pair the binding one
        lo, hi = oct_cert.box.lo, oct_cert.box.hi
        box = OffsetBox((lo[0] / 4,) + lo[1:], (hi[0] / 4,) + hi[1:])
        cert = _unguarded_witness(_tamper(oct_cert, box=box))
        assert oct_cert.polygon.normals[0].norm_sq() == 1
        delta = (box.hi[0] - box.lo[0]) / 2
        assert check_certificate(_tamper(cert, delta=delta)).ok
        for larger in (delta + Fraction(1, 10**9), 2 * delta):
            rep = check_certificate(_tamper(cert, delta=larger))
            assert rep.failures == ["margin δ too large for side pair 0"]

    @pytest.mark.parametrize("past", [0, Fraction(1, 10**9)],
                             ids=["tie", "short-of-tie"])
    def test_range_end_at_zero(self, oct_cert, past):
        # record 0's h is negative on the box; one bound moved to make its
        # range end exactly at 0, or just short of it: a tie is no kill, so
        # the record's assignment and its mirror, whose range is −h's, are
        # the class tuple's only failures, and short of the tie it has none
        rec, m = oct_cert.kills[0], oct_cert.polygon.m
        lo, hi = list(oct_cert.box.lo), list(oct_cert.box.hi)
        h = rec.h
        j = next(j for j, c in enumerate(h.coeffs) if c)
        c = h.coeffs[j]
        high = h.const + sum(c * (b if c > 0 else a)
                             for c, a, b in zip(h.coeffs, lo, hi))
        assert high < 0
        (hi if c > 0 else lo)[j] -= (high + past) / c
        rep = check_certificate(_tamper(oct_cert, box=OffsetBox(
            OffsetVector(tuple(lo)), OffsetVector(tuple(hi)))))
        classes = tuple(a % m for a in rec.alpha)
        named = [a for a in rep.failing_alphas
                 if tuple(v % m for v in a) == classes]
        mirror = tuple((a + m) % (2 * m) for a in rec.alpha)
        assert named == ([] if past else sorted([rec.alpha, mirror]))

    @pytest.mark.parametrize("missing", [
        ("witness_in",), ("witness_mid",), ("witness_out",), ("delta",),
        ("witness_in", "witness_mid", "witness_out", "delta"),
    ], ids=["in", "mid", "out", "delta", "all"])
    def test_missing_witness_fails(self, oct_cert, missing):
        # without the sandwich and δ the certificate states nothing, and the
        # distance test has no witness norm to measure: both verdicts fail
        cert = _tamper(oct_cert, **dict.fromkeys(missing))
        for target in ((), (NormOracle.of_polygon(octagon()), Fraction(1, 2))):
            assert check_certificate(oct_cert, *target).ok
            rep = check_certificate(cert, *target)
            assert rep.failures == ["no witness sandwich or margin δ: the "
                                    "certificate states nothing"]
            assert rep.failing_alphas == []

    def test_oracle_without_eps_raises(self, oct_cert):
        with pytest.raises(ValueError, match="eps"):
            check_certificate(oct_cert, NormOracle.of_polygon(square(1000)))

    def test_eps_without_oracle_raises(self, oct_cert):
        with pytest.raises(ValueError, match="oracle"):
            check_certificate(oct_cert, None, Fraction(1, 10**6))
