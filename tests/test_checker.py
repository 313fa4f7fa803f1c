import copy
import dataclasses
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import octagon, twelve_gon
from udnorm import checker, jsonio
from udnorm.certify import (CertifierError, OffsetBox, certify_box,
                            trapezoid_corners, witness_norm)
from udnorm.checker import check_certificate
from udnorm.cli import pipeline_decagon
from udnorm.dependence import DependenceSystem
from udnorm.norms import (AngleBound, NormOracle, OffsetVector,
                          SymmetricPolygon, offset_polygon, square)
from udnorm.ratlin import (over_common_denominator, rat_from_str, rat_to_str,
                           sqrt_interval)

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
        assert cert.degenerate
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
        # offset moves the constant of every h that reads it (no witness,
        # so no sandwich check sees the change)
        B = oct_cert.polygon
        moved = SymmetricPolygon.from_pairs(
            (n, c + Fraction(i == 0, 20))
            for i, (n, c) in enumerate(zip(B.normals, B.offsets)))
        rep = check_certificate(_tamper(oct_cert, polygon=moved, delta=None))
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


class TestClassTupleTest:
    """The checker's class-tuple test against its per-assignment fallback."""

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
    def test_same_report_as_per_assignment_checks(self, oct_cert, stretch, moved):
        # with the class-tuple test switched off, every assignment goes
        # through _check_kill: the report must not change, order included
        bad = _tamper(oct_cert, box=self._box(oct_cert, stretch, moved))
        rep = check_certificate(bad)
        with mock.patch.object(checker, "_class_tuple_killed",
                               lambda *args: False):
            want = check_certificate(bad)
        assert (rep.ok, rep.failures, rep.failing_alphas) == (
            want.ok, want.failures, want.failing_alphas)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 16), st.integers(-3, 16)),
                    min_size=4, max_size=4),
           st.none() | st.tuples(st.integers(0, 191), st.integers(0, 1)))
    def test_matches_check_kill(self, oct_cert, stretch, moved):
        # per class tuple: killed iff no side choice fails _check_kill
        box = self._box(oct_cert, stretch, moved)
        m = oct_cert.polygon.m
        offsets = over_common_denominator(oct_cert.polygon.offsets)
        D, ints = over_common_denominator(tuple(box.lo) + tuple(box.hi))
        scaled = D, ints[:m], ints[m:]
        for classes, y in oct_cert.null_vectors:
            ys = over_common_denominator(y)[1]
            report = checker.CheckReport(ok=True)
            for sides in itertools.product((0, 1), repeat=len(classes)):
                alpha = tuple(c + m * s for c, s in zip(classes, sides))
                checker._check_kill(report, offsets, scaled, alpha, ys)
            assert checker._class_tuple_killed(offsets, scaled, classes, ys) == report.ok
