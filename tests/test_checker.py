import copy
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import octagon, twelve_gon
from udnorm import jsonio
from udnorm.certify import (
    AffineForm,
    OffsetBox,
    certify_box,
    witness_norm,
)
from udnorm.checker import check_certificate
from udnorm.dependence import DependenceSystem
from udnorm.norms import AngleBound, NormOracle, OffsetVector, square
from udnorm.ratlin import rat_from_str, rat_to_str

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


def _tamper(cert, **changes):
    return dataclasses.replace(cert, **changes)


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
        rec = oct_cert.kills[0]
        bad_rec = dataclasses.replace(
            rec, y=(rec.y[0] + 1,) + tuple(rec.y[1:]))
        rep = check_certificate(
            _tamper(oct_cert, kills=(bad_rec,) + oct_cert.kills[1:]))
        assert not rep.ok
        assert any("yᵀA" in f or "functional" in f for f in rep.failures)

    def test_tampered_functional(self, oct_cert):
        rec = oct_cert.kills[0]
        bad_h = AffineForm(rec.h.const + 1, rec.h.coeffs)
        bad_rec = dataclasses.replace(rec, h=bad_h)
        rep = check_certificate(
            _tamper(oct_cert, kills=(bad_rec,) + oct_cert.kills[1:]))
        assert not rep.ok

    def test_consistent_non_null_vector(self, oct_cert):
        # y is no longer a null vector, but h = yᵀb and the sign agree with
        # it; the last record's class tuple has been checked before
        B = oct_cert.polygon
        rec = oct_cert.kills[-1]
        y = (rec.y[0] + 1,) + tuple(rec.y[1:])
        const, coeffs = Fraction(0), [Fraction(0)] * B.m
        for yi, side in zip(y, rec.alpha.alpha):
            signed = yi if side < B.m else -yi
            coeffs[side % B.m] += signed
            const += signed * B.offsets[side % B.m]
        h = AffineForm(const, tuple(coeffs))
        sign = 1 if h.interval_on(oct_cert.box).lo > 0 else -1
        bad_rec = dataclasses.replace(rec, y=y, h=h, sign=sign)
        rep = check_certificate(
            _tamper(oct_cert, kills=oct_cert.kills[:-1] + (bad_rec,)))
        assert not rep.ok
        assert any("yᵀA" in f for f in rep.failures)

    def test_missing_kill(self, oct_cert):
        rep = check_certificate(_tamper(oct_cert, kills=oct_cert.kills[1:]))
        assert not rep.ok
        assert any("no kill record" in f for f in rep.failures)

    def test_duplicate_kill(self, oct_cert):
        rec = oct_cert.kills[0]
        rep = check_certificate(_tamper(oct_cert, kills=oct_cert.kills + (rec,)))
        assert not rep.ok
        assert any("duplicate kill record" in f for f in rep.failures)
        assert rep.failing_alphas == [rec.alpha.alpha]

    def test_wrong_sign(self, oct_cert):
        rec = oct_cert.kills[0]
        bad_rec = dataclasses.replace(rec, sign=-rec.sign)
        rep = check_certificate(
            _tamper(oct_cert, kills=(bad_rec,) + oct_cert.kills[1:]))
        assert not rep.ok

    def test_delta_too_large(self, oct_cert):
        rep = check_certificate(_tamper(oct_cert, delta=oct_cert.delta * 100))
        assert not rep.ok
        assert any("margin" in f for f in rep.failures)

    def test_witness_offsets_tampered(self, oct_cert):
        from udnorm.norms import offset_polygon
        bad_mid = offset_polygon(oct_cert.polygon,
                                 OffsetVector.uniform(Fraction(1, 7), 4))
        rep = check_certificate(_tamper(oct_cert, witness_mid=bad_mid))
        assert not rep.ok

    def test_eps_violation_detected(self, oct_cert):
        # the witness norm is nowhere near the unit square at this eps
        rep = check_certificate(oct_cert, NormOracle.of_polygon(square()),
                                Fraction(1, 10**6))
        assert not rep.ok
        assert any("eps" in f for f in rep.failures)


# --- payload fuzzing: one kill-record field at a time ---------------------------

NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(
    lambda d: d != 0)
MUTATIONS = ("y", "h.const", "h.coeff", "h.length", "sign", "alpha", "extra")


@pytest.fixture(scope="module")
def oct_payload(oct_cert):
    return jsonio.certificate_to_json(oct_cert)


def _shifted(value: str, d: Fraction) -> str:
    return rat_to_str(rat_from_str(value) + d)


def _mutate(payload, data):
    """A copy of the payload with one kill-record field changed (or one
    record appended), and a description of the change."""
    d = copy.deepcopy(payload)
    kills = d["kills"]
    rec = kills[data.draw(st.integers(0, len(kills) - 1), label="record")]
    what = data.draw(st.sampled_from(MUTATIONS), label="field")
    if what == "y":
        i = data.draw(st.integers(0, len(rec["y"]) - 1))
        rec["y"][i] = _shifted(rec["y"][i], data.draw(NONZERO))
    elif what == "h.const":
        rec["h"]["const"] = _shifted(rec["h"]["const"], data.draw(NONZERO))
    elif what == "h.coeff":
        coeffs = rec["h"]["coeffs"]
        i = data.draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] = _shifted(coeffs[i], data.draw(NONZERO))
    elif what == "h.length":
        if data.draw(st.booleans()):
            rec["h"]["coeffs"].append(rat_to_str(data.draw(NONZERO | st.just(0))))
        else:
            rec["h"]["coeffs"].pop()
    elif what == "sign":
        rec["sign"] = data.draw(st.sampled_from(
            [v for v in (-1, 0, 1, 2) if v != rec["sign"]]))
    else:
        # 1-based on the wire: 0 and 2m + 1 are out of range
        wire_sides = st.integers(0, 2 * len(d["box"]["lo"]) + 1)
        if what == "alpha":
            i = data.draw(st.integers(0, len(rec["alpha"]) - 1))
            rec["alpha"][i] = data.draw(wire_sides.filter(
                lambda a: a != rec["alpha"][i]))
        else:
            extra = copy.deepcopy(rec)
            extra["alpha"] = data.draw(st.one_of(
                st.just(list(rec["alpha"])),
                st.lists(wire_sides, min_size=0, max_size=5)))
            kills.append(extra)
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
                expected.add(rec.alpha.alpha)
        rep = check_certificate(_tamper(oct_cert, box=bad))
        assert set(rep.failing_alphas) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_kill_record_mutation_never_checks_ok(self, oct_payload, data):
        payload, what = _mutate(oct_payload, data)
        rep = check_certificate(jsonio.certificate_from_json(payload))
        assert not rep.ok, what
        assert rep.failing_alphas, what

    @settings(max_examples=30, deadline=None)
    @given(q=st.fractions(min_value=Fraction(1, 50), max_value=50,
                          max_denominator=50),
           every=st.booleans())
    def test_rational_rescaling_checks_ok(self, oct_payload, q, every):
        # (y, h) ↦ (q·y, q·h) with q > 0 keeps yᵀA = 0, h = yᵀb and the sign,
        # so only the denominators of y change
        d = copy.deepcopy(oct_payload)
        for rec in d["kills"] if every else d["kills"][:1]:
            rec["y"] = [rat_to_str(rat_from_str(v) * q) for v in rec["y"]]
            h = rec["h"]
            h["const"] = rat_to_str(rat_from_str(h["const"]) * q)
            h["coeffs"] = [rat_to_str(rat_from_str(c) * q) for c in h["coeffs"]]
        rep = check_certificate(jsonio.certificate_from_json(d))
        assert rep.ok, rep.failures[:3]
