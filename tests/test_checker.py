import dataclasses
from fractions import Fraction

import pytest

from conftest import octagon, twelve_gon
from udnorm.certify import (
    AffineForm,
    OffsetBox,
    certify_box,
    witness_norm,
)
from udnorm.checker import check_certificate
from udnorm.dependence import DependenceSystem
from udnorm.norms import AngleBound, NormOracle, OffsetVector, square

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
