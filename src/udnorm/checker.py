"""Independent certificate validation.

Re-validates a finished certificate from its serialized data alone: the
linear systems are re-derived inline from the polygon and the coefficient
rows (no construction code paths), and null functionals are verified by
direct multiplication yᵀA = 0, once per (class tuple, y) within one check,
because sides s and s+m share a normal. Each recorded h is re-derived as
yᵀb and its sign-definiteness decided by interval evaluation on the box, in
integer arithmetic: y, the offsets and the box are scaled to common
denominators, so every comparison is exact. The witness sandwich, margin
rule, trapezoid tiling, and sweep property are checked by exact rational
geometry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .norms import NormOracle, SymmetricPolygon, hausdorff_to_oracle
from .ratlin import RationalLike, Vec2, rat


@dataclass
class CheckReport:
    ok: bool
    failures: list[str] = field(default_factory=list)
    failing_alphas: list[tuple[int, ...]] = field(default_factory=list)

    def fail(self, message: str, alpha=None):
        self.ok = False
        self.failures.append(message)
        if alpha is not None:
            self.failing_alphas.append(tuple(alpha))


def _admissible_assignments(ell: int, m: int):
    """Independent enumeration: injections into opposite-pair classes times
    a side choice per item."""
    count = 2 * ell + 1
    if count > m:
        return
    for classes in itertools.permutations(range(m), count):
        for sides in itertools.product((0, 1), repeat=count):
            yield tuple(c + m * s for c, s in zip(classes, sides))


def _side_line(B: SymmetricPolygon, side: int) -> tuple[Vec2, Fraction]:
    m = B.m
    side %= 2 * m
    if side < m:
        return B.normals[side], B.offsets[side]
    return B.normals[side - m], -B.offsets[side - m]


def _system_rows(B: SymmetricPolygon, ell: int, coeffs, classes):
    """Rows of A for a class tuple: row i applies normal n_(classes[i]) to
    the direction uᵢ (a base direction, or a combination of them)."""
    weights = [[Fraction(1 if s == i else 0) for s in range(ell)]
               for i in range(ell)]
    weights += [[rat(c) for c in row] for row in coeffs]
    rows = []
    for k, row in zip(classes, weights):
        n = B.normals[k]
        rows.append([w * v for w in row for v in (n.x, n.y)])
    return rows


def _scaled(values) -> tuple[int, list[int]]:
    """(D, values·D) with D the least common denominator of the values."""
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def _equals(q: Fraction, num: int, den: int) -> bool:
    """q = num/den, by cross-multiplication (den > 0)."""
    return q.numerator * den == num * q.denominator


class _KillContext:
    """What every kill record of one certificate is checked against: the
    offsets and the box over common denominators, and the yᵀA = 0 verdict
    per (class tuple, y) — A depends only on the class tuple α mod m."""

    def __init__(self, B: SymmetricPolygon, S, box_lo, box_hi):
        self.B, self.S = B, S
        self.offsets = _scaled(B.offsets)
        D, ints = _scaled(box_lo + box_hi)
        self.box = D, ints[:B.m], ints[B.m:]
        self.null = {}

    def annihilates(self, classes: tuple[int, ...], y: tuple[int, ...]) -> bool:
        key = (classes, y)
        if key not in self.null:
            rows = _system_rows(self.B, self.S.ell, self.S.coeffs, classes)
            self.null[key] = all(
                sum(yi * row[col] for yi, row in zip(y, rows)) == 0
                for col in range(2 * self.S.ell))
        return self.null[key]


def check_certificate(cert, oracle: Optional[NormOracle] = None,
                      eps: Optional[RationalLike] = None) -> CheckReport:
    """Validate a NormCertificate; optionally also that its witness norm is
    within eps of a target oracle. Returns a report, never raises on
    invalid certificates."""
    report = CheckReport(ok=True)
    B1 = cert.polygon
    m = B1.m
    S = cert.system
    box_lo, box_hi = list(cert.box.lo), list(cert.box.hi)

    if len(box_lo) != m:
        report.fail("box dimension differs from side-pair count")
        return report
    for a, b in zip(box_lo, box_hi):
        if not a < b:
            report.fail("box has empty interior")
            return report

    if not B1.is_eta_short(cert.eta):
        report.fail("base polygon sides are not η-short")

    # kill records: keyed by assignment
    by_alpha = {}
    for rec in cert.kills:
        alpha = tuple(rec.alpha.alpha) if hasattr(rec.alpha, "alpha") else tuple(rec.alpha)
        if len(alpha) != 2 * S.ell + 1:
            report.fail(f"kill record has wrong assignment arity: {alpha}", alpha)
            continue
        classes = [a % m for a in alpha]
        if len(set(classes)) != len(classes) or any(not 0 <= a < 2 * m for a in alpha):
            report.fail(f"kill record for inadmissible assignment {alpha}", alpha)
            continue
        if alpha in by_alpha:
            report.fail(f"duplicate kill record for assignment {alpha}", alpha)
            continue
        by_alpha[alpha] = rec

    ctx = _KillContext(B1, S, box_lo, box_hi)
    expected = 0
    for alpha in _admissible_assignments(S.ell, m):
        expected += 1
        rec = by_alpha.get(alpha)
        if rec is None:
            report.fail(f"no kill record for admissible assignment {alpha}", alpha)
            continue
        _check_kill(report, ctx, alpha, rec)
    if expected == 0 and not cert.degenerate:
        report.fail("no admissible assignments exist but certificate "
                    "is not flagged degenerate")
    if expected > 0 and cert.degenerate:
        report.fail("certificate flagged degenerate despite admissible assignments")

    if cert.has_witness():
        _check_witness(report, cert)
        if oracle is not None and eps is not None:
            hd = hausdorff_to_oracle(cert.witness_mid, oracle)
            if not hd.strictly_below(rat(eps)):
                report.fail(
                    f"witness norm not within eps of the target oracle "
                    f"(d_H upper bound {hd.hi})")
    return report


def _check_kill(report: CheckReport, ctx: _KillContext, alpha, rec):
    m = ctx.B.m
    y = [rat(v) for v in rec.y]
    if len(y) != len(alpha):
        report.fail(f"null vector has wrong length for {alpha}", alpha)
        return
    if all(v == 0 for v in y):
        report.fail(f"zero null vector for {alpha}", alpha)
        return
    # y·L is an integer vector with the same null property and signs
    L, ys = _scaled(y)
    if not ctx.annihilates(tuple(a % m for a in alpha), tuple(ys)):
        report.fail(f"yᵀA ≠ 0 for assignment {alpha}", alpha)
        return
    # h = yᵀb re-derived from the side lines ⟨n, z⟩ = ±(c + t): over the
    # offsets' denominator Dc, h = const/(L·Dc) + Σ (coeffs_k/L)·t_k
    Dc, cs = ctx.offsets
    const = 0
    coeffs = [0] * m
    for yi, side in zip(ys, alpha):
        k = side % m
        signed = yi if side < m else -yi
        coeffs[k] += signed
        const += signed * cs[k]
    rec_coeffs = [rat(c) for c in rec.h.coeffs]
    if (len(rec_coeffs) != m or not _equals(rat(rec.h.const), const, L * Dc)
            or not all(_equals(q, c, L) for q, c in zip(rec_coeffs, coeffs))):
        report.fail(f"recorded functional differs from yᵀb for {alpha}", alpha)
        return
    # h·(L·Dc·D) on the box, with t_k·D between the integers lo_k and hi_k
    D, box_lo, box_hi = ctx.box
    lo = hi = const * D
    for c, a, b in zip(coeffs, box_lo, box_hi):
        if c > 0:
            lo += Dc * c * a
            hi += Dc * c * b
        elif c < 0:
            lo += Dc * c * b
            hi += Dc * c * a
    if not (lo > 0 or hi < 0):
        report.fail(f"functional not sign-definite on the box for {alpha}", alpha)
        return
    if (1 if lo > 0 else -1) != rec.sign:
        report.fail(f"recorded sign wrong for {alpha}", alpha)


def _check_witness(report: CheckReport, cert):
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
    # strict sandwich (same normals: compare offsets)
    for i in range(m):
        if not (b_in.offsets[i] < b_mid.offsets[i] < b_out.offsets[i]):
            report.fail("witness sandwich is not strict")
            return
    # margin rule: 2δ·‖nᵢ‖ ≤ hiᵢ − loᵢ, squared to stay rational
    delta = rat(cert.delta)
    if delta <= 0:
        report.fail("margin δ must be positive")
        return
    for i, n in enumerate(B1.normals):
        gap = hi[i] - lo[i]
        if (2 * delta) ** 2 * n.norm_sq() > gap * gap:
            report.fail(f"margin δ too large for side pair {i}")
    # sweep property: each trapezoid lies between its side's offset lines
    for side in range(2 * m):
        a_in, bb_in = b_in.side_segment(side)
        a_out, bb_out = b_out.side_segment(side)
        n, _ = _side_line(B1, side)
        c = B1.offsets[side % m]
        for p in (a_in, bb_in, bb_out, a_out):
            t = (n.dot(p) - c) if side < m else (-n.dot(p) - c)
            if not lo[side % m] <= t <= hi[side % m]:
                report.fail(f"sweep property fails at side {side}")
                break
    # trapezoid tiling: areas add up to the annulus area exactly
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
