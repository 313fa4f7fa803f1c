"""Independent certificate validation.

Certified statement: for every symmetric convex body B′ within Hausdorff
distance δ of the witness polygon B (`witness_mid`), no 2ℓ+1 pairwise
η-separated unit vectors of B′ satisfy the dependence system S. Without
the witness sandwich and δ that statement is empty, so a certificate
without them fails. (A payload without them, or with a box or witness
polygon whose side-pair count differs from the polygon's, is already
refused by `jsonio.certificate_from_json`, exit 3 in the CLI.)

The linear systems are re-derived from the serialized polygon and
coefficient rows alone (no construction code paths). The checker proves:
- The table: one left-null vector y per class tuple α mod m (sides s and
  s+m share a normal), for every class tuple of an admissible assignment
  exactly once; each y ≠ 0 with yᵀA = 0, by direct multiplication in
  integers. y is read as it is: certify derives integer y, and the payload
  reader scales a rational y by its positive common denominator, which
  keeps y ≠ 0, yᵀA = 0 and every sign. The normals are the polygon's
  integer view, and S's coefficient rows are integers by type. With
  2ℓ+1 > m no class tuple exists: m trapezoid classes cannot hold 2ℓ+1
  pairwise η-separated directions, the enumeration below is empty, and any
  table entry fails as inadmissible.
- The kills: per class tuple, one exact integer test decides whether
  h = yᵀb(t) is sign-definite on the box for all 2^(2ℓ+1) side choices at
  once, from y and the box factors F_k, R_k (`_box_factors`, computed once
  per check). A class tuple that fails it names each side choice whose
  range meets 0, read off the same sums; one without a usable table entry
  names every side choice.
- The sandwich: B_in, B and B_out are `offset_polygon(B₁, ·)` at lo, the
  center and hi of the box, so every side is facet-defining.
- The margin rule 2δ‖nᵢ‖ ≤ hiᵢ − loᵢ, which puts B′ between B_in and B_out.
- Each pair of corners of each trapezoid of B_out ∖ B_in spans an angle < η,
  tested in integers on the vertex tables of B_in and B_out.
It relies on the sweep lemma of the source paper: each unit vector of B′ in
trapezoid s lies on ⟨n_s, z⟩ = ±(c_s + t) with t in the box, so a
realization would solve some assignment's system at a point of the box.

Implied by the checks above, so not run:
- Strict sandwich: the offsets are exactly c + lo, c + mid and c + hi, and
  lo < hi is checked first.
- Sweep property: each trapezoid corner is a vertex of B_in or B_out on
  side s's line, so its t is exactly lo_s or hi_s.
- η-short B_in and B_out: their sides are corner pairs of the trapezoids.
- η-short B: vertices are affine in the offsets, so each vertex of B is the
  midpoint of the matching vertices of B_in and B_out; each side of B lies
  in its trapezoid, whose widest angle is between two of its corners.
- Tiling: with the same normals and B_in ⊆ B_out, each quad has two parallel
  sides of the same orientation, so it is a convex trapezoid, and the
  shoelace sums telescope to area(B_out) − area(B_in).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Optional

from .norms import (
    NormOracle,
    PolygonError,
    SymmetricPolygon,
    hausdorff_to_oracle,
    offset_polygon,
    scaled_segment_is_eta_short,
)
from .ratlin import RationalLike, over_common_denominator, rat


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


def _null_vector_table(report: CheckReport, B: SymmetricPolygon, S,
                       entries) -> dict:
    """class tuple ↦ its integer y when y ≠ 0 and yᵀA = 0, else the reason
    y kills nothing, as the prefix of the message that names each of its
    assignments. A malformed entry fails naming its class tuple as the
    assignment with every side in the first half."""
    arity = 2 * S.ell + 1
    m = B.m
    # row i of A for a class tuple applies normal n_(classes[i]) to the
    # direction uᵢ: a base direction (weight row eᵢ), or S's integer
    # combination of them, so A's row is the integer row wᵢ ⊗ n_k, and
    # column (s, xy) of yᵀA is Σᵢ wᵢ[s]·(yᵢ·n_k[xy])
    normals = B.scaled[1]
    weights = [[int(s == i) for s in range(S.ell)] for i in range(S.ell)]
    weights += S.coeffs
    columns = [[w[s] for w in weights] for s in range(S.ell)]
    table = {}
    for classes, y in entries:
        classes, y = tuple(classes), tuple(y)
        if len(classes) != arity:
            report.fail(f"null vector entry has wrong arity: {classes}", classes)
        elif len(set(classes)) != arity or not all(0 <= k < m for k in classes):
            report.fail("null vector entry for inadmissible class tuple "
                        f"{classes}", classes)
        elif classes in table:
            report.fail(f"duplicate null vector for class tuple {classes}", classes)
        elif len(y) != arity:
            table[classes] = "null vector has wrong length for assignment"
        elif not any(y):
            table[classes] = "zero null vector for assignment"
        else:
            ns = [normals[k] for k in classes]
            parts = ([yi * x for yi, (x, _) in zip(y, ns)],
                     [yi * v for yi, (_, v) in zip(y, ns)])
            table[classes] = y if all(
                sum(map(operator.mul, col, part)) == 0
                for col in columns for part in parts) else "yᵀA ≠ 0 for assignment"
    return table


def check_certificate(cert, oracle: Optional[NormOracle] = None,
                      eps: Optional[RationalLike] = None) -> CheckReport:
    """Validate a NormCertificate, its witness sandwich and margin δ
    included; optionally also that its witness norm is within eps of a
    target oracle. A certificate without the witness or δ fails, naming
    them, so the distance test is never skipped. Returns a report, never
    raises on invalid certificates; an oracle without eps, or eps without
    an oracle, is a ValueError."""
    if (oracle is None) != (eps is None):
        raise ValueError("an oracle and eps go together: the distance test "
                         "needs both")
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

    table = _null_vector_table(report, B1, S, cert.null_vectors)
    factors = _box_factors(B1, box_lo, box_hi)
    # independent enumeration of the admissible assignments: injections into
    # opposite-pair classes times a side choice per item
    count = 2 * S.ell + 1
    for classes in itertools.permutations(range(m), count):
        y = table.get(classes, "no null vector for the class tuple of")
        if isinstance(y, str):
            reason, failing = y, itertools.repeat(True)
        else:
            half, radius = _half_sums(factors, classes, y)
            if min(map(abs, half)) > radius:
                continue
            # choice H + i is choice H − 1 − i negated: the same |mid|
            reason = "functional not sign-definite on the box for"
            failing = [abs(v) <= radius for v in half + half[::-1]]
        for sides in itertools.compress(
                itertools.product((0, 1), repeat=count), failing):
            _check_kill(report, reason,
                        tuple(c + m * s for c, s in zip(classes, sides)))

    if None in (cert.witness_in, cert.witness_mid, cert.witness_out,
                cert.delta):
        report.fail("no witness sandwich or margin δ: the certificate "
                    "states nothing")
        return report
    _check_witness(report, cert)
    if oracle is not None:
        hd = hausdorff_to_oracle(cert.witness_mid, oracle)
        if not hd.strictly_below(rat(eps)):
            report.fail(
                f"witness norm not within eps of the target oracle "
                f"(d_H upper bound {hd.hi})")
    return report


def _box_factors(B: SymmetricPolygon, lo, hi):
    """(F, R) per coordinate k of the box [lo, hi], over the offsets'
    denominator Dc and the box's common denominator D (c_k, lo_k, hi_k
    scaled by them): F_k = 2·c_k·D + Dc·(lo_k + hi_k) and
    R_k = Dc·(hi_k − lo_k), computed once per check."""
    (Dc, _, cs), m = B.scaled, B.m
    D, ints = over_common_denominator(lo + hi)
    return ([2 * c * D + Dc * (a + b) for c, a, b in zip(cs, ints[:m], ints[m:])],
            [Dc * (b - a) for a, b in zip(ints[:m], ints[m:])])


def _half_sums(factors, classes, ys) -> tuple[list[int], int]:
    """The mids of 2·h·Dc·D = 2·yᵀb(t)·Dc·D on the box for the side choices
    of the class tuple with ε₀ = +1, in `itertools.product` side order, and
    the radius; y is given as the integers ys and the box as its
    `_box_factors` (F, R).

    A side choice multiplies yᵢ by εᵢ = ±1, so 2·h·Dc·D ranges over
    mid ± radius with mid = Σ εᵢyᵢ·F_k and radius = Σ |yᵢ|·R_k,
    k = classes[i]: h is sign-definite iff |mid| > radius, and a tie fails.
    Choice H + i (H = 2^(2ℓ)) flips every ε of choice H − 1 − i, so the
    other half of the mids is this half negated in reverse order.
    """
    F, R = factors
    radius = sum(abs(yi) * R[k] for yi, k in zip(ys, classes))
    # side bit 1 is the most significant, so the last term doubles first
    half = [ys[0] * F[classes[0]]]
    for yi, k in zip(reversed(ys[1:]), reversed(classes[1:])):
        a = yi * F[k]
        half = [v + a for v in half] + [v - a for v in half]
    return half, radius


def _check_kill(report: CheckReport, reason: str, alpha):
    """Report assignment α as not killed, `reason` saying why."""
    report.fail(f"{reason} {alpha}", alpha)


def _check_witness(report: CheckReport, cert):
    B1, lo, hi = cert.polygon, cert.box.lo, cert.box.hi
    b_in, b_out = cert.witness_in, cert.witness_out
    mid = [(a + b) / 2 for a, b in zip(lo, hi)]
    for name, poly, offs in (("inner", b_in, lo), ("mid", cert.witness_mid, mid),
                             ("outer", b_out, hi)):
        try:
            expected = offset_polygon(B1, offs)
        except PolygonError as exc:
            report.fail(f"witness {name} polygon: {exc}")
            return
        if poly != expected:
            report.fail(f"witness {name} polygon is not the base offset by the box")
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
    # η-short trapezoids: a convex quad avoiding 0 spans its widest angle
    # between two corners; trapezoid m+i is −trapezoid i. Side s runs from
    # vertex s−1 to vertex s, read off the integer vertex tables
    t_in, t_out = b_in._vertex_table, b_out._vertex_table
    for side in range(B1.m):
        quad = (t_in[side - 1], t_in[side], t_out[side - 1], t_out[side])
        if not all(scaled_segment_is_eta_short(p, q, cert.eta)
                   for p, q in itertools.combinations(quad, 2)):
            report.fail(f"trapezoid {side} is not η-short")
