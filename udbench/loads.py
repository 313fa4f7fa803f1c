"""The three workloads: their inputs, one checked pass each, and the checks.

Every random input comes from the run's seed. The generators are written
here rather than imported from the test suite; they follow the acceptance
criteria they are named after. Each workload calls udnorm through module
attributes (`M.certify.certify_box`, not a bound name), so a traced run
sees the calls.

A pass returns a `Pass`: the output checks it made (name, passed), the
exact values the end-to-end metrics read (δ, certificate size) and, for
`pipeline`, the certificate bytes that traced and untraced passes must
share.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional


@dataclass
class Pass:
    checks: list[tuple[str, bool]] = field(default_factory=list)
    deltas: list[Fraction] = field(default_factory=list)
    cert_bytes: Optional[bytes] = None
    outcomes: dict[str, int] = field(default_factory=dict)

    def check(self, name: str, ok) -> bool:
        self.checks.append((name, bool(ok)))
        return bool(ok)


# --- shared generators --------------------------------------------------------


def octagon(M):
    V = M.ratlin.Vec2
    return M.norms.SymmetricPolygon.from_pairs([
        (V.of(1, 0), 1), (V.of(0, 1), 1),
        (V.of(1, 1), Fraction(7, 5)), (V.of(-1, 1), Fraction(7, 5)),
    ])


def twelve_gon(M):
    V = M.ratlin.Vec2
    return M.norms.SymmetricPolygon.from_pairs([
        (V.of(1, 0), 1), (V.of(0, 1), 1),
        (V.of(2, 1), Fraction(11, 5)), (V.of(1, 2), Fraction(11, 5)),
        (V.of(-1, 2), Fraction(11, 5)), (V.of(-2, 1), Fraction(11, 5)),
    ])


def random_polygon(M, rng: random.Random, max_coord: int = 6, points: int = 5):
    """Hull of a symmetrized random point set, retried until valid."""
    V = M.ratlin.Vec2
    while True:
        pts = []
        for _ in range(points):
            x = Fraction(rng.randint(-max_coord, max_coord), rng.randint(1, 3))
            y = Fraction(rng.randint(-max_coord, max_coord), rng.randint(1, 3))
            if x == 0 and y == 0:
                continue
            pts.append(V(x, y))
        try:
            return M.norms.polygon_from_hull(pts + [-p for p in pts])
        except M.norms.PolygonError:
            continue


def random_colored_graph(M, rng: random.Random, n: int, p: float, rainbow: bool):
    """G(n, p) with all-distinct colors, or a greedy proper edge coloring."""
    edges = tuple(e for e in itertools.combinations(range(1, n + 1), 2)
                  if rng.random() < p)
    if rainbow:
        colors = tuple(range(1, len(edges) + 1))
    else:
        # smallest color free at both ends; bit c of used[v] marks color c
        used = [0] * (n + 1)
        colors = []
        for a, b in edges:
            free = ~(used[a] | used[b] | 1)
            bit = free & -free
            used[a] |= bit
            used[b] |= bit
            colors.append(bit.bit_length() - 1)
        colors = tuple(colors)
    return M.colored.EdgeColoredGraph(n, edges, colors)


def spread(lo, hi, count: int, stride: int = 1) -> list:
    """count values evenly from lo to hi, visited in steps of `stride`
    (coprime to count) so that two spreads zipped together do not rise
    in step. The work per pass then does not depend on the seed, which
    only draws the edges, polygons and offsets."""
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * ((i * stride) % count) / (count - 1)
            for i in range(count)]


# --- pipeline -------------------------------------------------------------------


PIPELINE_KILLS = 3840  # 5·4·3·2·1·2⁵ admissible assignments, ℓ = 2, m = 5


def pipeline_inputs(M, seed: int, size: str, work_dir: str) -> dict:
    # the CLI defaults fix the pipeline's size, so "tiny" runs it in full
    return {"seed": seed, "work_dir": work_dir}


def pipeline_pass(M, inputs: dict) -> Pass:
    """`udnorm pipeline` at its defaults with one verify trial, then
    `udnorm check` on the emitted certificate, in-process."""
    res = Pass()
    run_dir = tempfile.mkdtemp(prefix="pipeline-", dir=inputs["work_dir"])
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = M.cli.main(["pipeline", "--out-dir", run_dir, "--trials", "1",
                             "--seed", str(inputs["seed"])])
        res.check("pipeline exits 0", rc == 0)
        try:
            summary = json.loads(out.getvalue())
        except ValueError:
            summary = {}
        res.check("summary check_ok", summary.get("check_ok") is True)
        res.check("no counterexample",
                  summary.get("counterexample_found") is False)
        res.check("summary sweep_ok", summary.get("sweep_ok") is True)
        res.check(f"kills == {PIPELINE_KILLS}",
                  summary.get("kills") == PIPELINE_KILLS)
        cert_path = os.path.join(run_dir, "certificate.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = M.cli.main(["check", "--cert", cert_path])
        res.check("check exits 0", rc == 0)
        delta = Fraction(summary.get("delta") or 0)
        if res.check("delta > 0", delta > 0):
            res.deltas.append(delta)
        with open(cert_path, "rb") as fh:
            res.cert_bytes = fh.read()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return res


# --- refute ---------------------------------------------------------------------


def refute_inputs(M, seed: int, size: str, work_dir: str) -> dict:
    toy = M.dependence.DependenceSystem(ell=1, indices=(1, 2, 3),
                                        coeffs=((2,), (-1,)))
    cases = [(octagon(M), Fraction(5, 9))]
    if size == "full":
        cases.append((twelve_gon(M), Fraction(2, 5)))
    return {"system": toy, "cases": cases, "delta0": Fraction(1, 100),
            "trials": 100 if size == "full" else 10, "seed": seed}


def _widened(M, cert):
    """The criterion-7 mutant: the box scaled by the first power of two
    that breaks some kill record's sign-definiteness."""
    for factor in (2, 4, 8, 16, 32):
        wide = M.certify.OffsetBox(
            M.norms.OffsetVector(tuple(v * factor for v in cert.box.lo)),
            M.norms.OffsetVector(tuple(v * factor for v in cert.box.hi)),
        )
        if any(not rec.h.interval_on(wide).excludes_zero() for rec in cert.kills):
            break
    return dataclasses.replace(cert, box=wide)


def refute_pass(M, inputs: dict) -> Pass:
    """Certify, check and verify the toy ℓ = 1 system on each polygon, then
    require the checker to reject and verify to refute the widened box."""
    res = Pass()
    C = M.certify
    trials, seed = inputs["trials"], inputs["seed"]
    for polygon, sin2 in inputs["cases"]:
        tag = f"m={polygon.m}"
        eta = C.AngleBound.of(sin2)
        cert = C.witness_norm(C.certify_box(inputs["system"], polygon,
                                            inputs["delta0"], eta))
        oracle = M.norms.NormOracle.of_polygon(polygon)
        report = M.checker.check_certificate(cert, oracle, Fraction(1, 2))
        res.check(f"{tag} certificate checks ok", report.ok)
        vrep = C.sample_verify(cert, trials, seed)
        res.check(f"{tag} certificate gets 0 hits", not vrep.hits)
        res.check(f"{tag} sweep ok", vrep.sweep_ok)
        if res.check(f"{tag} delta > 0", cert.delta is not None and cert.delta > 0):
            res.deltas.append(cert.delta)
        bad = _widened(M, cert)
        res.check(f"{tag} mutant rejected",
                  not M.checker.check_certificate(bad).ok)
        vbad = C.sample_verify(bad, trials, seed)
        res.check(f"{tag} mutant refuted by a directed hit",
                  any(h.source == "directed" for h in vbad.hits))
    return res


# --- graphs ---------------------------------------------------------------------


GRAPH_SIZES = {
    #        k, covers (n lo, hi), cores (n lo, hi), point sets
    "full": (11, 30, (8, 200), 40, (14, 18), 50),
    "tiny": (6, 3, (8, 30), 4, (12, 14), 4),
}


def graphs_inputs(M, seed: int, size: str, work_dir: str) -> dict:
    k, n_cover, cover_n, n_core, core_n, n_sets = GRAPH_SIZES[size]
    rng = random.Random(seed)
    B12 = twelve_gon(M)
    P = M.pointsets.subset_sum_pointset(
        M.pointsets.generic_unit_vectors(B12, k))
    covers = []
    sizes = [round(n) for n in spread(*cover_n, n_cover)]
    for i, (n, p) in enumerate(zip(sizes, spread(0.4, 0.95, n_cover, 7))):
        # criterion 5: dense, rainbow (half of those with n ≤ 60) or
        # greedily proper-colored
        while True:
            G = random_colored_graph(M, rng, n, p, n <= 60 and i % 2 == 0)
            if G.edge_count >= 4:
                break
        covers.append(G)
    cores = []
    sizes = [round(n) for n in spread(*core_n, n_core)]
    radii = (Fraction(1, 2), Fraction(1), Fraction(2))
    for i, (n, p) in enumerate(zip(sizes, spread(0.3, 0.9, n_core, 7))):
        # criterion 4: rainbow, every cut enumerated
        while True:
            G = random_colored_graph(M, rng, n, p, True)
            if G.edges:
                break
        cores.append((G, radii[i % 3]))
    sets = []
    V = M.ratlin.Vec2
    for i in range(n_sets):
        # criterion 6: two rows whose cross differences land on one side
        B = random_polygon(M, rng)
        side = rng.randrange(2 * B.m)
        rows = 4 + i % 4
        shift = V.of(Fraction(rng.randint(-6, 6), 3),
                     Fraction(rng.randint(-6, 6), 3))
        lam = Fraction(rng.randint(2, 6), 8)
        sets.append((B, M.pointsets.two_row_pointset(B, side, rows, lam, shift)))
    return {"k": k, "polygon": B12, "points": P, "covers": covers,
            "cores": cores, "sets": sets}


def graphs_pass(M, inputs: dict) -> Pass:
    """points → UDG → cover / robust core → dependences, each output
    re-verified; cover and extraction failures are legitimate outcomes."""
    res = Pass()
    k = inputs["k"]
    G = M.udg.build_udg(inputs["points"], inputs["polygon"])
    res.check(f"subset-sum edges == {k}·2^{k - 1}",
              G.edge_count == k * 2 ** (k - 1))
    CoverFailure = M.colored.CoverFailure
    covered = 0
    for H in inputs["covers"]:
        try:
            cov = M.colored.color_cover(H, 2, Fraction(1, 4))
        except CoverFailure:
            continue
        covered += 1
        res.check("verify_cover on a found cover",
                  M.colored.verify_cover(H, cov.W, cov.I, 2))
    cored = 0
    for H, r in inputs["cores"]:
        try:
            core = M.colored.robust_core(H, r)
        except CoverFailure:
            continue
        cored += 1
        res.check("verify_no_weak_cut on a robust core",
                  M.colored.verify_no_weak_cut(H, core.W, r))
    extracted = 0
    config = M.dependence.DependenceConfig(C=Fraction(1, 8))
    for B, P in inputs["sets"]:
        U = M.udg.build_udg(P, B)
        try:
            ext = M.dependence.extract_dependences(U, config)
        except M.dependence.ExtractionFailure:
            continue
        extracted += 1
        res.check("verify_on_realization on an extracted system",
                  M.dependence.verify_on_realization(
                      ext.system, U.without_directions(), P, B))
    res.outcomes = {"covers": len(inputs["covers"]), "covered": covered,
                    "cores": len(inputs["cores"]), "cored": cored,
                    "sets": len(inputs["sets"]), "extracted": extracted}
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (M, seed, size, work_dir) → inputs
    run: Callable     # (M, inputs) → Pass
    udg_input: Callable  # (M, inputs) → (points, polygon) the udg stage scans, or None


WORKLOADS = {
    "pipeline": Workload(
        "pipeline", pipeline_inputs, pipeline_pass,
        lambda M, inp: (M.pointsets.flat_side_quadratic(10), M.norms.square())),
    "refute": Workload("refute", refute_inputs, refute_pass, lambda M, inp: None),
    "graphs": Workload(
        "graphs", graphs_inputs, graphs_pass,
        lambda M, inp: (inp["points"], inp["polygon"])),
}
