"""Batch command-line interface.

Subcommands: gen, udg, prop1, lindep, certify, check, verify, pipeline.
Exit codes: 0 success, 1 verified failure (contract/check/counterexample),
2 usage errors (including a count or size out of range: `--n`, `--k`,
`--w`, `--h`, `--trials`, and `--exhaustive-cap` outside [0, 22]; a
`gen --kind subset-sum --k` above the polygon's side count; a `--step` of
0; a `--q`, `--C`, `--eps` or `--delta0` that is not positive; an
`--eta-sin2` outside (0, 1]; `certify` with neither `--polygon` nor
`--oracle`; and `check` with only one of `--oracle` and `--eps`), 3
malformed input payload (a JSON file that does not describe a valid object
of its kind, including a certificate that is not schema 2, lacks its
witness or δ, has a box or witness polygon whose side-pair count differs
from its polygon's, or has a `"degenerate"` flag other than the boolean
2ℓ+1 > m). Every certificate `certify` and `pipeline`
write carries its witness and δ. Module
failures and malformed payloads emit a structured error JSON on stdout;
`pipeline` writes no file when it fails.
All randomized paths take an explicit seed (default 0). `--exhaustive-cap`
is the one way to set the exhaustive cut-search cap.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import jsonio
from .certify import CertifierError, certify_box, sample_verify, witness_norm
from .checker import check_certificate
from .colored import (
    DEFAULT_EXHAUSTIVE_CAP,
    MAX_EXHAUSTIVE_CAP,
    CoverFailure,
    EdgeColoredGraph,
    color_cover,
)
from .dependence import DependenceConfig, ExtractionFailure, extract_dependences
from .norms import (
    AngleBound,
    NormOracle,
    PolygonError,
    SymmetricPolygon,
    choose_delta0,
    polygon_approx,
    square,
)
from .pointsets import (
    flat_side_quadratic,
    generic_unit_vectors,
    grid_pointset,
    subset_sum_pointset,
)
from .ratlin import Vec2
from .udg import build_udg


def _rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}") from exc


def _positive(s: str) -> Fraction:
    x = _rational(s)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"not a rational > 0: {s!r}")
    return x


def _sin_sq(s: str) -> Fraction:
    x = _rational(s)
    if not 0 < x <= 1:
        raise argparse.ArgumentTypeError(f"not a rational in (0, 1]: {s!r}")
    return x


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi] (no upper bound when hi is None)."""
    def parse(s: str) -> int:
        try:
            n = int(s)
        except ValueError:
            n = None
        if n is None or n < lo or (hi is not None and n > hi):
            bound = f"≥ {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"not an integer {bound}: {s!r}")
        return n
    return parse


def _nonzero(s: str) -> Fraction:
    x = _rational(s)
    if x == 0:
        raise argparse.ArgumentTypeError(f"not a nonzero rational: {s!r}")
    return x


def _emit(payload: dict, path: str | None):
    if path:
        jsonio.write_json(path, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _error(kind: str, message: str, **extra) -> int:
    _emit({"error": kind, "message": message, **extra}, None)
    return 1


# built-in certificate polygon for the pipeline: a rational 10-gon (m = 5)
# with unit-circle normals, η-short at sin²η = 2/5
def pipeline_decagon() -> SymmetricPolygon:
    return SymmetricPolygon.from_pairs([
        (Vec2.of(1, 0), 1),
        (Vec2.of(Fraction(4, 5), Fraction(3, 5)), 1),
        (Vec2.of(Fraction(7, 25), Fraction(24, 25)), 1),
        (Vec2.of(Fraction(-57, 185), Fraction(176, 185)), 1),
        (Vec2.of(Fraction(-4, 5), Fraction(3, 5)), 1),
    ])


def cmd_gen(args) -> int:
    if args.kind == "subset-sum":
        B = (jsonio.polygon_from_json(jsonio.read_json(args.polygon))
             if args.polygon else square())
        if args.k > 2 * B.m:
            _error("usage", f"--k {args.k} exceeds the polygon's {2 * B.m} "
                            f"sides (one generic unit vector per side)")
            return 2
        vectors = generic_unit_vectors(B, args.k)
        P = subset_sum_pointset(vectors)
    elif args.kind == "flat":
        P = flat_side_quadratic(args.n)
    elif args.kind == "grid":
        P = grid_pointset(args.w, args.h, args.step)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.kind)
    _emit(jsonio.points_to_json(P), args.out)
    return 0


def cmd_udg(args) -> int:
    P = jsonio.points_from_json(jsonio.read_json(args.points))
    B = jsonio.polygon_from_json(jsonio.read_json(args.polygon))
    G = build_udg(P, B)
    _emit(jsonio.udg_to_json(G), args.out)
    if args.csv:
        jsonio.write_color_csv(args.csv, G)
    if args.svg:
        jsonio.write_text(args.svg, jsonio.render_svg(P, G))
    return 0


def _load_colored_graph(path: str) -> EdgeColoredGraph:
    d = jsonio.read_json(path)
    if isinstance(d, dict) and "sign" in d:
        return jsonio.udg_from_json(d)
    return jsonio.graph_from_json(d)


def cmd_prop1(args) -> int:
    G = _load_colored_graph(args.graph)
    try:
        res = color_cover(G, args.q, args.C, cap=args.exhaustive_cap,
                          seed=args.seed)
    except CoverFailure as exc:
        return _error("cover-failure", str(exc))
    _emit(jsonio.cover_to_json(res), args.out)
    return 0


def cmd_lindep(args) -> int:
    G = jsonio.udg_from_json(jsonio.read_json(args.udg))
    config = DependenceConfig(q=args.q, C=args.C,
                              exhaustive_cap=args.exhaustive_cap,
                              seed=args.seed)
    try:
        res = extract_dependences(G, config)
    except ExtractionFailure as exc:
        return _error("extraction-failure", str(exc))
    _emit(jsonio.system_to_json(res.system), args.out)
    if args.cover_out:
        jsonio.write_json(args.cover_out, jsonio.cover_to_json(res.cover))
    return 0


def cmd_certify(args) -> int:
    S = jsonio.system_from_json(jsonio.read_json(args.system))
    eta = AngleBound(args.eta_sin2)
    oracle = (jsonio.oracle_from_json(jsonio.read_json(args.oracle))
              if args.oracle else None)
    if args.polygon:
        B1 = jsonio.polygon_from_json(jsonio.read_json(args.polygon))
    elif oracle is not None:
        B1 = polygon_approx(oracle, args.eps, eta)
    else:
        _error("usage", "certify needs --polygon or --oracle")
        return 2
    delta0 = args.delta0
    if delta0 is None:
        if oracle is None:
            oracle = NormOracle.of_polygon(B1)
        delta0 = choose_delta0(B1, oracle, args.eps, eta)
    cert = witness_norm(certify_box(S, B1, delta0, eta))
    _emit(jsonio.certificate_to_json(cert), args.out)
    return 0


def cmd_check(args) -> int:
    if (args.oracle is None) != (args.eps is None):
        _error("usage", "check needs --oracle and --eps together")
        return 2
    cert = jsonio.certificate_from_json(jsonio.read_json(args.cert))
    oracle = (jsonio.oracle_from_json(jsonio.read_json(args.oracle))
              if args.oracle is not None else None)
    report = check_certificate(cert, oracle, args.eps)
    if report.ok:
        _emit({"ok": True}, args.out)
        return 0
    return _error("check-failed", "; ".join(report.failures),
                  failing_alphas=[[a + 1 for a in al]
                                  for al in report.failing_alphas])


def cmd_verify(args) -> int:
    cert = jsonio.certificate_from_json(jsonio.read_json(args.cert))
    report = sample_verify(cert, args.trials, args.seed)
    _emit(jsonio.report_to_json(report), args.out)
    return 1 if (report.counterexample_found or not report.sweep_ok) else 0


def cmd_pipeline(args) -> int:
    # everything is computed before the first file is written
    out = args.out_dir.rstrip("/")
    P = flat_side_quadratic(args.n)
    G = build_udg(P, square())
    config = DependenceConfig(q=args.q, C=args.C,
                              exhaustive_cap=args.exhaustive_cap,
                              seed=args.seed)
    try:
        res = extract_dependences(G, config)
    except ExtractionFailure as exc:
        return _error("extraction-failure", str(exc))
    B1 = (jsonio.polygon_from_json(jsonio.read_json(args.cert_polygon))
          if args.cert_polygon else pipeline_decagon())
    eta = AngleBound(args.eta_sin2)
    oracle = NormOracle.of_polygon(B1)
    delta0 = args.delta0
    if delta0 is None:
        delta0 = choose_delta0(B1, oracle, args.eps, eta)
    cert = witness_norm(certify_box(res.system, B1, delta0, eta))
    check = check_certificate(cert, oracle, args.eps)
    verify = sample_verify(cert, args.trials, args.seed)
    summary = {
        "points": len(P),
        "edges": G.edge_count,
        "colors": G.k,
        "ell": res.system.ell,
        "kills": verify.alphas_checked,
        "delta0": str(delta0),
        "delta": str(cert.delta),
        "check_ok": check.ok,
        "check_failures": check.failures,
        "counterexample_found": verify.counterexample_found,
        "sweep_ok": verify.sweep_ok,
    }
    jsonio.write_json(f"{out}/points.json", jsonio.points_to_json(P))
    jsonio.write_json(f"{out}/graph.json", jsonio.udg_to_json(G))
    jsonio.write_color_csv(f"{out}/graph.csv", G)
    jsonio.write_text(f"{out}/graph.svg", jsonio.render_svg(P, G))
    jsonio.write_json(f"{out}/system.json", jsonio.system_to_json(res.system))
    jsonio.write_json(f"{out}/cover.json", jsonio.cover_to_json(res.cover))
    jsonio.write_json(f"{out}/certificate.json",
                      jsonio.certificate_to_json(cert))
    jsonio.write_json(f"{out}/report.json", jsonio.report_to_json(verify))
    jsonio.write_json(f"{out}/summary.json", summary)
    _emit(summary, None)
    ok = check.ok and not verify.counterexample_found and verify.sweep_ok
    return 0 if ok else 1


def _add_exhaustive_cap(p: argparse.ArgumentParser):
    p.add_argument(
        "--exhaustive-cap", type=_int_in(0, MAX_EXHAUSTIVE_CAP), default=None,
        help=f"largest vertex set searched exhaustively for a weak cut "
             f"(default {DEFAULT_EXHAUSTIVE_CAP}, at most {MAX_EXHAUSTIVE_CAP}; "
             f"each extra vertex can double the search, and one search over "
             f"{MAX_EXHAUSTIVE_CAP} vertices took up to 1.3 s)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="udnorm",
        description="Unit-distance experiments and perturbation certificates "
                    "for planar polygonal norms.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point sequence")
    p.add_argument("--kind", choices=["subset-sum", "flat", "grid"],
                   required=True)
    p.add_argument("--k", type=_int_in(1), default=3,
                   help="subset-sum: number of generator vectors")
    p.add_argument("--n", type=_int_in(2), default=10, help="flat: point count")
    p.add_argument("--w", type=_int_in(1), default=3)
    p.add_argument("--h", type=_int_in(1), default=3)
    p.add_argument("--step", type=_nonzero, default=Fraction(1))
    # argparse takes a value that starts with '-' for an option unless it
    # looks like a negative number; let a negative fraction such as
    # `--step -1/2` count as one too
    p._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")
    p.add_argument("--polygon", help="subset-sum: polygon JSON for unit vectors")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("udg", help="build the decorated unit-distance graph")
    p.add_argument("--points", required=True)
    p.add_argument("--polygon", required=True)
    p.add_argument("--out")
    p.add_argument("--csv", help="per-color edge counts (CSV)")
    p.add_argument("--svg", help="render points and edges (SVG)")
    p.set_defaults(func=cmd_udg)

    p = sub.add_parser("prop1", help="connected color cover search")
    p.add_argument("--graph", required=True,
                   help="edge-colored graph (or decorated UDG) JSON")
    p.add_argument("--q", type=_positive, default=Fraction(2001, 1000))
    p.add_argument("--C", type=_positive, default=Fraction(1))
    _add_exhaustive_cap(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_prop1)

    p = sub.add_parser("lindep", help="extract direction dependences")
    p.add_argument("--udg", required=True)
    p.add_argument("--q", type=_positive, default=Fraction(2001, 1000))
    p.add_argument("--C", type=_positive, default=Fraction(1))
    _add_exhaustive_cap(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--cover-out")
    p.set_defaults(func=cmd_lindep)

    p = sub.add_parser("certify", help="build a box certificate + witness")
    p.add_argument("--system", required=True)
    p.add_argument("--polygon", help="η-short certificate polygon JSON")
    p.add_argument("--oracle",
                   help='norm oracle JSON to approximate instead: '
                        '{"kind": "polygon", "polygon": …} or {"kind": "euclidean"}')
    p.add_argument("--eps", type=_positive, default=Fraction(1, 4),
                   help="Hausdorff bound to the oracle (or to --polygon) "
                        "for the approximation and for δ₀ (default 1/4)")
    p.add_argument("--eta-sin2", type=_sin_sq, required=True,
                   help="(sin η)² as a rational")
    p.add_argument("--delta0", type=_positive, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check", help="independently re-validate a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--oracle")
    p.add_argument("--eps", type=_positive, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    verify_help = ("refutation search: the directed pass decides each "
                   "assignment with a 1-dim left null space, a whole class "
                   "tuple at once when one signed-sum test shows no root in "
                   "the box; random trials sample the rest")
    p = sub.add_parser("verify", help=verify_help, description=verify_help)
    p.add_argument("--cert", required=True)
    p.add_argument("--trials", type=_int_in(0), default=1000,
                   help="random box points tried against the assignments "
                        "whose left null space has dimension ≥ 2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pipeline",
                       help="end to end: points → udg → lindep → certify → verify")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=_int_in(2), default=10)
    p.add_argument("--q", type=_positive, default=Fraction(2001, 1000))
    p.add_argument("--C", type=_positive, default=Fraction(1, 4))
    p.add_argument("--eta-sin2", type=_sin_sq, default=Fraction(2, 5))
    p.add_argument("--eps", type=_positive, default=Fraction(1, 4))
    p.add_argument("--delta0", type=_positive, default=None)
    p.add_argument("--cert-polygon")
    p.add_argument("--trials", type=_int_in(0), default=200, help="as in verify")
    _add_exhaustive_cap(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pipeline)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except jsonio.PayloadError as exc:
        _error("malformed-payload", str(exc))
        return 3
    except (PolygonError, CertifierError, ValueError, OSError) as exc:
        return _error(type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
