#!/usr/bin/env python3
"""The udnorm benchmark: three workloads, every metric printed with its unit.

    python3 udbench/run.py --workload {pipeline,refute,graphs} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout: it imports udnorm from ./src and
nowhere else, and fails without a result when ./src/udnorm is missing.

A run sets up SETUP_REPS times (fresh import of every udnorm module, then
the workload's input generation from --seed): once before the first pass,
then after each pass and at the end until it has them all, and reports the
median as setup_s. Between those it runs checked passes of the workload,
single-threaded, until another pass would overrun --seconds (at least one).

All times are reference seconds: wall seconds with the machine's sampled
speed divided out (see speed.py); the raw wall figures are printed too.

--trace 0 wraps only the stage entry points in `layers.STAGES` (a few calls
a pass) and reports the end-to-end metrics: median wall_s over the passes,
setup_s, peak_rss_mb, and per workload certify_s, check_s, verify_s,
graph_s, delta, cert_bytes and fail_frac.

--trace 1 alternates an untraced pass with a traced one that wraps every
function in `layers.LAYERS`, and reports the per-layer metrics of the
traced passes (medians) plus trace.overhead_s, the traced minus the
untraced median wall time. The traced certificate.json must be
byte-identical to the untraced one. Spans are written to
.bench_out/<workload>-seed<N>-spans.jsonl at the end.

Every output of every pass is checked (see loads.py). The last line of
stdout is one JSON object {correct, attempted, failed, metrics} holding the
metrics BENCHMARK.json declares for the mode; the lines before it print all
metrics and the run's metadata. The full record, metadata included, goes
to .bench_out/<workload>-seed<N>-trace<T>.json for compare.py. The exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)

import layers  # noqa: E402
from loads import WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedSampler  # noqa: E402

SETUP_REPS = 5
MODULES = ("ratlin", "norms", "pointsets", "kernels", "udg", "colored",
           "dependence", "certify", "checker", "jsonio", "cli")
INT64_SAFE = 2**62  # the bound kernels.py dispatches the compiled path on

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "certify_s": "s", "check_s": "s",
             "verify_s": "s", "graph_s": "s", "delta": "1", "cert_bytes": "bytes",
             "peak_rss_mb": "MB", "fail_frac": "ratio", "setup_raw_s": "s",
             "wall_raw_s": "s", "chunk_ms": "ms"}
E2E_BY_WORKLOAD = {
    "pipeline": ("certify_s", "check_s", "verify_s", "delta", "cert_bytes"),
    "refute": ("certify_s", "check_s", "verify_s", "delta"),
    "graphs": ("graph_s",),
}


class SetupError(RuntimeError):
    pass


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "udnorm", "__init__.py")):
        raise SetupError(f"no udnorm sources under {SRC}")


def load_udnorm() -> SimpleNamespace:
    """Import every udnorm module afresh from this checkout's src/."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [k for k in sys.modules if k == "udnorm" or k.startswith("udnorm.")]:
        if name != "udnorm._kern_cy":  # an extension module cannot be re-run
            del sys.modules[name]
    mods = {name: importlib.import_module(f"udnorm.{name}") for name in MODULES}
    origin = os.path.realpath(sys.modules["udnorm"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"udnorm imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup(workload, seed: int, size: str):
    """A fresh import of every udnorm module plus the workload's inputs;
    returns (M, inputs, seconds)."""
    t0 = time.perf_counter()
    M = load_udnorm()
    inputs = workload.inputs(M, seed, size, OUT)
    return M, inputs, time.perf_counter() - t0


def git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def metadata(M, workload, inputs, args) -> dict:
    try:
        importlib.import_module("udnorm._kern_cy")
        cy = True
    except ImportError:
        cy = False
    udg = workload.udg_input(M, inputs)
    int64_ok = None
    if udg is not None:
        P, B = udg
        max_dv = M.kernels.scaled_unit_pair_input(
            list(P), list(zip(B.normals, B.offsets)))[2]
        int64_ok = max_dv < INT64_SAFE
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    fingerprint = {
        "workload": workload.name,
        "size": args.size,
        "backend": M.kernels.active_backend(),
        "kern_cy_imports": cy,
        "udg_input_int64_ok": int64_ok,
        "udnorm_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("UDNORM_")},
        "exhaustive_cap": M.colored.exhaustive_cap(),
        "python": platform.python_version(),
        "nproc": nproc,
    }
    return {"fingerprint": fingerprint, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_commit": git_commit(), "machine": platform.machine()}


def measured_pass(M, workload, inputs, tracer: Tracer, run_id: str):
    """One pass with `tracer` installed; returns (wall_s, Pass, spans,
    counters), the spans and counters including those the tracer held
    before the pass."""
    tracer.run = run_id
    t0 = time.perf_counter()
    result = workload.run(M, inputs)
    wall = time.perf_counter() - t0
    return wall, result, list(tracer.spans), dict(tracer.counters)


def untraced_pass(M, workload, inputs, run_id: str):
    tracer = Tracer()
    tracer.install("udnorm", layers.STAGES)
    try:
        return measured_pass(M, workload, inputs, tracer, run_id)
    finally:
        tracer.restore()


def traced_pass(M, workload, seed: int, size: str, run_id: str):
    """Inputs regenerated and the pass run with every layer wrapped, so the
    generators' spans are recorded too; wall_s covers the pass only."""
    tracer = Tracer()
    tracer.install("udnorm", layers.LAYERS)
    try:
        tracer.run = run_id
        inputs = workload.inputs(M, seed, size, OUT)
        return measured_pass(M, workload, inputs, tracer, run_id)
    finally:
        tracer.restore()


def rebase(spans, base: int) -> list:
    """spans with parent ids shifted by base, for appending to a list of
    base spans."""
    return [(n, s, e, p + base if p >= 0 else p, r) for n, s, e, p, r in spans]


def columns(rows: list[dict]) -> dict[str, list]:
    return {k: [r[k] for r in rows] for k in rows[0]}


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    checks: list[tuple[str, bool]] = []
    setups, passes, traced = [], [], []  # (start, end, seconds) each
    stage_rows, deltas, outcomes, layer_rows, all_spans = [], [], [], [], []
    cert_bytes = None

    def timed_setup():
        t0 = time.perf_counter()
        M, inputs, seconds = setup(workload, args.seed, args.size)
        setups.append((t0, time.perf_counter(), seconds))
        return M, inputs

    with SpeedSampler() as speed:
        M, inputs = timed_setup()
        meta = metadata(M, workload, inputs, args)
        t_start = time.perf_counter()
        slowest = 0.0
        n = 0
        while True:
            n += 1
            tag = f"{args.workload}:{args.seed}:{n}"
            t0 = time.perf_counter()
            wall, res, spans, _ = untraced_pass(M, workload, inputs, tag)
            passes.append((t0, time.perf_counter(), wall))
            stage_rows.append(layers.stage_seconds(spans))
            checks += res.checks
            deltas += res.deltas
            outcomes.append(res.outcomes)
            if res.cert_bytes is not None:
                cert_bytes = res.cert_bytes
            round_s = wall
            if args.trace:
                t0 = time.perf_counter()
                twall, tres, tspans, tcounters = traced_pass(
                    M, workload, args.seed, args.size, tag + ":traced")
                traced.append((t0, time.perf_counter(), twall))
                checks += tres.checks
                if res.cert_bytes is not None:
                    checks.append(("traced certificate.json is byte-identical",
                                   tres.cert_bytes == res.cert_bytes))
                layer_rows.append((tspans, tcounters))
                all_spans += rebase(tspans, len(all_spans))
                round_s += twall
            if len(setups) < SETUP_REPS:
                # set-ups spread over the run sample the machine's slow and
                # fast spells alike; the next passes use the fresh modules
                M, inputs = timed_setup()
            slowest = max(slowest, round_s)
            if time.perf_counter() - t_start + slowest > args.seconds:
                break
        while len(setups) < SETUP_REPS:
            timed_setup()

    def ref(rows):
        """Reference seconds of each (start, end, seconds) row."""
        return [sec * speed.scale(a, b) for a, b, sec in rows]

    walls, walls_ref = [sec for _, _, sec in passes], ref(passes)
    failed = sum(1 for _, ok in checks if not ok)
    attempted = len(checks)
    scales = [speed.scale(a, b) for a, b, _ in passes]
    stages = {k: statistics.median(v * f for v, f in zip(col, scales))
              for k, col in columns(stage_rows).items()}
    e2e = {
        "setup_s": statistics.median(ref(setups)),
        "wall_s": statistics.median(walls_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": failed / attempted if attempted else 1.0,
        "setup_raw_s": statistics.median(sec for _, _, sec in setups),
        "wall_raw_s": statistics.median(walls),
        "chunk_ms": speed.mean_chunk_s() * 1e3,
    }
    for name in E2E_BY_WORKLOAD[args.workload]:
        if name in stages:
            e2e[name] = stages[name]
    if "delta" in E2E_BY_WORKLOAD[args.workload]:
        e2e["delta"] = float(min(deltas)) if deltas else 0.0
    if "cert_bytes" in E2E_BY_WORKLOAD[args.workload]:
        e2e["cert_bytes"] = len(cert_bytes) if cert_bytes is not None else 0

    print(f"udbench {args.workload} seed={args.seed} passes={len(walls)} "
          f"trace={args.trace} (times in reference seconds, see speed.py)")
    for name, value in e2e.items():
        print(f"  {name:<14} {value!r:>24} {E2E_UNITS[name]}")
    if outcomes and outcomes[0]:
        print(f"  outcomes       {json.dumps(outcomes[0], sort_keys=True)}")
    for name, ok in checks:
        if not ok:
            print(f"  FAILED CHECK   {name}", file=sys.stderr)

    record = {"meta": meta, "end_to_end": e2e, "wall_s_passes": walls_ref,
              "wall_raw_s_passes": walls,
              "checks": {"attempted": attempted, "failed": failed,
                         "failures": sorted({n for n, ok in checks if not ok})}}
    if args.trace:
        traced_ref = ref(traced)
        overhead = statistics.median(traced_ref) - statistics.median(walls_ref)
        units = dict(layers.per_layer_names())
        rows = []
        for (sp, ct), (a, b, _) in zip(layer_rows, traced):
            f = speed.scale(a, b)
            values = layers.per_layer_values(sp, ct, overhead)
            rows.append({k: v * f if units[k] == "s" and k != "trace.overhead_s"
                         else v for k, v in values.items()})
        per_layer = {k: statistics.median_low(v) for k, v in columns(rows).items()}
        for name, value in per_layer.items():
            print(f"  {name:<52} {value!r:>24} {units[name]}")
        record["per_layer"] = per_layer
        record["traced_wall_s_passes"] = traced_ref
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
        with open(spans_path, "w") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(all_spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run_id}) + "\n")
        declared = per_layer
    else:
        declared, units = e2e, E2E_UNITS
    record_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print("meta " + json.dumps(meta, sort_keys=True))

    wanted = bench_metric_names(bool(args.trace))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": declared[name], "unit": units[name]}
                        for name in wanted}}
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def bench_metric_names(traced: bool) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few small inputs, for the self-tests")
    args = ap.parse_args(argv)
    try:
        require_sources()
        return run(args)
    except SetupError as exc:
        print(f"udbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
