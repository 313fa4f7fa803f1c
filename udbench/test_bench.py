"""Self-tests for the benchmark.

    python3 -m pytest udbench/test_bench.py -q

Covers the span arithmetic on a synthetic tree, that wrapping restores
every attribute even when a wrapped call raises, and that every workload
at a tiny size finishes with no failed output check, traced and untraced.
"""

import contextlib
import dataclasses
import io
import json
import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
from spans import (Tracer, layer_totals, nearest_ancestor,  # noqa: E402
                   outermost_seconds, self_times)
from speed import REF_CHUNK_S, SpeedSampler  # noqa: E402


def _tree():
    #  0 root [0, 10]
    #  ├─ 1 a [1, 4]      overlaps b
    #  │   └─ 3 g [2, 3]
    #  ├─ 2 b [3, 6]
    #  └─ 4 c [8, 12]     runs past its parent's end
    #         └─ 5 c [9, 10]  same name nested in itself
    return [
        ("root", 0.0, 10.0, -1, "r"),
        ("a", 1.0, 4.0, 0, "r"),
        ("b", 3.0, 6.0, 0, "r"),
        ("g", 2.0, 3.0, 1, "r"),
        ("c", 8.0, 12.0, 0, "r"),
        ("c", 9.0, 10.0, 4, "r"),
    ]


def test_self_time_is_duration_minus_covered_child_time():
    selfs = self_times(_tree())
    # root: children cover [1, 6] ∪ [8, 10] (c clipped at 10) = 7
    assert selfs == [3.0, 2.0, 3.0, 1.0, 3.0, 1.0]


def test_layer_totals_do_not_double_count_recursion():
    totals = layer_totals(_tree())
    assert totals["c"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert totals["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert sum(t["self_s"] for t in totals.values()) == 13.0


def test_ancestors_and_outermost_seconds():
    spans = _tree()
    assert nearest_ancestor(spans, 3, ("root", "a")) == "a"
    assert nearest_ancestor(spans, 0, ("root",)) is None
    assert outermost_seconds(spans, ("a", "g")) == 3.0
    assert outermost_seconds(spans, ("g", "b"), blockers=("a",)) == 3.0


def test_speed_scale_divides_out_the_sampled_slowdown():
    speed = SpeedSampler()
    # 20 chunks at twice the reference time inside [0, 10), none after
    speed.samples = [(0.5 * i, 2 * REF_CHUNK_S) for i in range(20)]
    sampler_time = 20 * 2 * REF_CHUNK_S
    assert speed.scale(0.0, 10.0) == pytest.approx((10 - sampler_time) / 10 / 2)
    # too few samples inside: the run-wide mean is used, nothing subtracted
    assert speed.scale(20.0, 21.0) == pytest.approx(0.5)
    assert SpeedSampler().scale(0.0, 1.0) == 1.0


def test_speed_sampler_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as speed:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 2


def test_wrapping_records_parents_and_restores_after_a_failure():
    M = run.load_udnorm()
    before = {name: dict(vars(sys.modules[name]))
              for name in sys.modules if name.startswith("udnorm")}
    eval_before = M.certify.AffineForm.eval
    tracer = Tracer()
    tracer.install("udnorm", layers.LAYERS)
    try:
        assert M.certify.AffineForm.eval is not eval_before
        assert M.cli.certify_box is M.certify.certify_box
        assert M.cli.certify_box.__wrapped__ is before["udnorm.certify"]["certify_box"]
        with pytest.raises(M.colored.GraphError):
            # a one-vertex set raises; the span must still close
            M.colored.find_weak_cut(
                M.colored.EdgeColoredGraph(2, ((1, 2),), (1,)), (1,), 1)
        P = M.pointsets.flat_side_quadratic(6)
        M.udg.build_udg(P, M.norms.square())
    finally:
        tracer.restore()
    names = [sp[0] for sp in tracer.spans]
    assert names[0] == "colored.find_weak_cut"
    kernel = names.index("kernels.unit_pair_indices")
    assert tracer.spans[kernel][3] == names.index("udg.build_udg")
    assert tracer.counters["udg.build_udg.edges"] == 9
    after = {name: dict(vars(sys.modules[name])) for name in before}
    for name, attrs in before.items():
        for key, value in attrs.items():
            assert after[name][key] is value, f"{name}.{key} not restored"
    assert M.certify.AffineForm.eval is eval_before


def _run(workload, trace, seed=3, seconds=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--size", "tiny"])
    lines = out.getvalue().strip().splitlines()
    return rc, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", ["refute", "graphs"])
def test_tiny_workload_untraced(workload):
    rc, result, lines = _run(workload, 0)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert any(line.split()[:2] == ["fail_frac", "0.0"] for line in lines)
    assert set(result["metrics"]) == set(run.bench_metric_names(False))


@pytest.mark.parametrize("workload", ["pipeline", "refute", "graphs"])
def test_tiny_workload_traced(workload):
    # three seconds let the tiny refute and graphs runs make several rounds
    rc, result, lines = _run(workload, 1, seconds=3)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert any(line.split()[:2] == ["fail_frac", "0.0"] for line in lines)
    metrics = result["metrics"]
    assert set(metrics) == set(run.bench_metric_names(True))
    assert metrics["trace.spans"]["value"] > 0
    if workload == "pipeline":
        assert metrics["cli.cmd_pipeline.calls"]["value"] == 1
        assert metrics["checker.check_certificate.kills_checked"]["value"] == 7680
    spans_file = os.path.join(run.OUT, f"{workload}-seed3-spans.jsonl")
    with open(spans_file) as fh:
        spans = [json.loads(line) for line in fh]
    assert set(spans[0]) == {"id", "name", "start", "end", "parent", "run"}
    for i, sp in enumerate(spans):
        assert sp["id"] == i
        if sp["parent"] >= 0:
            parent = spans[sp["parent"]]
            assert parent["run"] == sp["run"]
            assert parent["start"] <= sp["start"] <= sp["end"] <= parent["end"]


def test_a_failed_check_makes_the_run_fail(monkeypatch):
    import loads

    def broken(M, inputs):
        res = loads.Pass()
        res.check("always fails", False)
        return res

    monkeypatch.setitem(loads.WORKLOADS, "refute", dataclasses.replace(
        loads.WORKLOADS["refute"], run=broken))
    rc, result, _ = _run("refute", 0)
    assert rc == 1
    assert result["correct"] is False and result["failed"] == 1
