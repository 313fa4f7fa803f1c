"""Which udnorm functions the benchmark wraps, and the metrics derived from
their spans.

`STAGES` are the few entry points the end-to-end stage times come from;
they are wrapped in every run (a handful of calls per pass). `LAYERS` is
the full per-layer set of a traced run.
"""

from __future__ import annotations

import os

from spans import (END, NAME, START, Layer, layer_totals, nearest_ancestor,
                   outermost_seconds, self_times)


def _shrinks(counters, args, kwargs, result):
    box = args[2] if len(args) > 2 else kwargs["box"]
    if result[0] is not box:
        counters["certify.kill_assignment.shrinks"] += 1


def _hits(counters, args, kwargs, result):
    counters["certify.sample_verify.hits"] += len(result.hits)


def _rejections(counters, args, kwargs, result):
    if not result.ok:
        counters["checker.check_certificate.rejections"] += 1


def _bytes_written(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["jsonio.write_json.bytes"] += os.path.getsize(path)


def _cuts(counters, args, kwargs, result):
    w = len(args[0] if args else kwargs["adj_masks"])
    if w >= 2:
        counters["kernels.min_weak_cut.cuts"] += (1 << (w - 1)) - 1


def _edges(counters, args, kwargs, result):
    counters["udg.build_udg.edges"] += result.edge_count


def _success(name):
    def hook(counters, args, kwargs, result):
        counters[name] += 1
    return hook


STAGES = [
    Layer("certify", "certify_box"),
    Layer("certify", "witness_norm"),
    Layer("certify", "sample_verify", _hits),
    Layer("checker", "check_certificate", _rejections),
    Layer("udg", "build_udg", _edges),
    Layer("colored", "color_cover", _success("colored.color_cover.successes")),
    Layer("colored", "robust_core"),
    Layer("dependence", "extract_dependences",
          _success("dependence.extract_dependences.successes")),
    Layer("dependence", "verify_on_realization"),
]

LAYERS = STAGES + [
    Layer("ratlin", "left_null_basis"),
    Layer("ratlin", "solve"),
    Layer("certify", "build_system"),
    Layer("certify", "kill_assignment", _shrinks),
    Layer("certify", "AffineForm.eval", count_only=True,
          name="certify.AffineForm.eval.calls"),
    Layer("certify", "AffineForm.interval_on", count_only=True,
          name="certify.AffineForm.interval_on.calls"),
    Layer("checker", "_check_kill", count_only=True,
          name="checker.check_certificate.kills_checked"),
    Layer("jsonio", "certificate_to_json"),
    Layer("jsonio", "certificate_from_json"),
    Layer("jsonio", "write_json", _bytes_written),
    Layer("jsonio", "read_json"),
    Layer("jsonio", "render_svg"),
    Layer("norms", "choose_delta0"),
    Layer("norms", "offset_polygon"),
    Layer("norms", "hausdorff_to_oracle"),
    Layer("kernels", "unit_pair_indices"),
    Layer("kernels", "min_weak_cut", _cuts),
    Layer("kernels", "cut_max_degree"),
    Layer("colored", "find_weak_cut"),
    Layer("colored", "_heuristic_weak_cut", count_only=True,
          name="colored.find_weak_cut.heuristic_calls"),
    Layer("colored", "verify_cover"),
    Layer("cli", "cmd_pipeline"),
    Layer("cli", "cmd_check"),
    Layer("pointsets", "flat_side_quadratic"),
    Layer("pointsets", "generic_unit_vectors"),
    Layer("pointsets", "subset_sum_pointset"),
    Layer("pointsets", "two_row_pointset"),
]

# left_null_basis time is split by the stage that asked for it
NULL_BASIS_PARENTS = ("certify.certify_box", "certify.sample_verify")

# graph_s: the front end, not counting the benchmark's own output checks
GRAPH_STAGE = ("udg.build_udg", "colored.color_cover", "colored.robust_core",
               "dependence.extract_dependences")
GRAPH_CHECKS = ("dependence.verify_on_realization",)


def stage_seconds(spans) -> dict[str, float]:
    return {
        "certify_s": outermost_seconds(
            spans, ("certify.certify_box", "certify.witness_norm")),
        "check_s": outermost_seconds(spans, ("checker.check_certificate",)),
        "verify_s": outermost_seconds(spans, ("certify.sample_verify",)),
        "graph_s": outermost_seconds(spans, GRAPH_STAGE, GRAPH_CHECKS),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        if layer.count_only:
            out.append((layer.name, "count"))
            continue
        for suffix, unit in (("calls", "count"), ("s", "s"), ("self_s", "s")):
            out.append((f"{layer.name}.{suffix}", unit))
    for parent in NULL_BASIS_PARENTS:
        tag = parent.split(".")[-1]
        for suffix, unit in (("calls", "count"), ("s", "s"), ("self_s", "s")):
            out.append((f"ratlin.left_null_basis.under_{tag}.{suffix}", unit))
    out += [
        ("certify.kill_assignment.shrinks", "count"),
        ("certify.sample_verify.hits", "count"),
        ("certify.sample_verify.hits_per_solve", "ratio"),
        ("checker.check_certificate.rejections", "count"),
        ("jsonio.write_json.bytes", "bytes"),
        ("kernels.min_weak_cut.cuts", "count"),
        ("udg.build_udg.edges", "count"),
        ("colored.color_cover.success_frac", "ratio"),
        ("colored.find_weak_cut.exhaustive_calls", "count"),
        ("dependence.extract_dependences.success_frac", "ratio"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


def per_layer_values(spans, counters, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (every name, zeros included)."""
    selfs = self_times(spans)
    totals = layer_totals(spans, selfs)
    values = {}
    for layer in LAYERS:
        if layer.count_only:
            values[layer.name] = counters.get(layer.name, 0)
            continue
        row = totals.get(layer.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for suffix in ("calls", "s", "self_s"):
            values[f"{layer.name}.{suffix}"] = row[suffix]
    under = {p: [] for p in NULL_BASIS_PARENTS}
    solves_in_verify = 0
    for i, sp in enumerate(spans):
        if sp[NAME] == "ratlin.left_null_basis":
            parent = nearest_ancestor(spans, i, NULL_BASIS_PARENTS)
            if parent is not None:
                under[parent].append(i)
        elif sp[NAME] == "ratlin.solve" and nearest_ancestor(
                spans, i, ("certify.sample_verify",)) is not None:
            solves_in_verify += 1
    for parent, idx in under.items():
        tag = parent.split(".")[-1]
        values[f"ratlin.left_null_basis.under_{tag}.calls"] = len(idx)
        values[f"ratlin.left_null_basis.under_{tag}.s"] = sum(
            spans[i][END] - spans[i][START] for i in idx)
        values[f"ratlin.left_null_basis.under_{tag}.self_s"] = sum(
            selfs[i] for i in idx)
    hits = counters.get("certify.sample_verify.hits", 0)
    heuristic = counters.get("colored.find_weak_cut.heuristic_calls", 0)
    values.update({
        "certify.kill_assignment.shrinks":
            counters.get("certify.kill_assignment.shrinks", 0),
        "certify.sample_verify.hits": hits,
        "certify.sample_verify.hits_per_solve": _ratio(hits, solves_in_verify),
        "checker.check_certificate.rejections":
            counters.get("checker.check_certificate.rejections", 0),
        "jsonio.write_json.bytes": counters.get("jsonio.write_json.bytes", 0),
        "kernels.min_weak_cut.cuts": counters.get("kernels.min_weak_cut.cuts", 0),
        "udg.build_udg.edges": counters.get("udg.build_udg.edges", 0),
        "colored.color_cover.success_frac": _ratio(
            counters.get("colored.color_cover.successes", 0),
            values["colored.color_cover.calls"]),
        "colored.find_weak_cut.exhaustive_calls":
            values["colored.find_weak_cut.calls"] - heuristic,
        "dependence.extract_dependences.success_frac": _ratio(
            counters.get("dependence.extract_dependences.successes", 0),
            values["dependence.extract_dependences.calls"]),
        "trace.spans": len(spans),
        "trace.overhead_s": overhead_s,
    })
    return values
