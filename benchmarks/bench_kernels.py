#!/usr/bin/env python3
"""Time the two hot kernels, the exact certificate core and the polygon
geometry.

The unit-pair scan (a hash join over integer-scaled coordinates) is timed
on the flat-side quadratic set under the square norm, whose pair count
grows as n²/4; the exhaustive weak-cut search on a random graph. The exact
core is timed on what `udnorm pipeline` certifies at its defaults: each
class tuple's null vector from `build_system` + `left_null_basis` and in
closed form, and the sign test of every kill record's affine form on the
certified box against one signed-sum test per class tuple.
The front end is timed on `build_udg` over the subset-sum set of 11
generic unit vectors of a 12-gon (integer edge directions) and on
`color_cover` over a dense G(200, 0.9) with a greedy proper edge coloring
(its large robust-core sets are settled by the degree-sequence proof), and
on the same graph its first stage `min_degree_core` and its contract check
`verify_cover`; then `color_cover` over a rainbow G(60, 0.9), where the
greedy runs one round per vertex.
The geometry is timed on the built-in decagon: `choose_delta0` at the
pipeline defaults, and one `hausdorff` between the decagon and its
offset polygon at +δ₀. Each repeat builds fresh polygons, so no vertex
table is reused from an earlier repeat.

Usage: python benchmarks/bench_kernels.py [--n 1000] [--cut-n 16] [--repeat 3]
"""

import argparse
import itertools
import random
import time
from fractions import Fraction

from udnorm import kernels
from udnorm.certify import (
    _class_tuple_killed,
    _closed_form_null_vector,
    _integer_system,
    build_system,
    certify_box,
    enumerate_admissible,
)
from udnorm.cli import build_parser, pipeline_decagon
from udnorm.colored import (
    EdgeColoredGraph,
    color_cover,
    min_degree_core,
    verify_cover,
    weak_delta_table,
)
from udnorm.dependence import DependenceConfig, extract_dependences
from udnorm.norms import (
    AngleBound,
    NormOracle,
    SymmetricPolygon,
    choose_delta0,
    hausdorff,
    offset_polygon,
    square,
)
from udnorm.pointsets import (
    flat_side_quadratic,
    generic_unit_vectors,
    subset_sum_pointset,
)
from udnorm.ratlin import Vec2, left_null_basis, over_common_denominator
from udnorm.udg import build_udg


def bench(fn, repeat):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=1000,
                    help="flat-side point count for the pair scan")
    ap.add_argument("--cut-n", type=int, default=16,
                    help="vertex count for the exhaustive weak-cut search")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    B = square()
    P = flat_side_quadratic(args.n)
    constraints = list(zip(B.normals, B.offsets))
    vals, bounds, max_dv = kernels.scaled_unit_pair_input(list(P), constraints)
    n = len(vals)
    print(f"unit-pair scan: n = {n} points, {len(bounds)} constraints, "
          f"max scaled value {max_dv}")
    t, pairs = bench(lambda: kernels.unit_pairs(vals, bounds), args.repeat)
    print(f"  {t * 1e3:10.1f} ms   ({len(pairs)} pairs)")

    w = args.cut_n
    rng = random.Random(args.seed)
    adj = [0] * w
    for i in range(w):
        for j in range(i + 1, w):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    thr = weak_delta_table(w, Fraction(2))
    print(f"\nweak-cut search: {w} vertices, {(1 << (w - 1)) - 1} cuts")
    t, hit = bench(lambda: kernels.min_weak_cut(adj, thr), args.repeat)
    print(f"  {t * 1e3:10.1f} ms   (result {hit})")

    B12 = SymmetricPolygon.from_pairs([
        (Vec2.of(1, 0), 1), (Vec2.of(0, 1), 1),
        (Vec2.of(2, 1), Fraction(11, 5)), (Vec2.of(1, 2), Fraction(11, 5)),
        (Vec2.of(-1, 2), Fraction(11, 5)), (Vec2.of(-2, 1), Fraction(11, 5)),
    ])
    P12 = subset_sum_pointset(generic_unit_vectors(B12, 11))
    print(f"\nbuild_udg: {len(P12)} subset sums of 11 generic unit "
          "vectors, 12-gon")
    t, U = bench(lambda: build_udg(P12, B12), args.repeat)
    print(f"  {t * 1e3:10.1f} ms   ({U.edge_count} edges, {U.k} colors)")

    n = 200
    edges = [e for e in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < 0.9]
    used = {}
    colors = []
    for a, b in edges:  # smallest color free at both ends
        c = 1
        while (a, c) in used or (b, c) in used:
            c += 1
        used[(a, c)] = used[(b, c)] = True
        colors.append(c)
    H = EdgeColoredGraph(n, tuple(edges), tuple(colors))
    print(f"\ncolor_cover: G({n}, 0.9), {len(edges)} edges, greedy proper "
          "coloring, q = 2, C = 1/4")
    t, cov = bench(lambda: color_cover(H, 2, Fraction(1, 4)), args.repeat)
    print(f"  {t * 1e3:10.1f} ms   (|W| = {len(cov.W)}, |I| = {len(cov.I)})")
    print(f"\nmin_degree_core: the same G({n}, 0.9)")
    t, core = bench(lambda: min_degree_core(H), args.repeat)
    print(f"  {t * 1e3:10.1f} ms   ({len(core)} vertices kept)")
    print(f"\nverify_cover: the same G({n}, 0.9) and its cover")
    t, ok = bench(lambda: verify_cover(H, cov.W, cov.I, 2), args.repeat)
    print(f"  {t * 1e3:10.1f} ms   (contract {'met' if ok else 'NOT met'})")

    n = 60
    edges = [e for e in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < 0.9]
    R = EdgeColoredGraph(n, tuple(edges), tuple(range(1, len(edges) + 1)))
    print(f"\ncolor_cover: rainbow G({n}, 0.9), {len(edges)} edges, q = 2, "
          "C = 1/4")
    t, cov = bench(lambda: color_cover(R, 2, Fraction(1, 4)), args.repeat)
    print(f"  {t * 1e3:10.1f} ms   (|W| = {len(cov.W)}, |I| = {len(cov.I)})")

    # the pipeline's system and certificate at the CLI defaults
    d = build_parser().parse_args(["pipeline", "--out-dir", "."])
    G = build_udg(flat_side_quadratic(d.n), square())
    S = extract_dependences(G, DependenceConfig(
        q=d.q, C=d.C, exhaustive_cap=d.exhaustive_cap, seed=d.seed)).system
    B1 = pipeline_decagon()
    eta = AngleBound(d.eta_sin2)
    delta0 = choose_delta0(B1, NormOracle.of_polygon(B1), d.eps, eta)
    cert = certify_box(S, B1, delta0, eta)

    def fresh(P):
        return SymmetricPolygon(P.normals, P.offsets)

    print(f"\nchoose_delta0: pipeline decagon (m = {B1.m}), eps {d.eps}, "
          f"sin²η {d.eta_sin2}")
    t, _ = bench(lambda: choose_delta0(
        fresh(B1), NormOracle.of_polygon(fresh(B1)), d.eps, eta), args.repeat)
    print(f"  {t * 1e3:10.1f} ms   (δ₀ = {delta0})")
    B_out = offset_polygon(B1, (delta0,) * B1.m)
    print("\nhausdorff: pipeline decagon against its offset polygon at +δ₀")
    t, hd = bench(lambda: hausdorff(fresh(B1), fresh(B_out)), args.repeat)
    print(f"  {t * 1e3:10.1f} ms   (upper bound {float(hd.hi):.6g})")

    systems = {}
    for alpha in enumerate_admissible(S.ell, B1.m):
        systems.setdefault(tuple(a % B1.m for a in alpha),
                           build_system(S, B1, alpha))
    print(f"\nleft null basis: {len(systems)} class-tuple matrices "
          f"({S.ell * 2 + 1}×{S.ell * 2}, pipeline decagon)")
    t, _ = bench(lambda: [left_null_basis(A) for A in systems.values()],
                 args.repeat)
    print(f"  {t * 1e3:10.1f} ms")

    tuples = list(itertools.permutations(range(B1.m), 2 * S.ell + 1))
    print(f"\nnull vector per class tuple: {len(tuples)} class tuples")
    t, basis = bench(lambda: [left_null_basis(build_system(S, B1, k))[0]
                              for k in tuples], args.repeat)
    print(f"  {t * 1e3:10.1f} ms   build_system + left_null_basis")

    def closed_form():
        normals, weights, W = _integer_system(S, B1)
        return [_closed_form_null_vector(normals, weights, W, k) for k in tuples]

    t, ys = bench(closed_form, args.repeat)
    print(f"  {t * 1e3:10.1f} ms   closed form "
          f"({'same' if ys == basis else 'DIFFERENT'} vectors)")

    forms = [rec.h for rec in cert.kills]
    print(f"\nsign_on: {len(forms)} kill-record forms on the certified box")
    t, signs = bench(lambda: [h.sign_on(cert.box) for h in forms], args.repeat)
    print(f"  {t * 1e3:10.1f} ms   ({signs.count(0)} with a root in the box)")
    offsets = over_common_denominator(B1.offsets)
    table = [(k, over_common_denominator(y)[1]) for k, y in cert.null_vectors]
    print(f"class-tuple test: {len(table)} class tuples, "
          f"{len(forms) // len(table)} side choices each")
    t, killed = bench(lambda: [_class_tuple_killed(ys, k, offsets, cert.box)
                               for k, ys in table], args.repeat)
    print(f"  {t * 1e3:10.1f} ms   ({killed.count(False)} not killed)")

if __name__ == "__main__":
    main()
