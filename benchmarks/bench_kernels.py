#!/usr/bin/env python3
"""Time the two hot kernels.

The unit-pair scan (a hash join over integer-scaled coordinates) is timed
on the flat-side quadratic set under the square norm, whose pair count
grows as n²/4; the exhaustive weak-cut search on a random graph.

Usage: python benchmarks/bench_kernels.py [--n 1000] [--cut-n 16] [--repeat 3]
"""

import argparse
import random
import time
from fractions import Fraction

from udnorm import kernels
from udnorm.colored import weak_delta_table
from udnorm.norms import square
from udnorm.pointsets import flat_side_quadratic


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


if __name__ == "__main__":
    main()
