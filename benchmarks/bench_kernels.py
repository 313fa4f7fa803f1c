#!/usr/bin/env python3
"""Time the two hot kernels.

The O(n²) unit-pair scan over integer-scaled coordinates runs on both
backends when the compiled extension is importable; both must return
identical pairs, and the speedup is reported. The exhaustive weak-cut
search has one (pure-Python) implementation and is timed alone.

Usage: python benchmarks/bench_kernels.py [--n 1000] [--cut-n 16] [--repeat 3]
"""

import argparse
import random
import time
from fractions import Fraction

from udnorm import _kern_py, kernels
from udnorm.colored import weak_delta_table
from udnorm.norms import square
from udnorm.pointsets import flat_side_quadratic

try:
    from udnorm import _kern_cy
except ImportError:
    _kern_cy = None


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

    print(f"compiled extension available: {_kern_cy is not None}")
    print("(the dispatch layer only uses it when the scaled integers "
          "provably fit in int64; otherwise the exact big-int path runs)")

    B = square()
    P = flat_side_quadratic(args.n)
    constraints = list(zip(B.normals, B.offsets))
    vals, bounds, max_dv = kernels.scaled_unit_pair_input(list(P), constraints)
    n = len(vals)
    print(f"\nunit-pair scan: n = {n} points, {n * (n - 1) // 2} pairs, "
          f"{len(bounds)} constraints, max scaled value {max_dv}")
    t_py, r_py = bench(lambda: _kern_py.unit_pairs(vals, bounds), args.repeat)
    print(f"  python : {t_py * 1e3:10.1f} ms   ({len(r_py)} pairs)")
    if _kern_cy is not None and max_dv < 2**62:
        t_cy, r_cy = bench(lambda: _kern_cy.unit_pairs(vals, bounds), args.repeat)
        assert r_cy == r_py, "backends disagree"
        print(f"  cython : {t_cy * 1e3:10.1f} ms   (speedup {t_py / t_cy:.1f}x)")

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
    t_py, r_py = bench(lambda: kernels.min_weak_cut(adj, thr), args.repeat)
    print(f"  python : {t_py * 1e3:10.1f} ms   (result {r_py})")


if __name__ == "__main__":
    main()
