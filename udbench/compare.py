#!/usr/bin/env python3
"""Compare two sets of udbench run records, refusing unlike runs.

    python3 udbench/compare.py --base .bench_out/a.json ... --new .bench_out/b.json ...

Each file is a record run.py wrote. Every record on both sides must carry the
same fingerprint: workload, size, kernel backend, whether the compiled
kernels import, whether the udg input fits the int64 bound, the UDNORM_*
environment, the exhaustive cap, Python version and core count. When they
differ, or any run failed an output check, the comparison is flagged and
no result is printed (exit 3).
Otherwise it prints, per end-to-end metric, the median of each side and
new/base.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def fingerprint_diffs(records) -> list[str]:
    first = records[0]["meta"]["fingerprint"]
    diffs = []
    for rec in records[1:]:
        fp = rec["meta"]["fingerprint"]
        for key in sorted(set(first) | set(fp)):
            if first.get(key) != fp.get(key):
                diffs.append(f"{key}: {first.get(key)!r} vs {fp.get(key)!r}")
    return sorted(set(diffs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    diffs = fingerprint_diffs(base + new)
    diffs += [f"{rec['meta']['fingerprint']['workload']} seed {rec['meta']['seed']}: "
              f"{rec['checks']['failed']} failed output checks"
              for rec in base + new if rec["checks"]["failed"]]
    if diffs:
        print("FLAGGED: runs are not comparable; no result reported")
        for d in diffs:
            print(f"  {d}")
        return 3
    print(f"{'metric':<16} {'base':>14} {'new':>14} {'new/base':>9}")
    for name in base[0]["end_to_end"]:
        b = statistics.median(r["end_to_end"][name] for r in base)
        n = statistics.median(r["end_to_end"][name] for r in new)
        ratio = f"{n / b:9.4f}" if b else f"{'-':>9}"
        print(f"{name:<16} {b:14.6g} {n:14.6g} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
