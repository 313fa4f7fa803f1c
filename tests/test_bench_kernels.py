"""`benchmarks/bench_kernels.py` must keep running against the library."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_kernels_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "bench_kernels.py"),
         "--n", "50", "--cut-n", "8", "--repeat", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert "kill-record forms on the certified box" in r.stdout
    for row in ("min_degree_core: the same G(200, 0.9)",
                "verify_cover: the same G(200, 0.9) and its cover",
                "color_cover: rainbow G(60, 0.9)"):
        assert row in r.stdout
    assert "contract met" in r.stdout
