"""What udbench calls in udnorm must keep working: a traced run
(`udbench/run.py --trace 1`) wraps every function named in
`udbench/layers.py`, and every run records a fingerprint that `compare.py`
requires to match between the records it compares."""

import importlib
import os
import sys
from types import SimpleNamespace

import pytest

from udnorm import colored, kernels
from udnorm.norms import square
from udnorm.pointsets import flat_side_quadratic

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "udbench"))

import layers  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("layer", layers.LAYERS, ids=lambda l: l.name)
def test_layer_resolves(layer):
    owner = importlib.import_module(f"udnorm.{layer.module}")
    for part in layer.attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_fingerprint_contract():
    assert kernels.active_backend() == "python"
    P, B = flat_side_quadratic(4), square()
    vals, bounds, max_dv = kernels.scaled_unit_pair_input(
        list(P), list(zip(B.normals, B.offsets)))
    assert (vals, bounds, max_dv) == ([[0, 0], [1, 0], [0, 4], [1, 4]],
                                      [4, 4], 4)
    workload = SimpleNamespace(name="graphs",
                               udg_input=lambda M, inputs: (P, B))
    args = SimpleNamespace(size="tiny", seed=1, seconds=1, trace=0)
    M = SimpleNamespace(kernels=kernels, colored=colored)
    fingerprint = run.metadata(M, workload, None, args)["fingerprint"]
    assert fingerprint["backend"] == "python"
    assert fingerprint["udg_input_int64_ok"] is True
