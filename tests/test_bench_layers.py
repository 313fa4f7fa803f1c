"""A traced benchmark run (`udbench/run.py --trace 1`) wraps every function
named in `udbench/layers.py`; each one must still exist in udnorm."""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "udbench"))

import layers  # noqa: E402


@pytest.mark.parametrize("layer", layers.LAYERS, ids=lambda l: l.name)
def test_layer_resolves(layer):
    owner = importlib.import_module(f"udnorm.{layer.module}")
    for part in layer.attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
