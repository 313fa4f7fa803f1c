"""`benchmarks/mutate_checker.py` must keep finding and running checker
mutants; the full run is not tier-1, since it takes several minutes."""

import hashlib
import importlib.util
import os
import sys
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "mutate_checker", os.path.join(ROOT, "benchmarks", "mutate_checker.py"))
harness = sys.modules["mutate_checker"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)

# three fixed sites, by their mutated line, and the outcome against the
# boundary tests alone. The third survives them (the full run kills it), so
# an allow-list entry made for this test classifies it as equivalent
INADMISSIBLE_TOP_CLASS = ("elif len(set(classes)) != arity or "
                          "not all(0 <= k <= m for k in classes):")
SITES = {
    "if delta < 0:": "killed",
    "if not a <= b:": "killed",
    INADMISSIBLE_TOP_CLASS: "equivalent",
}


def _checker_digest():
    with open(os.path.join(ROOT, harness.TARGET), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_allow_list_names_current_mutants():
    with open(os.path.join(ROOT, harness.TARGET), encoding="utf-8") as f:
        lines = {mu.after for mu in harness.mutants(f.read())}
    assert len(harness.EQUIVALENT) <= 3
    assert set(harness.EQUIVALENT) <= lines
    assert set(SITES) <= lines


def test_three_sites(capsys):
    before = _checker_digest()
    allowed = {INADMISSIBLE_TOP_CLASS: "no boundary test has class m"}
    with mock.patch.dict(harness.EQUIVALENT, allowed):
        results = harness.run(select=set(SITES),
                              tests=("tests/test_checker.py::TestBoundaries",))
    assert {mu.after: outcome for outcome, mus in results.items()
            for mu in mus} == SITES
    assert len(capsys.readouterr().out.splitlines()) == 3
    # the mutants were written into a copy, never into the tree
    assert _checker_digest() == before
