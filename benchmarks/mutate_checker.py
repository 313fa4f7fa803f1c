#!/usr/bin/env python3
"""Mutation test of the certificate checker.

Makes one-at-a-time mutants of `src/udnorm/checker.py` from its syntax tree:
a comparison operator swapped for its neighbour (`<` and `<=`, `>` and `>=`,
`==` and `!=`, `is` and `is not`, `in` and `not in`), `and` swapped with
`or`, a `not` dropped, or an integer constant raised by one. The edit is made
in the source text at the node's position, so every other line, comment and
line number stays as it is.

Each mutant is written into a temporary copy of `src/` and `tests/`, and the
checker's tests (`tests/test_checker.py` and the acceptance criteria,
`tests/test_acceptance.py`) run against that copy in a subprocess with a
fixed hypothesis seed; the tree itself is never edited. A mutant is killed
when the tests fail. A survivor is either listed in EQUIVALENT, with the
reason it cannot change a verdict, or a gap in the tests.

Prints one line per mutant and a summary, and exits 1 if a survivor is not
in EQUIVALENT. A full run takes several minutes.

Usage: python benchmarks/mutate_checker.py
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("src", "udnorm", "checker.py")
TESTS = ("tests/test_checker.py", "tests/test_acceptance.py")
TIMEOUT_S = 600

# the mutated line (stripped) ↦ why the mutant cannot change a verdict
EQUIVALENT = {
    "low, high = (box_lo[k], box_hi[k]) if c >= 0 else (box_hi[k], box_lo[k])":
        "c = 0 adds 0 to lo and hi whichever bound it takes",
}

# operator ↦ (the regular expression of its token, the token it becomes)
_SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Is: (r"\bis\b", "is not"), ast.IsNot: (r"\bis\s+not\b", "is"),
    ast.In: (r"\bin\b", "not in"), ast.NotIn: (r"\bnot\s+in\b", "in"),
}


@dataclass(frozen=True)
class Mutant:
    line: int
    before: str  # the source line, stripped
    after: str   # the same line in the mutant, stripped
    source: str  # the whole mutated module

    def __str__(self):
        return f"line {self.line}: {self.before}  →  {self.after}"


def _line_starts(source: str) -> list[int]:
    """The offset of the first character of each line."""
    starts, pos = [], 0
    for line in source.splitlines(keepends=True):
        starts.append(pos)
        pos += len(line)
    return starts


def _edits(tree: ast.AST, at) -> list[tuple[int, int, str, str]]:
    """Every mutation site as (start, end, pattern, replacement): the text
    between the two offsets has `pattern`'s first match replaced."""
    edits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            prev = node.left
            for op, right in zip(node.ops, node.comparators):
                edits.append((at(prev, "end"), at(right, "start"),
                              *_SWAPS[type(op)]))
                prev = right
        elif isinstance(node, ast.BoolOp):
            # the first operator token of the chain
            word, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            edits.append((at(node.values[0], "end"), at(node.values[1], "start"),
                          rf"\b{word}\b", new))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            edits.append((at(node, "start"), at(node.operand, "start"),
                          r"\bnot\b\s*", ""))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            edits.append((at(node, "start"), at(node, "end"), r"\d+",
                          str(node.value + 1)))
    return sorted(edits)


def mutants(source: str) -> list[Mutant]:
    """Every one-edit mutant of the module, in source order."""
    starts = _line_starts(source)

    def at(node, end_or_start):
        if end_or_start == "end":
            return starts[node.end_lineno - 1] + node.end_col_offset
        return starts[node.lineno - 1] + node.col_offset

    original = ast.dump(ast.parse(source))
    found = []
    for start, end, pattern, new in _edits(ast.parse(source), at):
        span = source[start:end]
        match = re.search(pattern, span)
        if match is None:
            raise ValueError(f"no {pattern!r} in {span!r}")
        edit_at = start + match.start()
        text = source[:edit_at] + new + source[start + match.end():]
        if ast.dump(ast.parse(text)) == original:
            raise ValueError(f"edit at offset {edit_at} changes nothing")
        line = source.count("\n", 0, edit_at) + 1
        found.append(Mutant(line, source.splitlines()[line - 1].strip(),
                            text.splitlines()[line - 1].strip(), text))
    return found


def run_mutant(mutant: Mutant, workdir: str, tests=TESTS) -> str:
    """'killed', 'timeout' or 'survived': the tests against the mutant,
    written into the copy of the tree at workdir."""
    with open(os.path.join(workdir, TARGET), "w", encoding="utf-8") as f:
        f.write(mutant.source)
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        r = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        # failing examples saved by one mutant must not steer the next
        shutil.rmtree(os.path.join(workdir, ".hypothesis"), ignore_errors=True)
    return "survived" if r.returncode == 0 else "killed"


def run(select=None, tests=TESTS) -> dict[str, list[Mutant]]:
    """Run every mutant, or those whose mutated line is in `select`, on a
    temporary copy of the tree; outcome ↦ mutants."""
    with open(os.path.join(ROOT, TARGET), encoding="utf-8") as f:
        source = f.read()
    chosen = [mu for mu in mutants(source) if select is None or mu.after in select]
    results: dict[str, list[Mutant]] = {}
    workdir = tempfile.mkdtemp(prefix="mutate-checker-")
    try:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(workdir, name),
                            ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), workdir)
        for i, mu in enumerate(chosen, 1):
            outcome = run_mutant(mu, workdir, tests)
            if outcome == "survived" and mu.after in EQUIVALENT:
                outcome = "equivalent"
            results.setdefault(outcome, []).append(mu)
            print(f"[{i}/{len(chosen)}] {outcome:10} {mu}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def main() -> int:
    results = run()
    counts = ", ".join(f"{len(v)} {k}" for k, v in sorted(results.items()))
    print(f"{sum(map(len, results.values()))} mutants: {counts}")
    for mu in results.get("equivalent", ()):
        print(f"equivalent: {mu}\n  {EQUIVALENT[mu.after]}")
    for mu in results.get("survived", ()):
        print(f"SURVIVED: {mu}")
    return 1 if results.get("survived") else 0


if __name__ == "__main__":
    sys.exit(main())
