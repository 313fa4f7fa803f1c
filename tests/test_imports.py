"""Import directions inside the package, read from the source with `ast`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "udnorm"


def udnorm_imports(module: str) -> set[str]:
    """The udnorm modules that src/udnorm/<module>.py imports from."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = [] if node.module is None else node.module.split(".")
            elif node.module and node.module.split(".")[0] == "udnorm":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("udnorm."))
    return found


def test_reads_relative_and_absolute_imports():
    # udg uses both `from . import x` and `from .x import y`, so the checks
    # below would see a forbidden import in either form
    assert udnorm_imports("udg") == {"kernels", "colored", "norms",
                                     "pointsets", "ratlin"}


def test_checker_imports_no_construction_code():
    # the checker re-derives everything from the serialized certificate;
    # it may share only the exact-arithmetic and polygon helpers
    assert udnorm_imports("checker") <= {"norms", "ratlin"}


def test_colored_does_not_import_udg():
    # udg builds on colored's graph type, not the other way round
    assert "udg" not in udnorm_imports("colored")


def test_front_end_layering():
    # the exact-arithmetic base sits under the polygon geometry, which sits
    # under the point generators; the graph machinery needs neither
    assert udnorm_imports("ratlin") == set()
    assert udnorm_imports("norms") <= {"ratlin"}
    assert udnorm_imports("colored") <= {"kernels", "ratlin"}
    assert udnorm_imports("pointsets") <= {"norms", "ratlin"}
