"""No floating point in the package: every count and coefficient is exact."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "hdpart").glob("*.py"))
FLOAT_MATH = {"ceil", "floor", "sqrt", "log", "log2", "log10", "exp", "pow"}


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names if a.name in FLOAT_MATH]
            found += [f"{where}: from math import {name}" for name in names]
    return found


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_source_has_no_floating_point(path):
    assert _float_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_float_detector_catches_each_form():
    source = "from math import floor\nx = 0.5\ny = float(3)\nz = math.ceil(7 / 2)\n"
    assert len(_float_uses(ast.parse(source))) == 4
