"""Every module of the package and of the tests reads each name it imports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "hdpart").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unread_imports(source: str) -> list[str]:
    """The names bound by an import statement that no expression of the module reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted(bound - read)


def test_the_scan_finds_an_unread_import():
    source = "import os, sys\nfrom math import pi as tau, e\nimport os.path\nprint(sys.argv, e)\n"
    assert _unread_imports(source) == ["os", "tau"]
    assert _unread_imports("from __future__ import annotations\n") == []
    assert len(MODULES) > 20


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []
