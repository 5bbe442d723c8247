"""Every imported name in the package and the tests is used.

An AST scan: a name bound by an import statement must occur as a name
somewhere else in the module.  Names re-exported through ``__all__`` and
``from __future__`` imports are exempt.  No linter runs with the suite, so
this is what keeps orphaned imports out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/triband/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _exported(tree)
    return [name for name in imported if name not in used and name not in exported]


def test_scanner_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nfrom typing import Optional, Sequence\n"
        "from .x import api\n__all__ = ['api']\n"
        "def f(xs: Sequence[int]) -> int:\n    return os.sep\n"
    )
    assert unused_imports(source) == ["Optional"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
