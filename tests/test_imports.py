"""Every imported name in the package and the tests is used, and so is
every private name the package defines, and every public one it exports.

AST scans: a name bound by an import statement must occur as a name
somewhere else in the module.  Names re-exported through ``__all__`` and
``from __future__`` imports are exempt.  A private (``_``-prefixed)
module-level function, class or constant of the package must be read
somewhere in the package or the tests outside its own definition.  A name
in the package's ``__all__`` must be read by a consumer: the package
outside ``__init__.py``, perfbench/ or tools/; the closed forms of
``freecase`` are test oracles and may be read by the tests alone.  No
linter runs with the suite, so this is what keeps orphaned imports,
orphaned helpers and an unread public surface out.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/triband/*.py"))
MODULES = PACKAGE + sorted(ROOT.glob("tests/*.py"))


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


def _read_names(tree: ast.AST):
    """Every name the tree reads: loaded names, attributes, imported names
    and string constants (monkeypatch.setattr takes the name as a string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level private functions, classes and constants, by name."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        defined.update((name, node) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def dead_private_names(package: dict[str, str], others: list[str]) -> list[str]:
    """'module:name' for each private definition of the package modules
    (name -> source) that no source reads outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    reads = Counter(n for tree in trees.values() for n in _read_names(tree))
    reads.update(n for source in others for n in _read_names(ast.parse(source)))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree).items()
        if reads[name] == sum(n == name for n in _read_names(node))
    ]


def test_scanner_flags_a_dead_private_name():
    package = {
        "a": "_LIMIT = 3\n_OK = 1\ndef _loop(n):\n    return _loop(n - 1)\n"
             "class _Used:\n    pass\ndef api():\n    return _Used()\n",
        "b": "from .a import _OK\n",
    }
    others = ["def test(monkeypatch):\n    monkeypatch.setattr(a, '_LIMIT', 4)\n"]
    assert dead_private_names(package, others) == ["a:_loop"]


def test_no_dead_private_names():
    package = {path.stem: path.read_text() for path in PACKAGE}
    tests = [path.read_text() for path in sorted(ROOT.glob("tests/*.py"))]
    assert dead_private_names(package, tests) == []


def _names_and_attributes(source: str) -> set[str]:
    """Every ast.Name and attribute of the source: what it calls or reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def unread_exports(exported: set[str], consumers: list[str], oracles: set[str],
                   tests: list[str]) -> list[str]:
    """The exported names that no consumer source reads; oracles may be read by tests."""
    read = set().union(*map(_names_and_attributes, consumers))
    read_by_tests = set().union(*map(_names_and_attributes, tests))
    return sorted(name for name in exported
                  if name not in read and not (name in oracles and name in read_by_tests))


def test_scanner_flags_an_unread_export():
    consumers = ["from .a import used\nused(1)\n", "import a\na.attr\n"]
    tests = ["oracle(); stray()\n"]
    exported = {"used", "attr", "oracle", "stray", "dropped"}
    assert unread_exports(exported, consumers, {"oracle"}, tests) == ["dropped", "stray"]


def test_every_export_has_a_consumer():
    init = ROOT / "src" / "triband" / "__init__.py"
    consumers = [path.read_text() for path in PACKAGE if path != init]
    consumers += [path.read_text() for path in sorted(ROOT.glob("perfbench/*.py"))]
    consumers += [path.read_text() for path in sorted(ROOT.glob("tools/*.py"))]
    freecase = ast.parse((ROOT / "src" / "triband" / "freecase.py").read_text())
    oracles = {node.name for node in freecase.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    tests = [path.read_text() for path in sorted(ROOT.glob("tests/*.py"))]
    assert unread_exports(_exported(ast.parse(init.read_text())), consumers, oracles,
                          tests) == []
