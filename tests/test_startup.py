"""What importing the package and running one command loads.

The CLI's set-up (``import triband.cli`` and one coefficient file parsed)
loads four modules, ``--version`` and ``-h`` load neither the coefficient
parser nor numpy, and each command imports its own modules when it runs,
so a top-level import that pulls a command's modules into the set-up, or
one command's into another's, fails here.  The package's public names
resolve on first access (PEP 562) to the objects their home modules define.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triband

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP = {"triband", "triband.cli", "triband.coeffs", "triband.util"}
CORE = {"triband.monodromy", "triband._linalg", "triband._rootfind"}
COMMANDS = {
    "scan": (["--interval", "-10,10", "--points", "5"],
             CORE | {"triband.bands", "triband.multipliers", "triband.discriminant"}),
    "eigs": (["--k", "1", "--n-range", "-1..1"], CORE | {"triband.floquet"}),
    "sigma3": (["--points", "21"], CORE | {"triband.discriminant"}),
    # verify's suites scan no grid, so bands stays unloaded
    "verify": ([], CORE | {"triband.checks", "triband.discriminant", "triband.floquet",
                           "triband.freecase", "triband.multipliers"}),
}


def _loaded(code: str, *args: str) -> set[str]:
    """The triband modules a fresh interpreter holds after running code."""
    code += "\nimport sys\nprint(*(m for m in sys.modules if m.split('.')[0] == 'triband'))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return set(done.stdout.split())


def test_setup_loads_four_modules(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"p_const": 0.5, "q_const": 0.3, "grid_size": 64}))
    code = ("import sys, triband.cli\n"
            "from triband.coeffs import load_coefficients\n"
            "load_coefficients(sys.argv[1])\n")
    assert _loaded(code, str(path)) == SETUP


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_loads_only_its_own_modules(command):
    options, chain = COMMANDS[command]
    argv = [command, "--p-const", "0.5", "--q-const", "0.3", "--grid", "8", *options]
    code = ("import contextlib, io, sys\n"
            "from triband import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[1:]) == 0\n")
    assert _loaded(code, *argv) == SETUP | chain


@pytest.mark.parametrize("flag", ["--version", "-h"])
def test_version_and_help_load_no_numpy(flag):
    """--version and -h exit from the parser, before any coefficient is read."""
    code = ("import contextlib, io, sys\n"
            "from triband import cli\n"
            "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(sys.argv[1:])\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
    assert _loaded(code, flag) == {"triband", "triband.cli", "triband.util"}


def test_from_import_loads_the_named_module():
    """A submodule still imports by name, and a public name loads its own module."""
    bands = _loaded("from triband import bands\nassert bands.__name__ == 'triband.bands'\n")
    assert bands == SETUP - {"triband.cli"} | COMMANDS["scan"][1]
    assert _loaded("from triband import load_coefficients\n") == SETUP - {"triband.cli"}


def _home_modules() -> dict[str, list[str]]:
    """Each name of __all__ -> the package modules whose top level defines it."""
    homes: dict[str, list[str]] = {name: [] for name in triband.__all__}
    for path in sorted((SRC / "triband").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name in homes:
                    homes[name].append(path.stem)
    return homes


def test_every_public_name_is_its_home_modules_object():
    homes = _home_modules()
    assert all(len(modules) == 1 for modules in homes.values()), homes
    for name, [home] in homes.items():
        defined = getattr(importlib.import_module(f"triband.{home}"), name)
        assert triband.__getattr__(name) is defined, name
        assert getattr(triband, name) is defined, name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from triband import *", namespace)
    assert set(triband.__all__) <= set(namespace)
    assert set(triband.__all__) <= set(dir(triband))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'triband' has no attribute 'no_such_name'"):
        triband.no_such_name
