"""Import hygiene: every name a library module imports is used there, and
start-up stays small.

The package's ``__init__`` re-exports by design and is left out of the
unused-import check.  A deletion that leaves a stale import behind fails
here.  Every CLI call is a fresh interpreter, so no library module may
import ``dataclasses`` or ``typing``: with ``inspect``, ``ast``, ``dis`` and
``tokenize`` they would load on every start.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anomform

PACKAGE = Path(anomform.__file__).parent
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in ALL_MODULES if path.name != "__init__.py"]
IMPORT_FORBIDDEN = ("dataclasses", "typing")
STARTUP_FORBIDDEN = IMPORT_FORBIDDEN + ("inspect", "ast", "dis", "tokenize")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no other node of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_library_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nsep\n"
    assert unused_imports(source) == [(2, "math"), (3, "path")]


def forbidden_imports(source: str) -> list:
    """(line, module) of every import of a forbidden top-level module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] in IMPORT_FORBIDDEN]
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.stem)
def test_library_module_imports_neither_dataclasses_nor_typing(path):
    assert forbidden_imports(path.read_text()) == [], f"{path.name} imports a forbidden module"


def test_forbidden_import_is_reported():
    source = (
        "import os, typing as t\nfrom dataclasses import dataclass\n"
        "from . import dataclasses\nimport typing_extensions\nfrom typing.io import IO\n"
    )
    assert forbidden_imports(source) == [(1, "typing"), (2, "dataclasses"), (5, "typing.io")]


def test_cli_import_in_a_fresh_interpreter_loads_no_heavy_module():
    # pytest itself has loaded these modules, so only a new interpreter can
    # tell; -S keeps site-packages start-up hooks, which may import typing,
    # out of the measurement
    code = "import sys, anomform.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "anomform.cli" in loaded
    assert sorted(loaded.intersection(STARTUP_FORBIDDEN)) == []
