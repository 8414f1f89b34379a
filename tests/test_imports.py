"""Import hygiene: every name a library module imports is used there.

The package's ``__init__`` re-exports by design and is left out.  A
deletion that leaves a stale import behind fails here.
"""

import ast
from pathlib import Path

import pytest

import anomform

MODULES = sorted(
    path for path in Path(anomform.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


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
