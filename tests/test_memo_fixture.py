"""Memo hygiene: the `clear_memos` fixture empties every exact-artifact memo.

A memo the fixture misses lets a negative control's perturbed artifact
reach a later test.  Every ``lru_cache(maxsize=None)`` function and every
module-level ``*_MEMO`` dict of a library module must be cleared by an
entry of ``conftest._MEMOS``, apart from the pure index caches below,
whose values depend on their arguments alone.
"""

import ast
import importlib
from pathlib import Path

import pytest

import anomform
from conftest import _MEMOS

MODULES = sorted(Path(anomform.__file__).parent.glob("*.py"))

# monomial weights and monomial codes: no artifact, nothing to perturb
INDEX_CACHES = {"monomial_weight", "_weight_code", "_code_mon"}


def _is_unbounded_lru_cache(decorator) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    func = decorator.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "lru_cache" and any(
        kw.arg == "maxsize" and isinstance(kw.value, ast.Constant) and kw.value.value is None
        for kw in decorator.keywords
    )


def memo_names(source: str) -> list:
    """Names of the unbounded lru_cache functions and module-level *_MEMO dicts."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            if any(_is_unbounded_lru_cache(d) for d in node.decorator_list):
                names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_MEMO")]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_fixture_clears_every_memo(path):
    module = importlib.import_module(f"anomform.{path.stem}")
    # an lru_cache's cache_clear is bound to the cached function, a dict's clear to the dict
    cleared = [memo.cache_clear.__self__ for memo in _MEMOS]
    missing = [
        name
        for name in memo_names(path.read_text())
        if name not in INDEX_CACHES and not any(getattr(module, name) is c for c in cleared)
    ]
    assert missing == []


def test_memo_names_are_found():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "_A_MEMO = {}\n"
        "_B_MEMO: dict = {}\n"
        "_MEMO_KEYS = ()\n"
        "@lru_cache(maxsize=None)\n"
        "def cached(x):\n    return x\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def also_cached(x):\n    return x\n"
        "@lru_cache(maxsize=16)\n"
        "def bounded(x):\n    return x\n"
    )
    assert memo_names(source) == ["_A_MEMO", "_B_MEMO", "cached", "also_cached"]
