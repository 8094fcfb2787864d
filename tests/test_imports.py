"""Every imported name is read by the module that imports it.

A static check over the package, the tests and the scripts: each name an
``import`` binds must be read somewhere in its module, in code, in a string
annotation or in ``__all__``. An import kept on purpose (a re-export, or an
import made for its side effect) says so with ``# noqa: F401`` on one of its
lines. ``perfbench/`` is left out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")
)


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"
    ]


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, in string annotations too, plus
    the entries of ``__all__``."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read |= _read_names(ast.parse(sub.value, mode="eval"))
    return read


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Import | ast.ImportFrom):
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        unused += [(node.lineno, n) for n in _bound_names(node) if n not in read]
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


class TestChecker:
    def test_flags_unread_names_only(self):
        src = (
            "from __future__ import annotations\n"
            "import os, sys\n"
            "import os.path as osp\n"
            "from typing import (\n    Callable,\n    Sequence,\n)\n"
            "def f(x: 'Callable[[], None]') -> int:\n    return sys.maxsize\n"
        )
        assert unused_imports(src) == [(2, "os"), (3, "osp"), (4, "Sequence")]

    def test_noqa_and_all_count_as_reads(self):
        src = (
            "from a import (  # noqa: F401\n    b,\n)\n"
            "import c  # noqa: F401\n"
            "from d import e\n"
            "__all__ = ['e']\n"
        )
        assert unused_imports(src) == []
