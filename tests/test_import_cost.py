"""Importing arithdyn builds no dataclass and loads neither ``dataclasses`` nor ``typing``.

Every fresh ``arithdyn`` process pays for its imports before any math runs.
A ``@dataclass`` class is built at import by generating and ``exec``-ing its
methods, a tenth of a millisecond to a millisecond per class, and
``dataclasses`` itself pulls in ``inspect`` and ``typing``.  The package's
records are plain classes instead (``qpoly.Record`` for the read-only ones),
and its annotations use ``collections.abc`` and builtin generics.  This
guard fails on a ``@dataclass`` or on an import of either module under
``src/arithdyn``, and checks in a fresh interpreter without ``site`` that
importing the CLI leaves ``dataclasses``, ``inspect`` and ``typing`` out of
``sys.modules``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BANNED_MODULES = ("dataclasses", "typing")


def _dataclass_or_banned_import(tree) -> list:
    """Line numbers of every ``@dataclass`` decorator and every import of a
    banned module (or a submodule of one)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name == "dataclass":
                    lines.append(deco.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] in BANNED_MODULES for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] in BANNED_MODULES:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted((SRC / "arithdyn").glob("*.py")), ids=lambda p: p.name)
def test_no_dataclass_and_no_typing_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _dataclass_or_banned_import(tree) == [], (
        f"{path.name} uses @dataclass or imports dataclasses/typing; write a plain "
        "class (qpoly.Record for a read-only one) and annotate with collections.abc"
    )


def test_guard_flags_planted_dataclasses_and_imports():
    planted = ast.parse(
        "import typing\n"
        "from dataclasses import dataclass\n"
        "import dataclasses as dc\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "@dc.dataclass(frozen=True)\n"
        "class B:\n"
        "    y: int\n"
        "from typing import Sequence\n"
    )
    clean = ast.parse(
        "from collections.abc import Sequence\n"
        "from .qpoly import Record\n"
        "class A(Record):\n"
        "    __slots__ = ()\n"
    )
    assert _dataclass_or_banned_import(planted) == [1, 2, 3, 4, 7, 10]
    assert _dataclass_or_banned_import(clean) == []


def test_cli_import_leaves_dataclasses_inspect_and_typing_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = (
        "import sys, arithdyn.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    # -S skips site, which may import typing itself before arithdyn runs
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
