"""Every import of the package sits at the top level of its module.

An ``import`` inside a function hides a dependency from the module header
and usually works round an import cycle (two modules that import each
other, one of them late).  This guard fails on any ``import`` or ``from ...
import`` statement nested in a function or method under ``src/arithdyn``,
so a cycle has to be broken by moving code, not by deferring the import.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arithdyn"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imports_in_functions(tree) -> list:
    """Line numbers of every import statement nested in a function."""
    return sorted(
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, FUNCTIONS)
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _imports_in_functions(tree) == [], (
        f"{path.name} imports inside a function; import at the top of the module "
        "and break any cycle by moving the shared code"
    )


def test_guard_flags_a_planted_import():
    planted = ast.parse(
        "import math\n"
        "def f(q):\n"
        "    from .padic import next_prime\n"
        "    return next_prime(q)\n"
        "class C:\n"
        "    def g(self):\n"
        "        import fractions\n"
        "        return fractions\n"
    )
    clean = ast.parse(
        "import math\n"
        "from .padic import next_prime\n"
        "def f(q):\n"
        "    return next_prime(q)\n"
    )
    assert _imports_in_functions(planted) == [3, 7]
    assert _imports_in_functions(clean) == []
