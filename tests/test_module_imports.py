"""Every import of the package sits at the top level of its module.

An ``import`` inside a function hides a dependency from the module header
and usually works round an import cycle (two modules that import each
other, one of them late).  This guard fails on any ``import`` or ``from ...
import`` statement nested in a function or method under ``src/arithdyn``,
so a cycle has to be broken by moving code, not by deferring the import.

No test suite imports another (a ``test_*`` module): a collection error in
one would then drop the other as well.  What suites share lives in modules
that pytest does not collect, such as ``corpus.py`` and ``oracle.py``.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "arithdyn"
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


def test_no_suite_imports_another_suite():
    imported = {}
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module]
        suites = sorted(name for name in names if name.startswith("test_"))
        if suites:
            imported[path.name] = suites
    assert imported == {}, "move what the suites share into a module pytest does not collect"
