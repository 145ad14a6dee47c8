"""Validate only at the API boundary: ``Polynomial._trusted`` stays inside qpoly.

``Polynomial._trusted`` wraps a term map without checking it, so it is only
for results of ring operations whose inputs ``Polynomial.__init__`` has
already validated.  Any reference to it from another module of the package
would let unchecked input through; this guard fails on one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arithdyn"
UNCHECKED = "_trusted"


def _references(tree) -> list:
    """Line numbers of every name or attribute that refers to the unchecked constructor."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == UNCHECKED)
        or (isinstance(node, ast.Name) and node.id == UNCHECKED)
        or (isinstance(node, ast.alias) and UNCHECKED in (node.name, node.asname))
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "qpoly.py"), ids=lambda p: p.name
)
def test_unchecked_constructor_only_in_qpoly(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _references(tree) == [], (
        f"{path.name} refers to Polynomial.{UNCHECKED}; outside qpoly.py build "
        "polynomials with Polynomial(...), which validates its terms"
    )


def test_qpoly_defines_the_unchecked_constructor():
    tree = ast.parse((SRC / "qpoly.py").read_text(encoding="utf-8"))
    assert _references(tree), "the guard's name no longer matches qpoly's constructor"


def test_guard_flags_a_planted_reference():
    planted = ast.parse(
        "from .qpoly import Polynomial\n"
        "def lift(terms):\n"
        "    return Polynomial._trusted(2, terms)\n"
    )
    clean = ast.parse(
        "from .qpoly import Polynomial\n"
        "def lift(terms):\n"
        "    return Polynomial(2, terms)\n"
    )
    assert _references(planted) == [3]
    assert _references(clean) == []
