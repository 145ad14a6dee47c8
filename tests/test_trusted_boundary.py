"""Validate only at the API boundary: the unchecked constructors stay inside qpoly.

``Polynomial._trusted`` wraps a term map without checking it, so it is only
for the terms the public constructor ``Polynomial(...)`` has just validated
and for results of ring operations on such polynomials.  ``qpoly._coprime_fraction`` fills a Fraction's slots
without the gcd that reduces it, so it is only for the evaluation kernel,
whose reduction proves its operands coprime, and for the CSV pair reader,
which divides each pair by its gcd.  Any reference to either from
another module of the package would let unchecked values through; this
guard fails on one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arithdyn"
UNCHECKED = ("_trusted", "_coprime_fraction")


def _references(tree, name) -> list:
    """Line numbers of every name or attribute that refers to the unchecked constructor ``name``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.alias) and name in (node.name, node.asname))
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "qpoly.py"), ids=lambda p: p.name
)
def test_unchecked_constructor_only_in_qpoly(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for name in UNCHECKED:
        assert _references(tree, name) == [], (
            f"{path.name} refers to {name}; outside qpoly.py build polynomials with "
            "Polynomial(...) and fractions with Fraction(...), which check their input"
        )


def test_qpoly_defines_the_unchecked_constructor():
    tree = ast.parse((SRC / "qpoly.py").read_text(encoding="utf-8"))
    for name in UNCHECKED:
        assert _references(tree, name), f"the guard's name {name} no longer matches qpoly"


def test_guard_flags_a_planted_reference():
    planted = ast.parse(
        "from .qpoly import Polynomial, _coprime_fraction\n"
        "def lift(terms):\n"
        "    return Polynomial._trusted(2, terms)\n"
        "def half(n):\n"
        "    return _coprime_fraction(n, 2)\n"
    )
    clean = ast.parse(
        "from fractions import Fraction\n"
        "from .qpoly import Polynomial\n"
        "def lift(terms):\n"
        "    return Polynomial(2, terms)\n"
        "def half(n):\n"
        "    return Fraction(n, 2)\n"
    )
    assert _references(planted, "_trusted") == [3]
    assert _references(planted, "_coprime_fraction") == [1, 5]
    assert all(_references(clean, name) == [] for name in UNCHECKED)
