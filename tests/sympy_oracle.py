"""The sympy side of the polynomial oracles, shared by the qpoly suites.

Importing this module skips the importing suite when sympy is missing.
"""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from arithdyn.qpoly import Polynomial

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols("x1:5")

COEFFS = st.builds(
    Fraction, st.integers(-40, 40).filter(bool), st.sampled_from([1, 2, 3, 4, 6, 9])
)


def to_sympy(p: Polynomial):
    gens = GENS[: p.dimension]
    terms = {m: sympy.Rational(c, p.den) for m, c in p.terms.items()}
    if not terms:
        return sympy.Poly(0, *gens, domain="QQ")
    return sympy.Poly.from_dict(terms, *gens, domain="QQ")


def from_sympy(poly, dim: int) -> Polynomial:
    terms = {m: Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict().items()}
    return Polynomial(dim, terms)
