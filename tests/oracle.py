"""Oracle helpers shared by the test suites."""

from fractions import Fraction


def evaluate_monomial(mono, point) -> Fraction:
    """The monomial x^mono at ``point``, one Fraction power per variable."""
    value = Fraction(1)
    for coord, e in zip(point, mono):
        if e:
            value *= coord**e
    return value
