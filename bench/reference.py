"""A fixed, stdlib-only computation that measures the machine's current speed.

On a shared machine, the speed of big-integer and interpreter work drifts by
up to about 1.5x over seconds to minutes, and it drifts the same way for
every kind of work. The benchmark times this computation between stretches
of measured work and scales each stretch by it, which removes most of that
drift. The computation uses no arithdyn code, so no change to the program
moves it.
"""

import math
from fractions import Fraction
from time import perf_counter

# Scaled times are seconds on a machine where one reference run takes this long.
NOMINAL_S = 0.2

_X = 3**40000 + 1
_Y = 5**26000 + 3


def reference_seconds() -> float:
    """Wall time of one run of the reference computation.  Its three parts
    mirror the program's hot paths: big-integer gcds (height rows), small
    Fraction sums in a dict (polynomial products) and a plain interpreter
    loop."""
    start = perf_counter()
    for i in range(10):
        math.gcd(_X + i, _Y)
    terms: dict = {}
    for i in range(12000):
        key = (i % 37, i % 11)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    total = 0
    for i in range(240_000):
        total += i * i % 7
    return perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` at the nominal machine speed."""
    return seconds * NOMINAL_S / reference
