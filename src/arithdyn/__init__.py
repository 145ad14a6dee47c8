"""Exact arithmetic-dynamics toolkit for triangular polynomial self-maps.

Submodules:

  qpoly        exact sparse multivariate polynomials over the rationals
  maps         triangular self-maps, diagonal degrees, symbolic iteration,
               exact orbits
  degrees      dynamical degrees, degree sequences
  heights      Weil heights, arithmetic-degree and canonical-height sequences
  padic        p-adic valuations and the stable-sector construction
  orbit_tail   orbits past the printed prefix: valuations and height rows
               certified without forming the points
  density      exact-rank Zariski-density proxy
  experiments  end-to-end pipelines with deterministic reports

The package exports the five names below; every other name is imported from
its module (e.g. ``from arithdyn.qpoly import Polynomial``).
"""

from .maps import triangular_map
from .degrees import dynamical_degree_exact
from .heights import height_sequence
from .padic import sample_U, sector_config

__version__ = "0.1.0"

__all__ = [
    "dynamical_degree_exact",
    "height_sequence",
    "sample_U",
    "sector_config",
    "triangular_map",
]
