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
"""

from .qpoly import (
    DimensionMismatchError,
    Polynomial,
    ResourceCaps,
    ResourceLimitError,
    parse_polynomial,
    rational,
)
from .maps import (
    NotDominantError,
    NotTriangularError,
    TriangularMap,
    as_point,
    diagonal_degrees,
    iterate_symbolic,
    orbit,
    orbits_disjoint_prefix,
    triangular_map,
)
from .degrees import (
    dynamical_degree_exact,
    dynamical_degree_sequence,
    product_map,
)
from .heights import (
    height_sequence,
    product_height_additivity,
)
from .padic import (
    SectorConfig,
    case_n2_growth,
    choose_C,
    dominant_monomial,
    find_unit_prime,
    in_U,
    sample_U,
    sector_config,
    u_minus_fu_witness,
    verify_dominant_value,
    verify_stability,
    vp,
)
from .density import density_check
from .experiments import ExperimentConfig, run_experiment

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError",
    "ExperimentConfig",
    "NotDominantError",
    "NotTriangularError",
    "Polynomial",
    "ResourceCaps",
    "ResourceLimitError",
    "SectorConfig",
    "TriangularMap",
    "as_point",
    "case_n2_growth",
    "choose_C",
    "density_check",
    "diagonal_degrees",
    "dominant_monomial",
    "dynamical_degree_exact",
    "dynamical_degree_sequence",
    "find_unit_prime",
    "height_sequence",
    "in_U",
    "iterate_symbolic",
    "orbit",
    "orbits_disjoint_prefix",
    "parse_polynomial",
    "product_height_additivity",
    "product_map",
    "rational",
    "run_experiment",
    "sample_U",
    "sector_config",
    "triangular_map",
    "u_minus_fu_witness",
    "verify_dominant_value",
    "verify_stability",
    "vp",
]
