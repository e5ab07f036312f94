"""Exact multiplicative-energy counts and Steinhaus random multiplicative
function experiments over polynomial values."""

__version__ = "0.1.0"

from .polynomial import IntPolynomial, PolynomialClass, classify, parse_polynomial
from .sieve import FactorTable, FactoredValue, factor_values, lpf_density
from .energy import (
    EnergyReport,
    ProgressionRange,
    bp_bound,
    energy,
    energy_constrained_lpf,
    energy_cross,
    exponent_fit,
)
from .rmf import PhaseTable, SteinhausSampler, derive_seed
from .clt_audit import McLeishAudit, mcleish_audit, run_clt
from .fluctuations import (
    PrimeSetFamily,
    ScaleGrid,
    build_grid,
    build_prime_sets,
    run_fluct,
    s2_second_moment,
    variance_floor,
)

__all__ = [
    "IntPolynomial",
    "PolynomialClass",
    "classify",
    "parse_polynomial",
    "FactorTable",
    "FactoredValue",
    "factor_values",
    "lpf_density",
    "EnergyReport",
    "ProgressionRange",
    "bp_bound",
    "energy",
    "energy_constrained_lpf",
    "energy_cross",
    "exponent_fit",
    "PhaseTable",
    "SteinhausSampler",
    "derive_seed",
    "McLeishAudit",
    "mcleish_audit",
    "run_clt",
    "PrimeSetFamily",
    "ScaleGrid",
    "build_grid",
    "build_prime_sets",
    "run_fluct",
    "s2_second_moment",
    "variance_floor",
    "__version__",
]
