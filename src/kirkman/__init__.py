"""Exact verification of Kirkman's convolution identity and its generalization.

Three independent constructions of the same coefficient array (closed-form
binomials, truncated series from the defining quadratic or its radical
solution, and Lagrange inversion), plus brute-force identity sweeps over
user-chosen ranges.  All arithmetic is exact: arbitrary-precision integers
and rationals throughout.
"""

from .formulas import binomial, closed_form_coeff, fixpoint_series, power_series, radical_series
from .lagrange import build_phi, lagrange_coeff, lagrange_table
from .series import BiSeries, Rect, poly
from .verifier import (
    CoeffReport,
    Counterexample,
    VerifyReport,
    closed_table,
    convolution_lhs,
    cross_check_methods,
    sweep_cells,
    verify_cayley,
    verify_generalized,
)

__version__ = "0.1.0"

__all__ = [
    "BiSeries",
    "CoeffReport",
    "Counterexample",
    "Rect",
    "VerifyReport",
    "binomial",
    "build_phi",
    "closed_form_coeff",
    "closed_table",
    "convolution_lhs",
    "cross_check_methods",
    "fixpoint_series",
    "lagrange_coeff",
    "lagrange_table",
    "poly",
    "power_series",
    "radical_series",
    "sweep_cells",
    "verify_cayley",
    "verify_generalized",
]
