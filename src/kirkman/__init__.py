"""Exact verification of Kirkman's convolution identity and its generalization.

Three independent constructions of the same coefficient array (closed-form
binomials, truncated series from the defining quadratic or its radical
solution, and Lagrange inversion), plus brute-force identity sweeps over
user-chosen ranges.  All arithmetic is exact: arbitrary-precision integers
and rationals throughout.

``import kirkman`` loads no submodule: each public name is imported from
its home module on first use (PEP 562), so a command pays only for the
arithmetic it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOMES = {
    name: module
    for module, names in {
        "formulas": "binomial closed_form_coeff fixpoint_series power_series radical_series",
        "lagrange": "build_phi lagrange_coeff lagrange_table",
        "series": "BiSeries Rect poly",
        "verifier": "CoeffReport Counterexample VerifyReport closed_table convolution_lhs "
        "cross_check_methods sweep_cells verify_cayley verify_generalized",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # read through the home module on every access, so kirkman.X is always its X
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
