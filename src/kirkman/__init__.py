"""Exact verification of Kirkman's convolution identity and its generalization.

Three independent constructions of the same coefficient array (closed-form
binomials, truncated series from the defining quadratic or its radical
solution, and Lagrange inversion), plus brute-force identity sweeps over
user-chosen ranges.  All arithmetic is exact: arbitrary-precision integers
and rationals throughout.

``import kirkman`` loads no submodule: each public name is imported from
its home module on first use (PEP 562), and ``ROUTES``, the one registry of
the routes, reads each builder the same way when an entry is called.  So a
command loads only the modules it runs: ``verify`` loads ``series``,
``closed`` and ``verifier``, and ``crosscheck`` all but ``verifier``
(``kirkman.cli`` lists every command).
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_HOMES = {
    name: module
    for module, names in {
        "closed": "closed_table cross_check_methods",
        "formulas": "closed_form_coeff fixpoint_series power_series radical_series",
        "lagrange": "build_phi lagrange_coeff lagrange_table",
        "series": "BiSeries Rect poly",
        "verifier": "Counterexample VerifyReport convolution_lhs sweep_cells verify_generalized",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # read through the home module on every access, so kirkman.X is always its X
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


# each route builds the table of f^p on a window, (p, window) -> table or None,
# in crosscheck's column order; a builder is read through __getattr__ when it
# is called, so only its home module loads and a patched or traced home binding
# is the one that runs
ROUTES = {
    "closed": lambda p, window: __getattr__("closed_table")(p, window),
    "series": lambda p, window: __getattr__("power_series")(p, window),
    "lagrange": lambda p, window: __getattr__("lagrange_table")(p, window),
    "radical": lambda p, window: __getattr__("radical_series")(window) if p == 1 else None,
}
