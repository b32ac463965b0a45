"""Lagrange inversion route to the same coefficients.

Substituting f = y/z into the defining quadratic and rearranging turns it
into an equation of Lagrange type,

    y = z * phi(y),    phi(y) = (1+y)^2 / (1 - w(1+y)),

whose coefficients live in the ring of truncated series in w.  Lagrange
inversion then gives

    [z^m w^n] f^p = (p/(m+p)) [y^m w^n] phi(y)^(m+p).

``lagrange_table`` builds phi once on the requested window and powers it
directly: phi^p once, then one more product by phi per row, so row m is
read from the running power phi^(m+p).  The route never reads a binomial,
which keeps it independent of the closed form, and the integrality of
every cell is asserted.
"""

from __future__ import annotations

from fractions import Fraction

from .series import BiSeries, Rect, _quotient, poly


def build_phi(window: Rect) -> BiSeries:
    """phi = (1+y)^2 / (1 - w(1+y)) truncated to ``window``, read as (y, w)."""
    numerator = poly(window, {(0, 0): 1, (1, 0): 2, (2, 0): 1})
    denominator = poly(window, {(0, 0): 1, (0, 1): -1, (1, 1): -1})
    return numerator * denominator.reciprocal()


def lagrange_table(p: int, window: Rect) -> BiSeries:
    """[z^m w^n] f^p at every cell of ``window``, by Lagrange inversion.

    phi is built on ``window`` read as (y, w): higher y-terms cannot reach
    [y^m] of a power for m <= max_a, and [w^n] never reads beyond w^n.
    """
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    phi = build_phi(window)
    power = phi ** p
    rows = []
    for m in range(window.max_a + 1):
        if m:
            power = power * phi
        row = []
        for n, cell in enumerate(power.coeff[m]):
            value = _quotient(p * cell, m + p)
            if isinstance(value, Fraction):
                raise ArithmeticError(f"integrality violated at p={p} m={m} n={n}: {value}")
            row.append(value)
        rows.append(tuple(row))
    return BiSeries(window, tuple(rows))


def lagrange_coeff(p: int, m: int, n: int) -> int:
    """[z^m w^n] f^p, the corner cell of the Lagrange table on (m, n)."""
    return lagrange_table(p, Rect(m, n))[m, n]
