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

from .series import BiSeries, Rect, poly


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
            value = Fraction(p, m + p) * cell
            if value.denominator != 1:
                raise ArithmeticError(f"integrality violated at p={p} m={m} n={n}: {value}")
            row.append(value.numerator)
        rows.append(tuple(row))
    return BiSeries(window, tuple(rows))


def lagrange_coeff(p: int, m: int, n: int) -> int:
    """[z^m w^n] f^p, the corner cell of the Lagrange table on (m, n)."""
    return lagrange_table(p, Rect(m, n))[m, n]


def solve_y_fixpoint(window: Rect) -> BiSeries:
    """Solve y = z * phi(y) on ``window`` (variables read as (z, w)).

    y has no constant term in z (y = z * f), so substituting the current
    approximation into phi and multiplying by z fixes one more z-degree per
    pass: max_a passes are exact on the window.
    """
    phi = build_phi(Rect(window.max_a, window.max_b))
    z = poly(window, {(1, 0): 1})
    y = BiSeries.zero(window)
    for _ in range(window.max_a):
        y = z * substitute(phi, y, window)
    return y


def fixed_point_residual(y: BiSeries) -> BiSeries:
    """y - z * phi(y) on y's own window; the zero series iff y solves it."""
    window = y.rect
    phi = build_phi(Rect(window.max_a, window.max_b))
    z = poly(window, {(1, 0): 1})
    return y - z * substitute(phi, y, window)


def substitute(phi: BiSeries, y: BiSeries, window: Rect) -> BiSeries:
    """Evaluate phi, a polynomial in its first variable, at the series y.

    Horner scheme over the y-rows of phi; every intermediate lives on the
    shared (z, w) ``window``.  Only rows up to window.max_a can contribute
    because y has z-valuation 1.
    """
    rows = min(phi.rect.max_a, window.max_a)
    result = _row_as_series(phi, rows, window)
    for k in range(rows - 1, -1, -1):
        result = result * y + _row_as_series(phi, k, window)
    return result


def _row_as_series(phi: BiSeries, k: int, window: Rect) -> BiSeries:
    # row a=k of phi, reinterpreted as a z-constant series on the (z, w) window
    return poly(window, {(0, b): phi[k, b] for b in range(phi.rect.max_b + 1)})
