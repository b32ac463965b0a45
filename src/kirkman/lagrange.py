"""Lagrange inversion route to the same coefficients.

Substituting f = y/z into the defining quadratic and rearranging turns it
into an equation of Lagrange type,

    y = z * phi(y),    phi(y) = (1+y)^2 / (1 - w(1+y)),

whose coefficients live in the ring of truncated series in w.  Lagrange
inversion then gives

    [z^m w^n] f^p = (p/(m+p)) [y^m w^n] phi(y)^(m+p).

``lagrange_table`` builds phi once on the requested window and reads row m
of phi^(m+p) from Miller's power recurrence in y (``series._power``) on
phi's rows up to m, with no product of series.  The route never reads a
binomial, not even for row 0, (1-w)^-(m+p), which keeps it independent of
the closed form, and the integrality of every cell is asserted.
"""

from __future__ import annotations

from .series import BiSeries, Rect, _integral_quotient, _power, poly


def build_phi(window: Rect) -> BiSeries:
    """phi = (1+y)^2 / (1 - w(1+y)) truncated to ``window``, read as (y, w)."""
    numerator = poly(window, {(0, 0): 1, (1, 0): 2, (2, 0): 1})
    denominator = poly(window, {(0, 0): 1, (0, 1): -1, (1, 1): -1})
    return numerator * denominator.reciprocal()


def lagrange_table(p: int, window: Rect) -> BiSeries:
    """[z^m w^n] f^p at every cell of ``window``, by Lagrange inversion.

    phi is built on ``window`` read as (y, w): row m of a power reads phi's
    rows up to m only, and [w^n] never reads beyond w^n.
    """
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    phi = build_phi(window)
    rows = []
    for m in range(window.max_a + 1):
        power = _power(phi.restrict(Rect(m, window.max_b)), m + p, 1, phi[0, 0] ** (m + p))
        cells = enumerate(power.coeff[m])
        rows.append(tuple(_integral_quotient(p * v, m + p, p, m, n) for n, v in cells))
    return BiSeries(window, tuple(rows))


def lagrange_coeff(p: int, m: int, n: int) -> int:
    """[z^m w^n] f^p, the corner cell of the Lagrange table on (m, n)."""
    return lagrange_table(p, Rect(m, n))[m, n]
