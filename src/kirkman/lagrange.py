"""Lagrange inversion route to the same coefficients.

Substituting f = y/z into the defining quadratic and rearranging turns it
into an equation of Lagrange type,

    y = z * phi(y),    phi(y) = (1+y)^2 / (1 - w(1+y)),

whose coefficients live in the ring of truncated series in w.  Lagrange
inversion then gives

    [z^m w^n] f^p = (p/(m+p)) [y^m w^n] phi(y)^(m+p).

``lagrange_table`` keeps one running power of phi and reads row m of
phi^(m+p); its one step, ``_times_phi``, takes g * phi in additions, with no
series product, reciprocal or power.  No binomial is read, not even for row
0, (1-w)^-(m+p), so the route is independent of the closed form, and the
integrality of every cell is asserted.
"""

from __future__ import annotations

from itertools import accumulate

from .series import BiSeries, Rect, Scalar, _check_power, _integral_quotient


def _times_phi(g: tuple[tuple[Scalar, ...], ...]) -> tuple[tuple[Scalar, ...], ...]:
    # g * phi on g's window, read as (y, w), where it is exact: cell (a, b) reads
    # cells up to (a, b) only.  h = g (1+y)^2 is h[a] = g[a] + 2g[a-1] + g[a-2], and
    # q = h / (1 - w - wy) is q[a][b] = h[a][b] + q[a][b-1] + q[a-1][b-1]
    zero = (0,) * len(g[0])
    padded, q = (zero, zero, *g), [zero]
    for g2, g1, g0 in zip(padded, padded[1:], padded[2:]):
        diagonal = (0, *q[-1][:-1])
        q.append(tuple(accumulate(x + 2 * y + z + d for x, y, z, d in zip(g0, g1, g2, diagonal))))
    return tuple(q[1:])


def build_phi(window: Rect) -> BiSeries:
    """phi = (1+y)^2 / (1 - w(1+y)) truncated to ``window``, read as (y, w)."""
    return BiSeries(_times_phi(BiSeries.one(window).coeff))


def lagrange_table(p: int, window: Rect) -> BiSeries:
    """[z^m w^n] f^p at every cell of ``window``, by Lagrange inversion."""
    _check_power(p)
    power, rows = BiSeries.one(window).coeff, []
    for m in range(1 - p, window.max_a + 1):
        power = _times_phi(power)  # phi^(m+p)
        if m >= 0:
            cells = enumerate(power[m])
            rows.append(tuple(_integral_quotient(p * v, m + p, p, m, n) for n, v in cells))
    return BiSeries(rows)


def lagrange_coeff(p: int, m: int, n: int) -> int:
    """[z^m w^n] f^p, the corner cell of the Lagrange table on (m, n)."""
    return lagrange_table(p, Rect(m, n))[m, n]
