"""The closed-form route, ``closed_table``, and the cross-check of every route."""

from __future__ import annotations

from . import ROUTES
from .series import BiSeries, Rect, _check_power, _integral_quotient


def closed_table(p: int, window: Rect) -> BiSeries:
    """c_p(m, n) on ``window`` by term ratios: c_p is hypergeometric in m and n.

    From c(0, 0) = 1, c(m, 0) = c(m-1, 0) 2(m-1+p)(2m+2p-1) / (m(m+2p)) and
    c(m, n+1) = c(m, n) (m+n+p)(2m+n+2p+1) / ((n+1)(m+n+2p+1)), each division
    asserted integral; no binomial is taken (``closed_form_coeff`` is the reference).
    """
    _check_power(p)
    rows: list[list[int]] = []
    for m in range(window.max_a + 1):
        num, den = 2 * (m - 1 + p) * (2 * m + 2 * p - 1), m * (m + 2 * p)
        row = [_integral_quotient(rows[-1][0] * num, den, p, m, 0) if m else 1]
        for n in range(window.max_b):
            num, den = (m + n + p) * (2 * m + n + 2 * p + 1), (n + 1) * (m + n + 2 * p + 1)
            row.append(_integral_quotient(row[n] * num, den, p, m, n + 1))
        rows.append(row)
    return BiSeries(rows)


def cross_check_methods(p: int, max_m: int, max_n: int) -> list[tuple]:
    """(m, n, each route's value in ``ROUTES`` order, agree) for every cell, as rows.

    A route that does not apply for p gives None, and agree means every other
    value is equal.  Each table is built once and read row by row.
    """
    window = Rect(max_m, max_n)
    absent = ((None,) * (max_n + 1),) * (max_m + 1)
    tables = (build(p, window) for build in ROUTES.values())
    rows = [absent if t is None else t.coeff for t in tables]
    return [
        (m, n, *cells, len({*cells} - {None}) < 2)
        for m, row in enumerate(zip(*rows))
        for n, cells in enumerate(zip(*row))
    ]
