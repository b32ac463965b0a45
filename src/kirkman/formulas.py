"""The coefficient array behind Kirkman's identity, by three constructions.

The object of study is the bivariate power series f(z, w) with f(0, 0) = 1
solving

    z(z+w) f^2 + (2z+w-1) f + 1 = 0.

Its coefficients interpolate Catalan numbers ([z^m w^0] f = Catalan(m+1))
and the geometric row ([z^0 w^n] f = 1).  This module provides:

  * ``closed_form_coeff`` -- the binomial closed form for one cell [z^m w^n]
                             f^p (``verifier.closed_table`` walks term ratios),
  * ``fixpoint_series``   -- f from the quadratic's coefficient recurrence,
                             one running sum per row,
  * ``radical_series``    -- f from its radical expression, as an
                             independent witness,
  * ``power_series``      -- f^p by the row recurrence of ``series._power``
                             (f itself for p = 1).

All routes agree cellwise; the verifier module sweeps that agreement.  Every
route that divides asserts each cell of its table integral.  The series
routes share only the kernels of ``series``; none reads another route's
table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .series import BiSeries, Rect, _check_power, _integral_quotient, _power, _product_cell, poly


def binomial(a: int, b: int) -> int:
    """C(a, b) for a >= 0, with the convention 0 outside 0 <= b <= a."""
    if a < 0:
        raise ValueError("negative upper index unsupported")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def closed_form_coeff(p: int, m: int, n: int) -> int:
    """[z^m w^n] f^p = (p/(m+p)) C(m+n+p-1, n) C(2m+n+2p, m+n+2p).

    Evaluated in integers: m+p always divides p times the binomials, and
    that integrality is asserted from the remainder rather than assumed.
    """
    _check_power(p)
    if m < 0 or n < 0:
        raise ValueError(f"exponents must be non-negative, got ({m}, {n})")
    numerator = p * binomial(m + n + p - 1, n) * binomial(2 * m + n + 2 * p, m + n + 2 * p)
    return _integral_quotient(numerator, m + p, p, m, n)


def _integral_table(x: BiSeries, p: int) -> BiSeries:
    # x as the table of f^p, each cell asserted to be an integer
    for m, row in enumerate(x.coeff):
        for n, value in enumerate(row):
            _integral_quotient(value, 1, p, m, n)
    return x


def fixpoint_series(window: Rect) -> BiSeries:
    """f on ``window`` as the power-series root of the defining quadratic.

    The quadratic's coefficient form,

        f[a,b] = [a=b=0] + 2 f[a-1,b] + f[a,b-1] + (f^2)[a-2,b] + (f^2)[a-1,b-1],

    makes each row of f one running sum along b: row a is the running sum
    of 2 f[a-1] + f^2[a-2] + (f^2[a-1] shifted one place in b), and row 0 the
    running sum of [a=b=0].  f^2 is taken a row behind f: step a first
    forms row a-1 of f^2, one product cell per entry over the rows of f
    filled so far, so the last row of f^2, which the recurrence never reads,
    is never formed.  This is the root with constant term 1; the other root
    of the quadratic is not a power series.

    This is the recurrence the test oracle ``quadratic_table`` also uses, so
    the guards that do not depend on how f is built are the quadratic
    residual (acceptance criterion 6), which must vanish on any
    construction, and the radical route, which reaches f by a square root
    and two exact divisions instead.
    """
    width = window.max_b + 1
    f = [list(accumulate([1] + [0] * window.max_b))]
    square = [[0] * width]  # rows of f^2, after a zero row standing for row -1
    for a in range(1, window.max_a + 1):
        square.append([_product_cell(f, f, a - 1, b) for b in range(width)])
        terms = zip(f[a - 1], square[a - 1], [0, *square[a][:-1]])
        f.append(list(accumulate(2 * up + two_up + diagonal for up, two_up, diagonal in terms)))
    return BiSeries(f)


def radical_series(window: Rect) -> BiSeries:
    """f on ``window`` from (1 - w - 2z - sqrt((1-w)^2 - 4z)) / (2z(z+w)).

    Exists as an independent witness for the fixpoint construction.  The
    numerator is built on a padded rectangle, since dividing by (z+w)
    consumes max_b extra degrees of z on top of the one consumed by the
    division by z.  The square root branch with constant term +1 restricts
    to 1 - w on the z^0 row, so the numerator's z^0 row cancels exactly.
    """
    padded = Rect(window.max_a + window.max_b + 2, window.max_b)
    radicand = poly(padded, {(0, 0): 1, (0, 1): -2, (0, 2): 1, (1, 0): -4})
    root = radicand.sqrt()
    numerator = poly(padded, {(0, 0): 1, (0, 1): -1, (1, 0): -2}) - root
    halved = numerator.div_z().scale(Fraction(1, 2))
    return _integral_table(halved.div_z_plus_w(window), 1)


def power_series(p: int, window: Rect) -> BiSeries:
    """f^p on ``window``; cell (m, n) equals closed_form_coeff(p, m, n)."""
    _check_power(p)
    f = fixpoint_series(window)
    return f if p == 1 else _integral_table(_power(f, p, 1, 1), p)
