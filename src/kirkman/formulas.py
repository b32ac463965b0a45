"""The coefficient array behind Kirkman's identity, by three constructions.

The object of study is the bivariate power series f(z, w) with f(0, 0) = 1
solving

    z(z+w) f^2 + (2z+w-1) f + 1 = 0.

Its coefficients interpolate Catalan numbers ([z^m w^0] f = Catalan(m+1))
and the geometric row ([z^0 w^n] f = 1).  This module provides:

  * ``closed_form_coeff`` -- the binomial closed form for one cell [z^m w^n]
                             f^p (``closed.closed_table`` walks term ratios),
  * ``power_series``      -- f^p from the quadratic's coefficient recurrence
                             for every power of f at once, in additions,
  * ``fixpoint_series``   -- f itself, ``power_series`` at p = 1,
  * ``radical_series``    -- f from its radical expression, as an
                             independent witness: the square root by its
                             own row recurrence, in running sums and one
                             exact division per cell.

All routes agree cellwise; ``closed.cross_check_methods`` checks it.  Every
route that divides asserts each cell of its table integral; the series route
only adds ints.  No route reads another route's table.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import sub

from .series import BiSeries, Rect, _check_power, _integral_quotient, _quotient


def closed_form_coeff(p: int, m: int, n: int) -> int:
    """[z^m w^n] f^p = (p/(m+p)) C(m+n+p-1, n) C(2m+n+2p, m+n+2p).

    Evaluated in integers: m+p always divides p times the binomials, and
    that integrality is asserted from the remainder rather than assumed.
    """
    _check_power(p)
    if m < 0 or n < 0:
        raise ValueError(f"exponents must be non-negative, got ({m}, {n})")
    numerator = p * comb(m + n + p - 1, n) * comb(2 * m + n + 2 * p, m + n + 2 * p)
    return _integral_quotient(numerator, m + p, p, m, n)


def fixpoint_series(window: Rect) -> BiSeries:
    """f on ``window``, the power-series root of the defining quadratic.

    ``power_series(1, window)``: the root with constant term 1; the other
    root is not a power series.  The test oracle ``quadratic_table`` reads
    the same quadratic, so the guards that do not depend on how f is built
    are the quadratic residual (acceptance criterion 6) and the radical
    route, which reaches f by a square root and two exact divisions.
    """
    return power_series(1, window)


def _root_cell(num: int, a: int, b: int) -> int:
    # cell (a, b) of the radical route's square root, num / a asserted integral
    q, r = divmod(num, a)
    if r:
        raise ArithmeticError(f"radical root not integral at z^{a} w^{b}: {_quotient(num, a)}")
    return q


def radical_series(window: Rect) -> BiSeries:
    """f on ``window`` from (1 - w - 2z - sqrt((1-w)^2 - 4z)) / (2z(z+w)).

    Exists as an independent witness for the fixpoint construction.  The
    root s = sum of s_a z^a, with rows s_a in w, comes from J.C.P. Miller's
    recurrence for the radicand R = (1-w)^2 - 4z: R ds/dz = s (dR/dz) / 2,
    read at z^(a-1), gives

        a s_a = 2(2a-3) s_(a-1) / (1-w)^2,    s_0 = 1 - w,

    so row a of the root is two running sums along w of row a-1, times
    2(2a-3), each cell divided exactly by a (a remainder raises
    ``ArithmeticError`` naming the root's cell z^a w^b, not a cell of f).
    One pass over a = 1 ... max_a + max_b + 2 keeps only the previous root
    row and appends row a of the numerator.  Its z^0 row cancels, since s_0
    is 1 - w, and is never formed.  The pass runs max_b + 1 rows past the
    window because the division by (z+w) reads them.  That division is
    linear, so its quotient 2f is halved last, each cell asserted integral.
    """
    zero = (0,) * (window.max_b + 1)
    root, rows = (1, -1, *zero)[: len(zero)], []
    for a in range(1, window.max_a + window.max_b + 3):
        sums = accumulate(accumulate(root))
        root = tuple(_root_cell(2 * (2 * a - 3) * v, a, b) for b, v in enumerate(sums))
        u = (-2, *zero[1:]) if a == 1 else zero  # row a of 1 - w - 2z
        rows.append(tuple(map(sub, u, root)))
    twice = BiSeries(rows).div_z_plus_w(window)  # 2f, in ints
    del rows  # the numerator goes before 2f is halved
    return BiSeries(
        [_integral_quotient(v, 2, 1, m, n) for n, v in enumerate(row)]
        for m, row in enumerate(twice.coeff)
    )


def power_series(p: int, window: Rect) -> BiSeries:
    """f^p on ``window``; cell (m, n) equals closed_form_coeff(p, m, n).

    The quadratic times f^(k-1), read at z^m, gives for every k >= 1

        (1-w) f^k[m] = 2 f^k[m-1] + f^(k+1)[m-2] + w f^(k+1)[m-1] + f^(k-1)[m],

    with f^0 = 1 and rows of negative index zero: row m of f^k is one
    running sum along w.  Row m is formed for k = 1 ... p + max_a - m, the
    powers that rows m+1 ... max_a of f^p still read, from rows m-1 and m-2
    alone.  The work is additions only, so every cell is an int.
    """
    _check_power(p)
    top, zero = p + window.max_a, (0,) * (window.max_b + 1)
    two_up = one_up = [zero] * (top + 2)  # rows m-2 and m-1 of f^k, indexed by k
    rows = []
    for m in range(window.max_a + 1):
        row = [(1, *zero[1:]) if m == 0 else zero]  # row m of f^0 = 1
        for k in range(1, top - m + 1):
            terms = zip(one_up[k], two_up[k + 1], (0, *one_up[k + 1][:-1]), row[k - 1])
            row.append(tuple(accumulate(2 * x + y + d + s for x, y, d, s in terms)))
        rows.append(row[p])
        two_up, one_up = one_up, row
    return BiSeries(rows)
