"""Brute-force verification of the convolution identity and route cross-checks.

The generalized identity states that for p = r + s,

    sum_{m<=M, n<=N} c_r(m, n) c_s(M-m, N-n)  =  c_p(M, N),

where c_p(m, n) is the closed-form coefficient of [z^m w^n] f^p.  The r = s
= 1 case is Kirkman's hypothesis, and its N = 0 restriction is Cayley's
case.  A sweep builds the closed-form table of each distinct power among r,
s and p once (two when r = s; by term ratios), takes every left side as the
exact truncated product of the tables of c_r and c_s, packed into decimal
slots sized by the product's cells inside the window, with a zero guard
after each row, in one decimal multiplication or two split after a row
(``series._kronecker_product``), and reads the right side from the table
of c_p.  Both factors are closed-form tables and no series power enters,
so a sweep is a genuine check of the identity rather than a tautology of
series arithmetic; the series-level fact f^r f^s = f^(r+s) is tested
separately as an invariant.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from . import ROUTES
from .series import (
    BiSeries, Rect, Scalar, _check_power, _integral_quotient, _kronecker_product, _product_cell
)


class Counterexample(NamedTuple):
    r: int
    s: int
    M: int
    N: int
    lhs: int
    rhs: int


class VerifyReport(NamedTuple):
    """Outcome of an identity sweep: it passed unless it found a counterexample."""

    params_range: str
    checked_count: int
    first_counterexample: Optional[Counterexample] = None

    @property
    def passed(self) -> bool:
        return self.first_counterexample is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


class CoeffReport(NamedTuple):
    """One cell's value on every route, keyed as ROUTES (None where a route does not apply)."""

    m: int
    n: int
    values: dict[str, Optional[Scalar]]

    @property
    def agree(self) -> bool:
        present = [v for v in self.values.values() if v is not None]
        return all(v == present[0] for v in present)


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


def convolution_lhs(x: BiSeries, y: BiSeries, M: int, N: int) -> int:
    """Cell (M, N) of the product of the tables x and y, summed exactly.

    The one-cell reference for the sweep's left side, which takes every
    cell at once from ``series._kronecker_product``.
    """
    if not (x.rect.contains(M, N) and y.rect.contains(M, N)):
        raise IndexError(f"cell ({M}, {N}) outside {x.rect} or {y.rect}")
    return _product_cell(x.coeff, y.coeff, M, N)


def sweep_cells(
    r: int, s: int, max_M: int, max_N: int
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (M, N, lhs, rhs) in lexicographic order, stopping after the first lhs != rhs."""
    window = Rect(max_M, max_N)
    tables = {q: closed_table(q, window) for q in {r, s, r + s}}
    lhs = _kronecker_product(tables[r], tables[s])
    for M, (lhs_row, rhs_row) in enumerate(zip(lhs.coeff, tables[r + s].coeff)):
        for N, (left, right) in enumerate(zip(lhs_row, rhs_row)):
            yield M, N, left, right
            if left != right:
                return


def verify_generalized(r: int, s: int, max_M: int, max_N: int) -> VerifyReport:
    """Check the identity exactly for all 0 <= M <= max_M, 0 <= N <= max_N.

    Stops at the lexicographically first counterexample, if any.
    """
    params_range = f"r={r} s={s} 0<=M<={max_M} 0<=N<={max_N}"
    # the sweep ends at its first counterexample, so its last cell gives the verdict
    for checked, (M, N, lhs, rhs) in enumerate(sweep_cells(r, s, max_M, max_N), 1):
        pass
    if lhs != rhs:
        return VerifyReport(params_range, checked, Counterexample(r, s, M, N, lhs, rhs))
    return VerifyReport(params_range, checked)


def verify_cayley(max_M: int) -> VerifyReport:
    """The N = 0 special case of the r = s = 1 sweep, as a named entry point."""
    return verify_generalized(1, 1, max_M, 0)


def cross_check_methods(p: int, max_m: int, max_n: int) -> list[CoeffReport]:
    """Compute every cell of the (max_m, max_n) window on all ``kirkman.ROUTES``.

    Each route builds its table once, and the tables are read together row
    by row; one that does not exist for p reads as a table of None.
    """
    window = Rect(max_m, max_n)
    absent = ((None,) * (max_n + 1),) * (max_m + 1)
    tables = {name: build(p, window) for name, build in ROUTES.items()}
    rows = (absent if t is None else t.coeff for t in tables.values())
    return [
        CoeffReport(m, n, dict(zip(tables, cells)))
        for m, row in enumerate(zip(*rows))
        for n, cells in enumerate(zip(*row))
    ]
