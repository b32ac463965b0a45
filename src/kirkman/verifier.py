"""Brute-force verification of the convolution identity and route cross-checks.

The generalized identity states that for p = r + s,

    sum_{m<=M, n<=N} c_r(m, n) c_s(M-m, N-n)  =  c_p(M, N),

where c_p(m, n) is the closed-form coefficient of [z^m w^n] f^p.  The r = s
= 1 case is Kirkman's hypothesis, and its N = 0 restriction is Cayley's
case.  The left side is summed from closed-form coefficients (never from
series products), so a sweep is a genuine check of the identity rather than
a tautology of series arithmetic; the series-level fact f^r f^s = f^(r+s)
is tested separately as an invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .formulas import KirkmanIndex, closed_form_coeff, power_series, radical_series
from .lagrange import lagrange_coeff
from .series import Rect, Scalar


@dataclass(frozen=True)
class IdentityParams:
    """One convolution cell: powers r and s, outer indices M and N."""

    r: int
    s: int
    M: int
    N: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.s < 1:
            raise ValueError(f"powers must be >= 1, got r={self.r} s={self.s}")
        if self.M < 0 or self.N < 0:
            raise ValueError(f"indices must be non-negative, got M={self.M} N={self.N}")

    @property
    def p(self) -> int:
        return self.r + self.s


@dataclass(frozen=True)
class Counterexample:
    r: int
    s: int
    M: int
    N: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an identity sweep."""

    params_range: str
    checked_count: int
    status: str  # "pass" | "fail"
    first_counterexample: Optional[Counterexample] = None

    def __post_init__(self) -> None:
        if (self.status == "fail") != (self.first_counterexample is not None):
            raise ValueError("status and counterexample are inconsistent")

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class CoeffReport:
    """One coefficient with its value on every computed route."""

    index: KirkmanIndex
    value_closed: int
    value_series: Scalar
    value_lagrange: int
    value_radical: Optional[Scalar] = None  # populated only for p = 1

    @property
    def agree(self) -> bool:
        values = [self.value_closed, self.value_series, self.value_lagrange]
        if self.value_radical is not None:
            values.append(self.value_radical)
        return all(v == values[0] for v in values)


def convolution_lhs(params: IdentityParams) -> int:
    """The double convolution sum, evaluated exactly from closed forms."""
    return sum(
        closed_form_coeff(params.r, m, n)
        * closed_form_coeff(params.s, params.M - m, params.N - n)
        for m in range(params.M + 1)
        for n in range(params.N + 1)
    )


def sweep_cells(
    r: int, s: int, max_M: int, max_N: int
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (M, N, lhs, rhs) over the sweep range in lexicographic order."""
    p = r + s
    for M in range(max_M + 1):
        for N in range(max_N + 1):
            lhs = convolution_lhs(IdentityParams(r, s, M, N))
            rhs = closed_form_coeff(p, M, N)
            yield M, N, lhs, rhs


def verify_generalized(r: int, s: int, max_M: int, max_N: int) -> VerifyReport:
    """Check the identity exactly for all 0 <= M <= max_M, 0 <= N <= max_N.

    Stops at the lexicographically first counterexample, if any.
    """
    params_range = f"r={r} s={s} 0<=M<={max_M} 0<=N<={max_N}"
    checked = 0
    for M, N, lhs, rhs in sweep_cells(r, s, max_M, max_N):
        checked += 1
        if lhs != rhs:
            return VerifyReport(
                params_range, checked, "fail", Counterexample(r, s, M, N, lhs, rhs)
            )
    return VerifyReport(params_range, checked, "pass")


def verify_cayley(max_M: int) -> VerifyReport:
    """The N = 0 special case of the r = s = 1 sweep, as a named entry point."""
    return verify_generalized(1, 1, max_M, 0)


def cross_check_methods(p: int, max_m: int, max_n: int) -> list[CoeffReport]:
    """Compute every cell of the (max_m, max_n) window on all routes.

    Routes: closed-form binomials, truncated powering of the fixpoint
    series, and Lagrange inversion; for p = 1 the radical construction is
    included as a fourth value.
    """
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    window = Rect(max_m, max_n)
    by_series = power_series(p, window)
    by_radical = radical_series(window) if p == 1 else None
    reports = []
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            reports.append(
                CoeffReport(
                    index=KirkmanIndex(p, m, n),
                    value_closed=closed_form_coeff(p, m, n),
                    value_series=by_series[m, n],
                    value_lagrange=lagrange_coeff(p, m, n),
                    value_radical=None if by_radical is None else by_radical[m, n],
                )
            )
    return reports
