"""Expected stdout of every benchmark command, from ``math.comb`` alone.

Nothing here imports kirkman, so a wrong table printed by any route of the
library shows up as a mismatch instead of agreeing with itself.  The value
is the closed form

    c_p(m, n) = p * C(m+n+p-1, n) * C(2m+n+2p, m+n+2p) / (m+p),

computed in integers with the division checked to be exact.  The expected
text follows the CLI's CSV schemas byte for byte.
"""

from __future__ import annotations

from math import comb


def coeff(p: int, m: int, n: int) -> int:
    """c_p(m, n) in exact integer arithmetic."""
    quotient, remainder = divmod(
        p * comb(m + n + p - 1, n) * comb(2 * m + n + 2 * p, m + n + 2 * p), m + p
    )
    if remainder:
        raise ArithmeticError(f"c_{p}({m}, {n}) is not an integer")
    return quotient


def _csv(header: str, rows) -> bytes:
    return "".join([header + "\n", *(",".join(map(str, row)) + "\n" for row in rows)]).encode()


def verify_csv(r: int, s: int, max_M: int, max_N: int) -> bytes:
    """`verify --format csv`: every cell passes with lhs = rhs = c_{r+s}(M, N)."""
    rows = []
    for M in range(max_M + 1):
        for N in range(max_N + 1):
            c = coeff(r + s, M, N)
            rows.append((M, N, c, c, "ok"))
    return _csv("M,N,lhs,rhs,status", rows)


def crosscheck_csv(p: int, max_m: int, max_n: int) -> bytes:
    """`crosscheck --format csv`: every route equals the oracle and agrees."""
    rows = []
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            c = coeff(p, m, n)
            rows.append((m, n, c, c, c, c if p == 1 else "", "true"))
    return _csv("m,n,closed,series,lagrange,radical,agree", rows)


def expand_csv(p: int, max_m: int, max_n: int) -> bytes:
    """`expand --format csv` by any method: the table of c_p(m, n)."""
    rows = [(m, n, coeff(p, m, n)) for m in range(max_m + 1) for n in range(max_n + 1)]
    return _csv("m,n,coefficient", rows)
