"""Brute-force oracles, checking helpers and the shared test doubles.

The value oracles (``naive_mul``, ``quadratic_table``, ``catalan``) are
deliberately independent of the package: sparse dict arithmetic and a
cell-by-cell recurrence, so agreement with the library is a genuine
cross-check and not a tautology.

Every test double of the suite is defined here once:

- ``record_calls`` spies on a function or method and returns the list of
  its calls;
- ``corrupted_closed_table`` is the closed route with c_2(1, 0) one too
  large.  It calls the ``closed_table`` bound when this module is imported:
  the tests patch ``kirkman.closed.closed_table`` with it, so a lookup at
  call time would find the patched binding and recurse;
- ``scaled_closed_table`` is the closed route with every cell c_p(m, n)
  times 2^m, which keeps the convolution identity; it binds ``closed_table``
  the same way;
- ``corrupt_route`` shifts cell (0, 0) of a route's table as every command
  sees it: it patches the builder in its home module, the binding that
  ``kirkman.ROUTES`` reads when called;
- ``corrupt_radical_root`` shifts a numerator of the radical route's
  square root before its exact division;
- ``interrupted`` is a route builder that raises ``KeyboardInterrupt``,
  as Ctrl-C does;
- ``times_one_plus_half_y`` stands in for the Lagrange route's step
  ``_times_phi`` with phi = 1 + y/2, whose powers are not integral;
- ``cli_env`` is the environment of a CLI run in a subprocess.

Beyond what they wrap, the corruption doubles call no library code that
commands do not run themselves (the ``BiSeries`` constructor and
``Rect.contains``), so the line-trace gate (``test_src_runs``) counts only
what a command runs.  They look a module up when they patch it, so they
patch the modules a command imports then.

``cells`` and ``truncated`` walk and cut a window for the tests.
"""

from __future__ import annotations

import os
from fractions import Fraction
from importlib import import_module
from itertools import product
from math import comb
from pathlib import Path

import kirkman
from kirkman.closed import closed_table
from kirkman.series import BiSeries, Rect, poly


def naive_mul(x: dict, y: dict, max_a: int, max_b: int) -> dict:
    """Truncated product of sparse {(a, b): value} tables."""
    out: dict = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            a, b = a1 + a2, b1 + b2
            if a <= max_a and b <= max_b:
                out[a, b] = out.get((a, b), 0) + c1 * c2
    return out


def quadratic_table(max_a: int, max_b: int) -> dict:
    """Coefficients of the series root of z(z+w)f^2 + (2z+w-1)f + 1 = 0.

    Direct recurrence in total-degree order, rearranged as
    f[a,b] = [a=b=0] + 2 f[a-1,b] + f[a,b-1] + (f^2)[a-2,b] + (f^2)[a-1,b-1];
    every referenced square cell has total degree a+b-2, so it only uses
    already-known values.  Quadratic work per cell, fine for oracle sizes.
    """
    f: dict = {}

    def square_at(i: int, j: int) -> int:
        return sum(
            f[k, l] * f[i - k, j - l] for k in range(i + 1) for l in range(j + 1)
        )

    for d in range(max_a + max_b + 1):
        for a in range(min(d, max_a) + 1):
            b = d - a
            if b > max_b:
                continue
            if (a, b) == (0, 0):
                f[a, b] = 1
                continue
            value = 0
            if a >= 1:
                value += 2 * f[a - 1, b]
            if b >= 1:
                value += f[a, b - 1]
            if a >= 2:
                value += square_at(a - 2, b)
            if a >= 1 and b >= 1:
                value += square_at(a - 1, b - 1)
            f[a, b] = value
    return f


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def cells(rect: Rect):
    """Every index (a, b) of ``rect``, first variable outer, ascending."""
    return product(range(rect.max_a + 1), range(rect.max_b + 1))


def truncated(x: BiSeries, rect: Rect) -> BiSeries:
    """``x`` cut down to ``rect``, a rectangle inside its own, by slices of its rows."""
    return BiSeries(row[: rect.max_b + 1] for row in x.coeff[: rect.max_a + 1])


def quadratic_residual(f: BiSeries) -> BiSeries:
    """z(z+w) f^2 + (2z+w-1) f + 1 on f's own window."""
    window = f.rect
    one = BiSeries.one(window)
    linear = poly(window, {(1, 0): 2, (0, 1): 1})
    quadratic = poly(window, {(2, 0): 1, (1, 1): 1})
    return quadratic * (f * f) + linear * f - f + one


def random_series(rng, rect: Rect, constant=None) -> BiSeries:
    """Random table with numerators in [-9, 9] and denominators in [1, 9]."""
    entries = {}
    for a, b in cells(rect):
        entries[a, b] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if constant is not None:
        entries[0, 0] = Fraction(constant)
    return BiSeries.from_table(rect, entries)


def record_calls(monkeypatch, name: str, *owners) -> list:
    """Patch ``name`` on each owner to record its calls and run the original.

    Returns one list for all owners, with the positional arguments of each
    call as a tuple (``self`` first for a method patched on its class).
    """
    calls: list = []
    for owner in owners:

        def recorder(*args, _original=getattr(owner, name)):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(owner, name, recorder)
    return calls


def corrupted_closed_table(p: int, window: Rect) -> BiSeries:
    """The closed route as every command sees it, with c_2(1, 0) one too large."""
    table = closed_table(p, window)
    if p == 2 and window.contains(1, 0):
        return BiSeries(
            [row[0] + 1, *row[1:]] if m == 1 else row for m, row in enumerate(table.coeff)
        )
    return table


def scaled_closed_table(p: int, window: Rect) -> BiSeries:
    """The closed route with its column ratio doubled: every cell c_p(m, n) times 2^m."""
    return BiSeries([[v << m for v in row] for m, row in enumerate(closed_table(p, window).coeff)])


def corrupt_route(monkeypatch, route: str, delta, owner=None) -> None:
    """Shift cell (0, 0) of the table ``owner.<route>`` returns by ``delta``.

    ``owner`` defaults to the home module of ``kirkman.<route>``.
    """
    if owner is None:
        owner = import_module(getattr(kirkman, route).__module__)
    original = getattr(owner, route)

    def corrupted(*args):
        (first, *rest), *rows = original(*args).coeff
        return BiSeries([(first + delta, *rest), *rows])

    monkeypatch.setattr(owner, route, corrupted)


def corrupt_radical_root(monkeypatch, m: int, n: int, delta: int) -> None:
    """Add ``delta`` to the numerator the radical route divides by m at root cell (m, n)."""
    formulas = import_module("kirkman.formulas")
    divide = formulas._root_cell

    def corrupted(num, a, b):
        return divide(num + (delta if (a, b) == (m, n) else 0), a, b)

    monkeypatch.setattr(formulas, "_root_cell", corrupted)


def interrupted(p: int, window: Rect) -> BiSeries:
    """A route builder stopped by Ctrl-C."""
    raise KeyboardInterrupt


def times_one_plus_half_y(g: tuple) -> tuple:
    """g * (1 + y/2), rows read as y: [y^1] phi^2 = 1 is not divisible by m + p = 2."""
    return tuple(
        tuple(x + Fraction(y, 2) for x, y in zip(row, lower))
        for row, lower in zip(g, ((0,) * len(g[0]), *g))
    )


def cli_env() -> dict:
    """This process's environment, with the kirkman under test on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": str(Path(kirkman.__file__).parents[1])}
