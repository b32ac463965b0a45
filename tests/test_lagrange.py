"""Tests for the Lagrange inversion route."""

from __future__ import annotations

from math import comb

import pytest

from kirkman import lagrange as lagrange_module
from kirkman.closed import closed_table
from kirkman.formulas import closed_form_coeff, fixpoint_series
from kirkman.lagrange import build_phi, lagrange_coeff, lagrange_table
from kirkman.series import BiSeries, Rect

from oracles import catalan, poly, times_one_plus_half_y


# The fixed point y = z * phi(y) solved by substitution: a check on phi that
# shares nothing with lagrange_table's powering.


def solve_y_fixpoint(window: Rect) -> BiSeries:
    """Solve y = z * phi(y) on ``window`` (variables read as (z, w)).

    y has no constant term in z (y = z * f), so substituting the current
    approximation into phi and multiplying by z fixes one more z-degree per
    pass: max_a passes are exact on the window.
    """
    phi = build_phi(Rect(window.max_a, window.max_b))
    z = poly(window, {(1, 0): 1})
    y = BiSeries.from_table(window, {})
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


def test_build_phi_constant_term():
    assert build_phi(Rect(2, 2))[0, 0] == 1


def test_build_phi_geometric_row_at_y0():
    phi = build_phi(Rect(1, 2))
    assert [phi[0, j] for j in range(3)] == [1, 1, 1]


def test_build_phi_small_table():
    # (1+2y)(1 + w + wy + w^2 + 2w^2 y) truncated to (1, 2)
    phi = build_phi(Rect(1, 2))
    expected = BiSeries.from_table(
        Rect(1, 2),
        {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 2, (1, 1): 3, (1, 2): 4},
    )
    assert phi == expected
    assert phi[1, 1] == 3


@pytest.mark.parametrize(
    "window",
    [Rect(0, 0), Rect(1, 2), Rect(6, 4), Rect(12, 12), Rect(0, 9), Rect(9, 0)],
    ids=lambda w: f"{w.max_a}x{w.max_b}",
)
def test_build_phi_equals_numerator_over_denominator(window):
    # one step of _times_phi against the series product and reciprocal
    numerator = poly(window, {(0, 0): 1, (1, 0): 2, (2, 0): 1})
    denominator = poly(window, {(0, 0): 1, (0, 1): -1, (1, 1): -1})
    assert build_phi(window) == numerator * denominator.reciprocal()


def test_lagrange_coeff_examples():
    assert lagrange_coeff(1, 0, 5) == 1
    assert lagrange_coeff(1, 1, 1) == 5
    assert lagrange_coeff(2, 0, 1) == 2


def test_lagrange_coeff_rejects_bad_arguments():
    with pytest.raises(ValueError, match="power"):
        lagrange_coeff(0, 1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        lagrange_coeff(1, -1, 0)


def test_lagrange_table_asserts_integrality(monkeypatch):
    # phi = 1 + y/2 gives [y^1] phi^2 = 1, not divisible by m + p = 2
    monkeypatch.setattr(lagrange_module, "_times_phi", times_one_plus_half_y)
    with pytest.raises(ArithmeticError, match="integrality violated at p=1 m=1 n=0: 1/2$"):
        lagrange_table(1, Rect(1, 0))


def test_lagrange_agrees_with_closed_form():
    for p in (1, 2, 3):
        for m in range(5):
            for n in range(5):
                assert lagrange_coeff(p, m, n) == closed_form_coeff(p, m, n)


@pytest.mark.parametrize(
    "p, window",
    [(p, w) for p in (1, 2, 3, 4, 5) for w in (Rect(7, 4), Rect(0, 6), Rect(6, 0), Rect(5, 5))]
    # long rows, long columns and a large square
    + [(5, Rect(40, 40)), (3, Rect(300, 0)), (2, Rect(0, 300)), (7, Rect(1, 60))],
    ids=lambda v: f"{v.max_a}x{v.max_b}" if isinstance(v, Rect) else None,
)
def test_lagrange_table_equals_closed_table(p, window):
    # rows m < max_m come from the running power, which no corner read reaches
    assert lagrange_table(p, window) == closed_table(p, window)


def test_phi_square_first_y_row():
    # [y^1 w^n] phi^2 = (n+1)(n+4), from (1+y)^4 / (1 - w(1+y))^2
    phi = build_phi(Rect(1, 6))
    square = phi * phi
    for n in range(7):
        assert square[1, n] == (n + 1) * (n + 4)


def test_solve_y_has_no_constant_row():
    y = solve_y_fixpoint(Rect(3, 3))
    assert all(y[0, b] == 0 for b in range(4))


def test_solve_y_leading_cell():
    y = solve_y_fixpoint(Rect(2, 2))
    assert y[1, 0] == 1


def test_solve_y_matches_base_series():
    y = solve_y_fixpoint(Rect(5, 5))
    assert y.div_z() == fixpoint_series(Rect(4, 5))


def test_solve_y_residual_vanishes():
    y = solve_y_fixpoint(Rect(5, 4))
    assert fixed_point_residual(y) == BiSeries.from_table(Rect(5, 4), {})


def test_intermediate_binomial_identity():
    # [y^m] (1+y)^(2m+n+2p) extracted by series powering equals both
    # binomial evaluations that close the coefficient derivation
    for p, m, n in [(1, 2, 3), (2, 3, 1), (3, 1, 4), (4, 0, 0), (2, 5, 2)]:
        e = 2 * m + n + 2 * p
        one_plus_y = poly(Rect(m, 0), {(0, 0): 1, (1, 0): 1})
        power = one_plus_y ** e
        assert power[m, 0] == comb(e, m) == comb(e, m + n + 2 * p)


def test_solve_y_window_without_z_degrees():
    # max_a = 0 leaves no room for any z power: y is the zero series
    assert solve_y_fixpoint(Rect(0, 4)) == BiSeries.from_table(Rect(0, 4), {})


def test_catalan_through_lagrange():
    assert [lagrange_coeff(1, m, 0) for m in range(5)] == [catalan(m + 1) for m in range(5)]
