"""Tests for the closed form and the two series constructions."""

from __future__ import annotations

import ast
import inspect
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import comb
from pathlib import Path

import pytest

from kirkman import formulas, lagrange, series
from kirkman.formulas import (
    closed_form_coeff,
    fixpoint_series,
    power_series,
    radical_series,
)
from kirkman.closed import closed_table
from kirkman.series import BiSeries, Rect

from oracles import (
    catalan,
    cells,
    corrupt_radical_root,
    corrupt_route,
    naive_mul,
    quadratic_residual,
    quadratic_table,
    record_calls,
)


def test_closed_form_examples():
    assert closed_form_coeff(1, 0, 0) == 1
    assert closed_form_coeff(1, 1, 1) == 5
    assert closed_form_coeff(2, 1, 1) == 14
    assert closed_form_coeff(3, 1, 1) == 27


def test_closed_form_rejects_bad_index():
    with pytest.raises(ValueError, match="power"):
        closed_form_coeff(0, 1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        closed_form_coeff(1, 0, -1)


def test_closed_form_reduces_to_first_power_display():
    # p=1 must reduce to (1/(m+1)) C(m+n, n) C(2m+n+2, m+n+2)
    for m in range(9):
        for n in range(9):
            expected = Fraction(1, m + 1) * comb(m + n, n) * comb(2 * m + n + 2, m + n + 2)
            assert closed_form_coeff(1, m, n) == expected


def test_closed_form_reduces_to_second_power_display():
    # p=2 must reduce to (2/(m+2)) C(m+n+1, n) C(2m+n+4, m+n+4)
    for m in range(9):
        for n in range(9):
            expected = Fraction(2, m + 2) * comb(m + n + 1, n) * comb(2 * m + n + 4, m + n + 4)
            assert closed_form_coeff(2, m, n) == expected


def test_closed_form_returns_python_int():
    value = closed_form_coeff(4, 9, 7)
    assert isinstance(value, int) and not isinstance(value, bool)


def test_closed_form_asserts_integrality(monkeypatch):
    # with every binomial 1, p C C = 1 is not divisible by m + p = 2
    monkeypatch.setattr(formulas, "comb", lambda a, b: 1)
    with pytest.raises(ArithmeticError, match="integrality violated at p=1 m=1 n=0: 1/2$"):
        closed_form_coeff(1, 1, 0)


def test_power_series_asserts_integrality():
    # the route only adds ints, so it needs no integrality pass of its own:
    # every cell of f^p comes out an exact int, on square and skew windows
    for p in (1, 2, 3, 6):
        for window in (Rect(0, 5), Rect(5, 0), Rect(9, 4), Rect(4, 9)):
            table = power_series(p, window)
            assert all(type(value) is int for row in table.coeff for value in row)
            assert table == closed_table(p, window)


def test_radical_series_asserts_integrality(monkeypatch):
    # the division by z+w is the route's last step; corrupting the halving
    # before it would trip that division's residual check instead
    corrupt_route(monkeypatch, "div_z_plus_w", Fraction(1, 2), BiSeries)
    with pytest.raises(ArithmeticError, match="integrality violated at p=1 m=0 n=0: 3/2$"):
        radical_series(Rect(2, 2))


def test_fixpoint_trivial_window():
    assert fixpoint_series(Rect(0, 0)) == BiSeries.one(Rect(0, 0))


def test_fixpoint_small_window():
    f = fixpoint_series(Rect(1, 1))
    assert f == BiSeries.from_table(Rect(1, 1), {(0, 0): 1, (1, 0): 2, (0, 1): 1, (1, 1): 5})


def test_fixpoint_catalan_row():
    f = fixpoint_series(Rect(4, 0))
    assert [int(f[m, 0]) for m in range(5)] == [1, 2, 5, 14, 42]
    assert [catalan(m + 1) for m in range(5)] == [1, 2, 5, 14, 42]


@pytest.mark.parametrize(
    "window",
    [Rect(6, 6), Rect(12, 3), Rect(3, 12), Rect(9, 0), Rect(0, 9)],
    ids=lambda w: f"{w.max_a}x{w.max_b}",
)
def test_fixpoint_matches_recurrence_oracle(window):
    f = fixpoint_series(window)
    table = quadratic_table(window.max_a, window.max_b)
    for a, b in cells(window):
        assert f[a, b] == table[a, b]


def test_fixpoint_takes_f_squared_a_row_behind(monkeypatch):
    # row a of f reads f^2 only at rows a-1 and a-2, so row a of the powers is
    # formed for f^1 ... f^(13-a), one running sum each, ascending: the last
    # row of f^2, which the recurrence never reads, is never formed
    sums = []

    def spy(terms):
        sums.append(tuple(accumulate(terms)))
        return sums[-1]

    monkeypatch.setattr(formulas, "accumulate", spy)
    window = Rect(12, 12)
    f, square = closed_table(1, window), closed_table(2, window)
    for build in (fixpoint_series, lambda window: power_series(1, window)):
        sums.clear()
        build(window)
        assert len(sums) == 91
        rows = [sums[91 - (13 - a) * (14 - a) // 2:][: 13 - a] for a in range(13)]
        assert [row[0] for row in rows] == list(f.coeff)
        assert [row[1] for row in rows[:12]] == list(square.coeff[:12])
        assert len(rows[12]) == 1


def test_fixpoint_quadratic_residual_vanishes():
    f = fixpoint_series(Rect(6, 6))
    assert quadratic_residual(f) == BiSeries.from_table(Rect(6, 6), {})


def test_radical_trivial_window():
    assert radical_series(Rect(0, 0)) == BiSeries.one(Rect(0, 0))


def test_radical_agrees_with_fixpoint():
    for window in (Rect(2, 2), Rect(6, 6), Rect(5, 2), Rect(2, 5)):
        assert radical_series(window) == fixpoint_series(window)


def test_radical_w_row_is_geometric():
    f = radical_series(Rect(0, 3))
    assert all(f[0, n] == 1 for n in range(4))


def test_radical_equals_on_wide_window():
    window = Rect(8, 8)
    assert fixpoint_series(window) == radical_series(window)


@pytest.mark.parametrize(
    "window",
    [Rect(0, 0), Rect(1, 0), Rect(0, 1), Rect(0, 7), Rect(7, 0), Rect(20, 3), Rect(3, 20),
     Rect(40, 40), Rect(80, 80)],
    ids=lambda window: f"{window.max_a}x{window.max_b}",
)
def test_radical_equals_closed_table(window):
    # a window with max_b = 0 truncates the root's row 0, 1 - w, to (1,)
    table = radical_series(window)
    assert all(type(value) is int for row in table.coeff for value in row)
    assert table == closed_table(1, window)


def test_radical_root_divides_each_cell_exactly(monkeypatch):
    # 2 s_2 = 2 s_1 / (1-w)^2 is -12 at w^1; one more leaves a remainder
    corrupt_radical_root(monkeypatch, 2, 1, 1)
    with pytest.raises(ArithmeticError, match=r"^radical root not integral at z\^2 w\^1: -11/2$"):
        radical_series(Rect(2, 2))


def _traced_peak(build) -> int:
    # the largest traced allocation total while ``build`` runs, in bytes
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_radical_route_peak_memory_is_a_few_closed_tables():
    # the route keeps one root row and one halved numerator table, and the
    # division by z+w keeps only the window's rows
    window = Rect(120, 120)
    closed = _traced_peak(lambda: closed_table(1, window))
    radical = _traced_peak(lambda: radical_series(window))
    assert radical <= 5 * closed, radical / closed


def test_radical_quadratic_residual_vanishes():
    f = radical_series(Rect(5, 5))
    assert quadratic_residual(f) == BiSeries.from_table(Rect(5, 5), {})


def test_power_series_first_power():
    window = Rect(3, 3)
    assert power_series(1, window) == fixpoint_series(window)


def test_power_series_square_table():
    table = power_series(2, Rect(1, 1))
    assert table == BiSeries.from_table(Rect(1, 1), {(0, 0): 1, (1, 0): 4, (0, 1): 2, (1, 1): 14})


def test_power_series_cube_cell():
    assert power_series(3, Rect(1, 1))[1, 1] == 27


def test_power_series_rejects_bad_power():
    with pytest.raises(ValueError, match="power"):
        power_series(0, Rect(1, 1))


def test_power_series_matches_convolution_oracle():
    base = quadratic_table(4, 4)
    squared = naive_mul(base, base, 4, 4)
    cubed = naive_mul(squared, base, 4, 4)
    p2 = power_series(2, Rect(4, 4))
    p3 = power_series(3, Rect(4, 4))
    for a, b in cells(Rect(4, 4)):
        assert p2[a, b] == squared.get((a, b), 0)
        assert p3[a, b] == cubed.get((a, b), 0)


def test_closed_form_equals_series_tables():
    # the central claim on a small window; the acceptance suite widens this
    for p in (1, 2, 3, 4):
        table = power_series(p, Rect(6, 6))
        for m, n in cells(Rect(6, 6)):
            assert table[m, n] == closed_form_coeff(p, m, n)


def test_boundary_rows():
    for p in range(1, 6):
        for n in range(13):
            assert closed_form_coeff(p, 0, n) == comb(n + p - 1, n)
    for m in range(13):
        assert closed_form_coeff(1, m, 0) == catalan(m + 1)


def test_integrality_small_sweep():
    for p in range(1, 5):
        for m in range(13):
            for n in range(13):
                assert isinstance(closed_form_coeff(p, m, n), int)


def _names(source) -> set[str]:
    # every name, attribute, imported name and imported module in the source
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(source))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rpartition(".")[2])
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_series_routes_never_reach_the_closed_form():
    # the routes share the series kernels but none is rewritten in terms of
    # another: no series or Lagrange code names the binomial closed form, and
    # the Lagrange and quadratic modules do not import each other
    sources = [
        formulas.fixpoint_series,
        formulas.radical_series,
        formulas.power_series,
        lagrange._times_phi,
        lagrange.build_phi,
        lagrange.lagrange_table,
        series,
    ]
    forbidden = {"closed_form_coeff", "binomial", "comb", "closed_table"}
    for source in sources:
        assert not _names(source) & forbidden, (source.__name__, _names(source) & forbidden)
    assert "formulas" not in _names(lagrange)
    assert "lagrange" not in _names(formulas)
    # the Lagrange route takes its powers by its own step, not by the series kernels
    assert not _names(lagrange) & {"_fill", "poly", "reciprocal", "restrict"}


def test_lagrange_route_takes_no_series_power(monkeypatch):
    # phi^(m+p) comes from the running power's step, which multiplies by
    # phi's numerator and divides by its denominator in additions
    products = record_calls(monkeypatch, "__mul__", BiSeries)
    powers = record_calls(monkeypatch, "__pow__", BiSeries)
    lagrange.lagrange_table(5, Rect(12, 12))
    assert products == [] and powers == []
    # the spies see a series power and the products inside it
    BiSeries.one(Rect(1, 1)) ** 2
    assert products and powers


def test_series_route_is_additions_only(monkeypatch):
    # every power of f comes from the quadratic's own recurrence in running
    # sums: the route names no product cell, table filler or divider, calls
    # none, and so needs no integrality check
    kernels = {"_fill", "_product_cell", "_quotient", "_integral_quotient"}
    for source in (formulas.power_series, formulas.fixpoint_series):
        assert not _names(source) & kernels, (source.__name__, _names(source) & kernels)
    calls = record_calls(monkeypatch, "_product_cell", series)
    calls += record_calls(monkeypatch, "_fill", series)
    table = power_series(5, Rect(12, 12))
    assert calls == []
    assert all(type(value) is int for row in table.coeff for value in row)
    # the spies see the square root's filler and its product cells
    BiSeries.one(Rect(1, 1)).sqrt()
    assert calls


def test_radical_route_takes_no_series_square_root(monkeypatch):
    # the root comes from its own row recurrence in running sums: the route
    # names and calls no product cell, table filler or series square root
    kernels = {"_fill", "_product_cell", "sqrt"}
    assert not _names(formulas.radical_series) & kernels
    spies = {
        name: record_calls(monkeypatch, name, owner)
        for name, owner in (("_product_cell", series), ("_fill", series), ("sqrt", BiSeries))
    }
    table = radical_series(Rect(12, 12))
    assert not any(spies.values())
    assert all(type(value) is int for row in table.coeff for value in row)
    # the spies see the square root, its filler and its product cells
    BiSeries.one(Rect(1, 1)).sqrt()
    assert all(spies.values())


def test_series_route_takes_no_series_power(monkeypatch):
    # f^p comes from the quadratic's recurrence for every power of f at once
    powers = record_calls(monkeypatch, "__pow__", BiSeries)
    power_series(5, Rect(12, 12))
    assert powers == []
    # the spy sees a series power
    BiSeries.one(Rect(1, 1)) ** 2
    assert powers


@pytest.mark.parametrize(
    "p, window",
    [
        *(pytest.param(p, Rect(24, 16), id=str(p)) for p in (1, 6, 9)),
        *(
            pytest.param(p, window, id=f"{p}-{window.max_a}x{window.max_b}")
            for p in (1, 6, 9)
            for window in (Rect(0, 7), Rect(7, 0), Rect(20, 3), Rect(3, 20))
        ),
    ],
)
def test_power_routes_agree_on_asymmetric_window(p, window):
    assert lagrange.lagrange_table(p, window) == power_series(p, window) == closed_table(p, window)


def test_runtime_imports_only_the_standard_library():
    # the package has no runtime dependencies: every import in src/kirkman is
    # relative or names a standard-library module
    package = Path(formulas.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.partition(".")[0] in sys.stdlib_module_names, (path.name, module)
