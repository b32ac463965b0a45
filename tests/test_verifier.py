"""Tests for the identity sweeps and the cross-method checks."""

from __future__ import annotations

import decimal
import json
import math
from collections import Counter

import pytest

import kirkman.closed as closed_module
import kirkman.formulas as formulas_module
import kirkman.verifier as verifier_module
from kirkman.cli import main
from kirkman.closed import closed_table, cross_check_methods
from kirkman.formulas import closed_form_coeff, power_series
from kirkman.lagrange import lagrange_table
from kirkman.series import BiSeries, Rect
from kirkman.verifier import convolution_lhs, sweep_cells

from oracles import (
    catalan, cells, corrupt_route, corrupted_closed_table, dissections, record_calls
)


def holds(r, s, max_M, max_N):
    # the sweep's verdict alone, as README gives it
    return all(lhs == rhs for *_, lhs, rhs in sweep_cells(r, s, max_M, max_N))


def test_identity_params_validation():
    with pytest.raises(ValueError, match="power"):
        next(sweep_cells(0, 1, 0, 0))
    with pytest.raises(ValueError, match="non-negative"):
        next(sweep_cells(1, 1, -1, 0))


# ---- the closed table by term ratios ----


def test_closed_table_equals_closed_form():
    # every cell of the acceptance windows (all within 25x25) and of an
    # asymmetric window, against the one-cell binomial reference
    for window in (Rect(25, 25), Rect(24, 16)):
        for p in range(1, 7):
            table = closed_table(p, window)
            for m, n in cells(window):
                assert table[m, n] == closed_form_coeff(p, m, n), (p, m, n)


def test_closed_table_counts_polygon_dissections():
    # c_p(m, n) sums C(deg_0(D), p - 1) over the dissections D of the
    # (m + n + p + 2)-gon by m + p - 1 diagonals, deg_0(D) being the number
    # of D's diagonals at vertex 0; at p = 1, the Kirkman-Cayley count of
    # dissections by their number of diagonals (OEIS A033282).  Every cell
    # whose polygon has at most 10 vertices, by enumeration.
    tallies = {
        k: Counter((len(d), sum(0 in diagonal for diagonal in d)) for d in dissections(k))
        for k in range(3, 11)
    }
    checked = 0
    for p in range(1, 5):
        window = Rect(8 - p, 8 - p)
        table = closed_table(p, window)
        for m, n in cells(window):
            if m + n + p + 2 <= 10:
                tally = tallies[m + n + p + 2]
                expected = sum(
                    count * math.comb(at_zero, p - 1)
                    for (size, at_zero), count in tally.items()
                    if size == m + p - 1
                )
                assert table.coeff[m][n] == expected, (p, m, n)
                checked += 1
    assert checked == 100


def test_closed_table_catalan_column_to_2000():
    column = closed_table(1, Rect(2000, 0))
    assert [column[m, 0] for m in range(2001)] == [catalan(m + 1) for m in range(2001)]


@pytest.mark.parametrize(
    "build",
    [
        lambda p: closed_table(p, Rect(2, 2)),
        lambda p: power_series(p, Rect(2, 2)),
        lambda p: lagrange_table(p, Rect(2, 2)),
        lambda p: closed_form_coeff(p, 1, 1),
    ],
    ids=["closed_table", "power_series", "lagrange_table", "closed_form_coeff"],
)
def test_every_builder_rejects_power_zero(build):
    with pytest.raises(ValueError, match=r"^power must be >= 1, got 0$"):
        build(0)


def test_closed_table_asserts_integrality_at_every_step(monkeypatch):
    # a step that comes out one too large, c_2(1, 0) = 5 instead of 4, makes
    # the next step's division leave a remainder: 5 * 21 / 6 = 35/2
    divide = closed_module._integral_quotient

    def one_too_many(num, den, p, m, n):
        value = divide(num, den, p, m, n)
        return value + 1 if (p, m, n) == (2, 1, 0) else value

    monkeypatch.setattr(closed_module, "_integral_quotient", one_too_many)
    with pytest.raises(ArithmeticError, match="integrality violated at p=2 m=1 n=1: 35/2$"):
        closed_table(2, Rect(1, 1))


def test_verify_takes_no_binomial(monkeypatch, capsys):
    calls = record_calls(monkeypatch, "comb", math, formulas_module)
    assert main(["verify", "--r", "1", "--s", "1", "--max-M", "8", "--max-N", "8"]) == 0
    assert "81 cases" in capsys.readouterr().out
    assert calls == []
    # the recorder sees the one-cell closed form's binomials
    assert main(["coeff", "--p", "1", "--m", "1", "--n", "1"]) == 0
    assert capsys.readouterr().out == "5\n"
    assert calls


def test_convolution_lhs_examples():
    window = Rect(1, 1)
    one, two = closed_table(1, window), closed_table(2, window)
    assert convolution_lhs(one, one, 0, 0) == 1
    assert convolution_lhs(one, one, 1, 0) == 4
    assert convolution_lhs(two, one, 1, 1) == 27


def test_convolution_lhs_refuses_a_cell_outside_one_table():
    small, large = closed_table(1, Rect(1, 1)), closed_table(1, Rect(2, 2))
    for x, y in ((small, large), (large, small)):
        with pytest.raises(IndexError, match=r"cell \(2, 2\) outside"):
            convolution_lhs(x, y, 2, 2)


def test_convolution_lhs_is_a_product_cell():
    window = Rect(5, 5)
    for r, s in [(1, 1), (2, 1), (2, 3)]:
        product = power_series(r, window) * power_series(s, window)
        x, y = closed_table(r, window), closed_table(s, window)
        for M, N in cells(window):
            assert convolution_lhs(x, y, M, N) == product[M, N]


def test_power_product_matches_power_sum():
    # f^r * f^s = f^(r+s) at the series level
    window = Rect(6, 6)
    for r, s in [(1, 1), (2, 1), (2, 3)]:
        assert power_series(r, window) * power_series(s, window) == power_series(r + s, window)


def test_verify_single_cell():
    assert list(sweep_cells(1, 1, 0, 0)) == [(0, 0, 1, 1)]


def test_verify_kirkman_hypothesis_small():
    assert holds(1, 1, 10, 10)
    assert len(list(sweep_cells(1, 1, 10, 10))) == 121


def test_verify_generalized_case():
    assert holds(3, 2, 8, 8)
    assert len(list(sweep_cells(3, 2, 8, 8))) == 81


def test_verify_symmetry_in_r_and_s():
    left = list(sweep_cells(2, 4, 6, 6))
    assert left == list(sweep_cells(4, 2, 6, 6))
    assert len(left) == 49 and all(lhs == rhs for *_, lhs, rhs in left)


def test_verify_cayley_case():
    # Cayley's case is the N = 0 sweep of r = s = 1
    assert holds(1, 1, 0, 0)
    cells = list(sweep_cells(1, 1, 50, 0))
    assert [(M, N) for M, N, _, _ in cells] == [(M, 0) for M in range(51)]
    assert all(lhs == rhs for *_, lhs, rhs in cells)


def test_sweep_takes_no_product_cell(monkeypatch, capsys):
    # the left side is one packed product of the closed tables, not a
    # convolution sum per cell
    calls = record_calls(monkeypatch, "_product_cell", verifier_module)
    assert holds(2, 3, 24, 24)
    argv = ["verify", "--r", "2", "--s", "3", "--max-M", "24", "--max-N", "24", "--format", "csv"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 25 * 25
    assert calls == []
    # the spy sees the one-cell reference's product cell
    one = closed_table(1, Rect(1, 1))
    assert convolution_lhs(one, one, 1, 1) == 14
    assert calls


def test_sweep_builds_one_table_per_distinct_power(monkeypatch):
    # Kirkman's r = s = 1 needs the tables of c_1 and c_2 only
    calls = record_calls(monkeypatch, "closed_table", closed_module)
    assert holds(1, 1, 6, 6)
    assert sorted(p for p, _ in calls) == [1, 2]


@pytest.mark.parametrize(
    "r, s, max_M, max_N, same", [(2, 2, 2000, 0, [True]), (2, 3, 48, 48, [False, False])]
)
def test_sweep_squares_one_packed_number_when_r_equals_s(monkeypatch, r, s, max_M, max_N, same):
    # unsplit (its row split is 0), an r = s sweep multiplies the one
    # packed table by itself, which libmpdec squares; the split r != s
    # sweep multiplies two pairs of distinct numbers
    operands = []

    class Recording(decimal.Context):
        def multiply(self, a, b):
            operands.append(a is b)
            return super().multiply(a, b)

    monkeypatch.setattr(decimal, "Context", Recording)
    assert holds(r, s, max_M, max_N)
    assert operands == same


def test_sweep_cells_order():
    cells = [(M, N) for M, N, _, _ in sweep_cells(1, 1, 2, 1)]
    assert cells == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_sweep_cells_reads_the_tables_by_rows(monkeypatch):
    calls = record_calls(monkeypatch, "__getitem__", BiSeries)
    list(sweep_cells(2, 3, 8, 8))
    assert calls == []
    # the spy sees a read by cell
    assert BiSeries.one(Rect(0, 0))[0, 0] == 1
    assert calls


@pytest.mark.parametrize("p, size", [(5, 12), (1, 6)])
def test_cross_check_methods_reads_the_tables_by_rows(monkeypatch, p, size):
    calls = record_calls(monkeypatch, "__getitem__", BiSeries)
    rows = cross_check_methods(p, size, size)
    assert len(rows) == (size + 1) ** 2
    assert calls == []
    # the spy sees a read by cell
    assert BiSeries.one(Rect(0, 0))[0, 0] == 1
    assert calls


def test_cross_check_single_cell():
    # (m, n, closed, series, lagrange, radical, agree), in kirkman.ROUTES order
    assert cross_check_methods(1, 0, 0) == [(0, 0, 1, 1, 1, 1, True)]


def test_cross_check_square_window():
    rows = cross_check_methods(2, 5, 5)
    assert len(rows) == 36
    assert all(agree for *_, agree in rows)
    assert all(radical is None for *_, radical, _ in rows)


def test_cross_check_catalan_row():
    rows = cross_check_methods(1, 4, 0)
    assert [closed for _, _, closed, *_ in rows] == [catalan(m + 1) for m in range(5)]
    for m, n, closed, series, lagrange, radical, agree in rows:
        assert series == lagrange == radical == closed
        assert agree


def test_verify_reports_first_counterexample(monkeypatch):
    # corrupt the rhs coefficient at (p, M, N) = (2, 1, 0)
    monkeypatch.setattr(closed_module, "closed_table", corrupted_closed_table)
    assert not holds(1, 1, 2, 2)
    # (0,0), (0,1), (0,2), then (1,0) fails
    assert list(sweep_cells(1, 1, 2, 2)) == [(0, 0, 1, 1), (0, 1, 2, 2), (0, 2, 3, 3), (1, 0, 4, 5)]


def test_sweep_cells_stops_at_the_reported_counterexample(monkeypatch, capsys):
    # verify's pretty FAIL line reports the sweep's last cell
    monkeypatch.setattr(closed_module, "closed_table", corrupted_closed_table)
    *passed, (M, N, lhs, rhs) = sweep_cells(1, 1, 2, 2)
    assert all(left == right for _, _, left, right in passed)
    assert main(["verify", "--r", "1", "--s", "1", "--max-M", "2", "--max-N", "2"]) == 1
    assert capsys.readouterr().out == (
        f"FAIL r=1 s=1 0<=M<=2 0<=N<=2: counterexample at M={M} N={N}: lhs={lhs} rhs={rhs}\n"
    )
    assert (M, N, lhs, rhs) == (1, 0, 4, 5)


def test_cross_check_detects_route_disagreement(monkeypatch):
    corrupt_route(monkeypatch, "lagrange_table", 7)
    rows = cross_check_methods(1, 1, 1)
    assert [agree for *_, agree in rows] == [False, True, True, True]
    assert rows[0] == (0, 0, 1, 1, 8, 1, False)


def test_coeff_report_agree_includes_radical(monkeypatch):
    # a row's agree reads the radical column where there is one, and skips its None
    assert cross_check_methods(1, 1, 1)[-1] == (1, 1, 5, 5, 5, 5, True)
    assert cross_check_methods(2, 1, 1)[-1] == (1, 1, 14, 14, 14, None, True)
    corrupt_route(monkeypatch, "radical_series", 1)
    assert cross_check_methods(1, 1, 1)[0] == (0, 0, 1, 1, 1, 2, False)


@pytest.mark.parametrize("p", [1, 2])
def test_cross_check_rows_are_the_crosscheck_json_lines_records(capsys, p):
    argv = ["crosscheck", "--p", str(p), "--max-m", "3", "--max-n", "2", "--format", "json-lines"]
    assert main(argv) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [tuple(record.values()) for record in records] == cross_check_methods(p, 3, 2)
