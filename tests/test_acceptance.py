"""Acceptance suite: one test per criterion, exact equality throughout.

Every test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output of a failing run).  Time budgets are
asserted where the criterion states one.
"""

from __future__ import annotations

import functools
import json
import random
import time
from fractions import Fraction
from math import comb

import kirkman.closed as closed_module
from kirkman.cli import main
from kirkman.formulas import closed_form_coeff, fixpoint_series, power_series, radical_series
from kirkman.series import BiSeries, Rect, poly

from oracles import (
    catalan, cells, corrupt_route, corrupted_closed_table, quadratic_residual, random_series,
    truncated,
)


def criterion(number: int, label: str):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                suffix = func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {label}")
                raise
            extra = f" ({suffix})" if suffix else ""
            print(f"ACCEPTANCE {number} PASS: {label}{extra}")

        return wrapper

    return decorate


@criterion(1, "Kirkman's hypothesis over 0<=M,N<=25 (676 cases)")
def test_criterion_1_kirkman_hypothesis(capsys):
    start = time.perf_counter()
    code = main(["verify", "--r", "1", "--s", "1", "--max-M", "25", "--max-N", "25"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "676 cases" in out
    assert elapsed < 10.0
    return f"{elapsed:.2f}s"


@criterion(2, "Cayley's special case up to M=200 with >10^100 coefficients")
def test_criterion_2_cayley(capsys):
    start = time.perf_counter()
    code = main(["verify", "--r", "1", "--s", "1", "--cayley", "--max-M", "200"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 10.0
    assert closed_form_coeff(1, 200, 0) > 10**100
    assert closed_form_coeff(2, 200, 0) > 10**100
    return f"{elapsed:.2f}s"


@criterion(3, "generalized identity for all 1<=r,s<=4 over 0<=M,N<=15")
def test_criterion_3_generalized(capsys):
    start = time.perf_counter()
    for r in range(1, 5):
        for s in range(1, 5):
            code = main(
                ["verify", "--r", str(r), "--s", str(s), "--max-M", "15", "--max-N", "15"]
            )
            assert code == 0, f"sweep failed for r={r} s={s}"
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 60.0
    return f"16 sweeps in {elapsed:.2f}s"


@criterion(4, "three-route agreement on 0<=m,n<=12 for p in 1..5, radical included at p=1")
def test_criterion_4_crosscheck(capsys):
    start = time.perf_counter()
    for p in range(1, 6):
        code = main(["crosscheck", "--p", str(p), "--max-m", "12", "--max-n", "12"])
        assert code == 0, f"crosscheck failed for p={p}"
    capsys.readouterr()
    # the radical route must be populated and agree cellwise at p=1
    code = main(["crosscheck", "--p", "1", "--max-m", "12", "--max-n", "12",
                 "--format", "json-lines"])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 169
    assert all(record["radical"] == record["closed"] for record in records)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    return f"{elapsed:.2f}s"


@criterion(5, "p=1 and p=2 closed-form tables match the series tables on the 12x12 window")
def test_criterion_5_expansion_tables():
    window = Rect(12, 12)
    for p in (1, 2):
        table = power_series(p, window)
        for m, n in cells(window):
            assert table[m, n] == closed_form_coeff(p, m, n), (p, m, n)
    return None


@criterion(6, "quadratic residual identically zero on 16x16 for both constructions")
def test_criterion_6_quadratic_residual():
    window = Rect(16, 16)
    zero = BiSeries.from_table(window, {})
    assert quadratic_residual(fixpoint_series(window)) == zero
    assert quadratic_residual(radical_series(window)) == zero
    return None


@criterion(7, "boundary rows: Catalan column for m<=20 and C(n+p-1,n) row for n<=20, p<=5")
def test_criterion_7_boundary_rows():
    column = fixpoint_series(Rect(20, 0))
    for m in range(21):
        expected = catalan(m + 1)
        assert column[m, 0] == expected
        assert closed_form_coeff(1, m, 0) == expected
    for p in range(1, 6):
        row = power_series(p, Rect(0, 20))
        for n in range(21):
            expected = comb(n + p - 1, n)
            assert row[0, n] == expected
            assert closed_form_coeff(p, 0, n) == expected
    return None


@criterion(8, "integrality assertion holds for all p<=6, m,n<=20")
def test_criterion_8_integrality():
    for p in range(1, 7):
        for m in range(21):
            for n in range(21):
                value = closed_form_coeff(p, m, n)  # raises if non-integral
                assert isinstance(value, int)
    return "2646 evaluations"


@criterion(9, "series property suite on 1000 randomized instances")
def test_criterion_9_property_suite():
    rng = random.Random(2024)
    for _ in range(1000):
        # ring laws on a random rectangle up to 6x6
        rect = Rect(rng.randint(0, 6), rng.randint(0, 6))
        x = random_series(rng, rect)
        y = random_series(rng, rect)
        t = random_series(rng, rect)
        one = BiSeries.one(rect)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * t == x * (y * t)
        assert x * (y + t) == x * y + x * t
        assert one * x == x

        # reciprocal round-trip (nonzero constant term)
        u = random_series(rng, rect, constant=Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        assert u * u.reciprocal() == one

        # sqrt round-trip (constant term one)
        v = random_series(rng, rect, constant=1)
        root = v.sqrt()
        assert root * root == v

        # division by z round-trip, on a rectangle with at least one z degree
        rect_z = Rect(rng.randint(1, 6), rng.randint(0, 6))
        q = random_series(rng, rect_z)
        z = poly(rect_z, {(1, 0): 1})
        product = z * q
        quotient = product.div_z()
        embedded = BiSeries.from_table(
            rect_z, {(a, b): quotient[a, b] for a, b in cells(quotient.rect)}
        )
        assert z * embedded == product

        # division by z+w round-trip through the padded rectangle
        target = Rect(rng.randint(0, 3), rng.randint(0, 3))
        padded = Rect(target.max_a + target.max_b + 1, target.max_b)
        q2 = random_series(rng, padded)
        zw = poly(padded, {(1, 0): 1, (0, 1): 1})
        quotient2 = (zw * q2).div_z_plus_w(target)
        assert quotient2 == truncated(q2, target)
    return "1000 instances"


@criterion(10, "corrupted coefficient drives verify and crosscheck to exit 1")
def test_criterion_10_mutation(monkeypatch, capsys):
    monkeypatch.setattr(closed_module, "closed_table", corrupted_closed_table)

    code = main(["verify", "--r", "1", "--s", "1", "--max-M", "3", "--max-N", "3",
                 "--format", "json-lines"])
    out = capsys.readouterr().out
    assert code == 1
    last = json.loads(out.splitlines()[-1])
    assert last == {"M": 1, "N": 0, "lhs": 4, "rhs": 5, "status": "fail"}

    corrupt_route(monkeypatch, "lagrange_table", 7)
    code = main(["crosscheck", "--p", "1", "--max-m", "1", "--max-n", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL")
    for route in ("closed=", "series=", "lagrange=", "radical="):
        assert route in out

    for route, shown in (("power_series", "series=8"), ("radical_series", "radical=8")):
        monkeypatch.undo()
        corrupt_route(monkeypatch, route, 7)
        code = main(["crosscheck", "--p", "1", "--max-m", "1", "--max-n", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL")
        assert shown in out
    return None
