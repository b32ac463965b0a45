"""Unit and property tests for the truncated bivariate series arithmetic."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from kirkman import formulas
from kirkman import series as series_module
from kirkman.formulas import fixpoint_series, power_series, radical_series
from kirkman.closed import closed_table
from kirkman.series import BiSeries, Rect
from kirkman.verifier import (
    _kronecker_product, _slot_layout, _split_cost, _split_row, convolution_lhs
)

from oracles import cells, naive_mul, poly, random_series, record_calls, truncated

# [z^m w^n] of the base series on the (1,1) window, frozen from the
# quadratic-recurrence oracle.
F11 = {(0, 0): 1, (1, 0): 2, (0, 1): 1, (1, 1): 5}


def test_rect_validation():
    with pytest.raises(ValueError, match="non-negative"):
        Rect(-1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        Rect(0, -2)
    assert Rect(0, 0).contains(0, 0)
    assert not Rect(1, 1).contains(2, 0)
    assert list(cells(Rect(1, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_constructor_freezes_rows_and_reads_rect_from_them():
    rows = [[1, 2, 3], [4, 5, 6]]
    x, frozen = BiSeries(rows), BiSeries(((1, 2, 3), (4, 5, 6)))
    assert x == frozen and hash(x) == hash(frozen)
    assert x.rect == Rect(1, 2)
    # the caller's later edits leave the series as it was built
    rows[0][0] = 7
    rows.append([7, 8, 9])
    assert x == frozen and x[0, 0] == 1 and x.rect == Rect(1, 2)


@pytest.mark.parametrize("rows", [[], [[]], [[1, 2], [3]]], ids=["no-rows", "empty-row", "ragged"])
def test_constructor_rejects_empty_or_ragged_rows(rows):
    with pytest.raises(ValueError, match="empty or ragged"):
        BiSeries(rows)


def test_from_table_constant():
    one = BiSeries.from_table(Rect(1, 1), {(0, 0): 1})
    assert one[0, 0] == 1
    assert one[1, 1] == 0
    assert one == BiSeries.one(Rect(1, 1))


def test_from_table_z_plus_w():
    s = BiSeries.from_table(Rect(2, 2), {(1, 0): 1, (0, 1): 1})
    assert s[1, 0] == 1 and s[0, 1] == 1
    assert s[0, 0] == 0 and s[2, 2] == 0


def test_from_table_keeps_fraction_cells():
    # a non-integral Fraction is stored as it is, an integral one as an int
    quarter = Fraction(-3, 4)
    s = BiSeries.from_table(Rect(1, 1), {(0, 0): quarter, (1, 1): Fraction(6, 3)})
    assert s[0, 0] is quarter
    assert s[1, 1] == 2 and type(s[1, 1]) is int


def test_from_table_index_out_of_rectangle():
    with pytest.raises(ValueError, match="out of rectangle"):
        BiSeries.from_table(Rect(1, 1), {(2, 0): 1})


def test_add_sub():
    rect = Rect(1, 1)
    one = BiSeries.one(rect)
    z = BiSeries.from_table(rect, {(1, 0): 1})
    total = one + z
    assert total[0, 0] == 1 and total[1, 0] == 1

    x = BiSeries.from_table(rect, {(0, 0): 3, (1, 1): -2})
    assert x - x == BiSeries.from_table(rect, {})


def test_add_rectangle_mismatch():
    with pytest.raises(ValueError, match="rectangle mismatch"):
        BiSeries.one(Rect(1, 1)) + BiSeries.one(Rect(2, 1))


def test_mul_simple():
    rect = Rect(1, 1)
    one_plus_z = BiSeries.from_table(rect, {(0, 0): 1, (1, 0): 1})
    one_plus_w = BiSeries.from_table(rect, {(0, 0): 1, (0, 1): 1})
    product = one_plus_z * one_plus_w
    assert product == BiSeries.from_table(rect, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})

    rect2 = Rect(2, 2)
    zw = BiSeries.from_table(rect2, {(1, 0): 1, (0, 1): 1})
    square = zw * zw
    assert square == BiSeries.from_table(rect2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_mul_base_table_squared():
    # convolution of the (1,1) base table with itself: cell (1,1) is
    # 2*(1*5) + 2*(2*1) = 14
    f = BiSeries.from_table(Rect(1, 1), F11)
    assert (f * f)[1, 1] == 14


def test_mul_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(50):
        rect = Rect(rng.randint(0, 4), rng.randint(0, 4))
        x = random_series(rng, rect)
        y = random_series(rng, rect)
        expected = naive_mul(
            {(a, b): x[a, b] for a, b in cells(rect)},
            {(a, b): y[a, b] for a, b in cells(rect)},
            rect.max_a,
            rect.max_b,
        )
        product = x * y
        for a, b in cells(rect):
            assert product[a, b] == expected.get((a, b), 0)


def test_pow_zero_is_one():
    x = BiSeries.from_table(Rect(2, 2), {(1, 1): 4, (0, 0): 7})
    assert x ** 0 == BiSeries.one(Rect(2, 2))


def test_pow_square():
    rect = Rect(2, 0)
    one_plus_z = BiSeries.from_table(rect, {(0, 0): 1, (1, 0): 1})
    assert one_plus_z ** 2 == BiSeries.from_table(rect, {(0, 0): 1, (1, 0): 2, (2, 0): 1})


def test_pow_base_table():
    f = BiSeries.from_table(Rect(1, 1), F11)
    assert (f ** 2)[1, 0] == 4


def test_pow_negative_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        BiSeries.one(Rect(1, 1)) ** -1


def test_reciprocal_geometric():
    rect = Rect(0, 5)
    geom = BiSeries.from_table(rect, {(0, 0): 1, (0, 1): -1}).reciprocal()
    assert all(geom[0, n] == 1 for n in range(6))


def test_reciprocal_w_times_one_plus_y():
    # 1/(1 - w(1+y)) expands as sum of w^j (1+y)^j
    rect = Rect(1, 2)
    denom = BiSeries.from_table(rect, {(0, 0): 1, (0, 1): -1, (1, 1): -1})
    rec = denom.reciprocal()
    expected = BiSeries.from_table(
        rect, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 1): 1, (1, 2): 2}
    )
    assert rec == expected


def test_reciprocal_not_invertible():
    zw = BiSeries.from_table(Rect(1, 1), {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match="not invertible"):
        zw.reciprocal()


def test_reciprocal_roundtrip_random():
    rng = random.Random(11)
    for _ in range(25):
        rect = Rect(rng.randint(0, 4), rng.randint(0, 4))
        x = random_series(rng, rect, constant=Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        assert x * x.reciprocal() == BiSeries.one(rect)


def test_sqrt_of_one():
    assert BiSeries.one(Rect(3, 3)).sqrt() == BiSeries.one(Rect(3, 3))


def test_sqrt_one_minus_4z():
    rect = Rect(4, 0)
    radicand = BiSeries.from_table(rect, {(0, 0): 1, (1, 0): -4})
    root = radicand.sqrt()
    expected = BiSeries.from_table(
        rect, {(0, 0): 1, (1, 0): -2, (2, 0): -2, (3, 0): -4, (4, 0): -10}
    )
    assert root == expected
    assert root * root == radicand


def test_sqrt_perfect_square_picks_positive_branch():
    rect = Rect(2, 3)
    one_minus_w = poly(rect, {(0, 0): 1, (0, 1): -1})
    assert (one_minus_w * one_minus_w).sqrt() == one_minus_w


def test_sqrt_unsupported_radicand():
    with pytest.raises(ValueError, match="unsupported radicand"):
        BiSeries.from_table(Rect(1, 1), {(0, 0): 4}).sqrt()


def test_sqrt_roundtrip_random():
    rng = random.Random(13)
    for _ in range(25):
        rect = Rect(rng.randint(0, 4), rng.randint(0, 4))
        x = random_series(rng, rect, constant=1)
        root = x.sqrt()
        assert root[0, 0] == 1
        assert root * root == x


def _rows_0_and_2(rng, max_den):
    # nonzero only in rows 0 and 2 of a 7-row window: an interior zero row
    # (row 1) and four trailing zero rows, with constant term 1; max_den = 1
    # gives int cells
    entries = {
        (a, b): Fraction(rng.randint(-9, 9), rng.randint(1, max_den))
        for a in (0, 2)
        for b in range(5)
    }
    entries[0, 0] = 1
    return BiSeries.from_table(Rect(6, 4), entries)


@pytest.mark.parametrize("max_den", [1, 9], ids=["int", "fraction"])
def test_inverses_roundtrip_with_zero_rows(max_den, monkeypatch):
    rng = random.Random(31)
    calls = record_calls(monkeypatch, "_product_cell", series_module)
    for _ in range(5):
        x = _rows_0_and_2(rng, max_den)
        calls.clear()
        assert x * x.reciprocal() == BiSeries.one(x.rect)
        # the reciprocal and the product read only x's rows up to row 2
        assert calls and max(len(left) for left, *_ in calls) == 3
        root = x.sqrt()
        assert root[0, 0] == 1
        assert root * root == x


@pytest.mark.parametrize("max_den", [1, 9], ids=["int", "fraction"])
def test_mul_left_factor_with_zero_tail_rows(max_den):
    rng = random.Random(37)
    x = _rows_0_and_2(rng, max_den)
    y = random_series(rng, x.rect)
    expected = {
        (a, b): sum(x[i, j] * y[a - i, b - j] for i in range(a + 1) for j in range(b + 1))
        for a, b in cells(x.rect)
    }
    assert x * y == BiSeries.from_table(x.rect, expected)
    assert BiSeries.from_table(x.rect, {}) * y == BiSeries.from_table(x.rect, {})


def test_radicand_sqrt_is_the_radical_routes_root(monkeypatch):
    # the square root of the radicand (1-w)^2 - 4z is the root the radical
    # route builds by its own row recurrence
    divisions = record_calls(monkeypatch, "_root_cell", formulas)
    radical_series(Rect(24, 24))
    rows: dict = {}
    for num, a, b in divisions:  # root cell (a, b) is num / a, in row-major order
        rows.setdefault(a, []).append(num // a)
    root = BiSeries([(1, -1, *(0,) * 23), *rows.values()])  # row 0 is 1 - w
    radicand = poly(root.rect, {(0, 0): 1, (0, 1): -2, (0, 2): 1, (1, 0): -4})
    assert radicand.sqrt() == root


def test_div_z():
    z = BiSeries.from_table(Rect(1, 1), {(1, 0): 1})
    assert z.div_z() == BiSeries.one(Rect(0, 1))

    x = BiSeries.from_table(Rect(2, 1), {(2, 0): 1, (1, 1): 1})
    assert x.div_z() == BiSeries.from_table(Rect(1, 1), {(1, 0): 1, (0, 1): 1})


def test_div_z_not_divisible():
    w = BiSeries.from_table(Rect(1, 1), {(0, 1): 1})
    with pytest.raises(ArithmeticError, match="not divisible by z"):
        w.div_z()


def test_div_z_plus_w_unit():
    # z+w itself, on a window with max_b=0 where the w term is invisible
    x = BiSeries.from_table(Rect(1, 0), {(1, 0): 1})
    assert x.div_z_plus_w(Rect(0, 0)) == BiSeries.one(Rect(0, 0))


def test_div_z_plus_w_square():
    # (z+w)^2 on the padded rectangle (3, 1); the w^2 term lies outside
    x = BiSeries.from_table(Rect(3, 1), {(2, 0): 1, (1, 1): 2})
    quotient = x.div_z_plus_w(Rect(1, 1))
    assert quotient == BiSeries.from_table(Rect(1, 1), {(1, 0): 1, (0, 1): 1})


def test_div_z_plus_w_residual_failure():
    x = BiSeries.from_table(Rect(2, 1), {(1, 0): 1})  # the series z
    with pytest.raises(ArithmeticError, match="not divisible by z\\+w"):
        x.div_z_plus_w(Rect(0, 1))


def test_div_z_plus_w_insufficient_padding():
    x = BiSeries.from_table(Rect(2, 2), {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match="insufficient padding"):
        x.div_z_plus_w(Rect(2, 2))


def test_a_division_that_does_not_go_is_a_disagreement():
    # a residual is a plain ArithmeticError, as a remainder is; too little
    # padding is the caller's error alone, a ValueError
    divisions = [
        lambda: BiSeries.from_table(Rect(1, 1), {(0, 1): 1}).div_z(),
        lambda: BiSeries.from_table(Rect(2, 1), {(1, 0): 1}).div_z_plus_w(Rect(0, 1)),
        lambda: BiSeries.one(Rect(2, 1)).div_z_plus_w(Rect(0, 1)),
    ]
    for divide in divisions:
        with pytest.raises(ArithmeticError, match="not divisible") as error:
            divide()
        assert type(error.value) is ArithmeticError
    with pytest.raises(ValueError, match="insufficient padding") as error:
        BiSeries.one(Rect(2, 2)).div_z_plus_w(Rect(2, 2))
    assert not isinstance(error.value, ArithmeticError)


def test_getitem_and_errors():
    s = BiSeries.from_table(Rect(1, 0), {(0, 0): 1, (1, 0): 2})
    assert s[1, 0] == 2
    with pytest.raises(IndexError, match="out of rectangle"):
        s[0, 1]
    with pytest.raises(IndexError, match="out of rectangle"):
        s[-1, 0]


def test_poly_clips_outside_terms():
    small = poly(Rect(0, 0), {(0, 0): 3, (1, 0): 1, (0, 1): 1})
    assert small == BiSeries.from_table(Rect(0, 0), {(0, 0): 3})


def test_ring_laws_random():
    rng = random.Random(19)
    for _ in range(40):
        rect = Rect(rng.randint(0, 4), rng.randint(0, 4))
        x = random_series(rng, rect)
        y = random_series(rng, rect)
        t = random_series(rng, rect)
        one = BiSeries.one(rect)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + t == x + (y + t)
        assert (x * y) * t == x * (y * t)
        assert x * (y + t) == x * y + x * t
        assert one * x == x


def test_truncation_closure():
    # cells inside a sub-rectangle must not see junk planted outside it
    rng = random.Random(23)
    big, sub = Rect(5, 5), Rect(2, 2)
    for _ in range(10):
        x_cells = {(a, b): Fraction(rng.randint(-9, 9)) for a, b in cells(big)}
        y_cells = {(a, b): Fraction(rng.randint(-9, 9)) for a, b in cells(big)}
        x = BiSeries.from_table(big, x_cells)
        y = BiSeries.from_table(big, y_cells)
        base = truncated(x * y, sub)

        junked_x = dict(x_cells)
        junked_y = dict(y_cells)
        for a, b in cells(big):
            if not sub.contains(a, b):
                junked_x[a, b] = Fraction(rng.randint(-99, 99))
                junked_y[a, b] = Fraction(rng.randint(-99, 99))
        x2 = BiSeries.from_table(big, junked_x)
        y2 = BiSeries.from_table(big, junked_y)
        assert truncated(x2 * y2, sub) == base


def test_division_roundtrips_random():
    rng = random.Random(29)
    for _ in range(25):
        # mul(div_z(x), z) == x for x built divisible by z
        rect = Rect(rng.randint(1, 5), rng.randint(0, 4))
        q = random_series(rng, rect)
        z = poly(rect, {(1, 0): 1})
        x = z * q
        quotient = x.div_z()
        embedded = BiSeries.from_table(
            rect, {(a, b): quotient[a, b] for a, b in cells(quotient.rect)}
        )
        assert z * embedded == x

        # mul(div_z_plus_w(x, r), z+w) agrees with x on r
        target = Rect(rng.randint(0, 3), rng.randint(0, 3))
        padded = Rect(target.max_a + target.max_b + 1, target.max_b)
        q2 = random_series(rng, padded)
        zw = poly(padded, {(1, 0): 1, (0, 1): 1})
        x2 = zw * q2
        quotient2 = x2.div_z_plus_w(target)
        assert quotient2 == truncated(q2, target)
        zw_small = poly(target, {(1, 0): 1, (0, 1): 1})
        assert zw_small * quotient2 == truncated(x2, target)

        # an input padded past the need in both variables gives the same quotient
        wide = Rect(padded.max_a + 2, target.max_b + 3)
        q3 = random_series(rng, wide)
        x3 = poly(wide, {(1, 0): 1, (0, 1): 1}) * q3
        assert x3.div_z_plus_w(target) == truncated(q3, target)


def _int_series(rect, constant, seed=5):
    rng = random.Random(seed)
    entries = {(a, b): rng.randint(-9, 9) for a, b in cells(rect)}
    entries[0, 0] = constant
    return BiSeries.from_table(rect, entries)


_R = Rect(3, 3)
_PADDED = Rect(7, 3)
INTEGER_CASES = {
    "from_table": lambda: _int_series(_R, 4),
    "from_table_integral_fraction": lambda: _int_series(_R, Fraction(4, 2)),
    "mul": lambda: _int_series(_R, 4) * _int_series(_R, -3, seed=6),
    "pow": lambda: _int_series(_R, 2) ** 3,
    "reciprocal_plus_one": lambda: _int_series(_R, 1).reciprocal(),
    "reciprocal_minus_one": lambda: _int_series(_R, -1).reciprocal(),
    "sqrt": lambda: (_int_series(_R, 1) ** 2).sqrt(),
    "div_z": lambda: (poly(_R, {(1, 0): 1}) * _int_series(_R, 4)).div_z(),
    "div_z_plus_w": lambda: (
        poly(_PADDED, {(1, 0): 1, (0, 1): 1}) * _int_series(_PADDED, 4)
    ).div_z_plus_w(_R),
    "power_series": lambda: power_series(3, Rect(4, 4)),
    "fixpoint_series": lambda: fixpoint_series(Rect(4, 4)),
    "radical_series": lambda: radical_series(Rect(4, 4)),
}


@pytest.mark.parametrize("build", INTEGER_CASES.values(), ids=INTEGER_CASES.keys())
def test_integer_inputs_give_int_cells(build):
    series = build()
    assert all(type(value) is int for row in series.coeff for value in row)


def test_from_table_keeps_a_non_integral_cell_a_fraction():
    value = BiSeries.from_table(_R, {(0, 0): Fraction(1, 3)})[0, 0]
    assert type(value) is Fraction and value == Fraction(1, 3)


# ---- the packed product of the identity sweep ----


def _assert_packed_product_is_cellwise(x, y):
    product = _kronecker_product(x, y)
    assert product.rect == x.rect
    for a, b in cells(x.rect):
        value = product[a, b]
        assert type(value) is int and value == convolution_lhs(x, y, a, b), (a, b)


def _random_int_table(rng, rect, bits):
    return BiSeries.from_table(rect, {cell: rng.getrandbits(bits) for cell in cells(rect)})


@pytest.mark.parametrize("rect", [Rect(0, 0), Rect(0, 7), Rect(7, 0), Rect(5, 9), Rect(12, 12)])
def test_kronecker_product_matches_convolution_lhs(rect):
    rng = random.Random(rect.max_a * 100 + rect.max_b)
    for bits in (1, 8, 90):
        _assert_packed_product_is_cellwise(
            _random_int_table(rng, rect, bits), _random_int_table(rng, rect, bits)
        )
    zero = BiSeries.from_table(rect, {})
    _assert_packed_product_is_cellwise(zero, zero)
    _assert_packed_product_is_cellwise(zero, _random_int_table(rng, rect, 40))
    # every cell at the most its row's bit length allows, so slot sums come
    # as close to the width bound as they can, and all-nines cells the same
    # in decimal
    ones = BiSeries.from_table(rect, {(a, b): 2 ** (17 * a + 5) - 1 for a, b in cells(rect)})
    _assert_packed_product_is_cellwise(ones, ones)
    nines = BiSeries.from_table(rect, dict.fromkeys(cells(rect), 10**40 - 1))
    _assert_packed_product_is_cellwise(nines, nines)
    # one huge cell among small ones sets the width of every slot; the widest
    # slot pairs the huge cells' rows, wherever they lie
    def lopsided(a):
        entries = {cell: rng.getrandbits(3) for cell in cells(rect)}
        entries[a, rect.max_b // 2] = 3**700
        return BiSeries.from_table(rect, entries)

    _assert_packed_product_is_cellwise(lopsided(0), lopsided(rect.max_a))
    _assert_packed_product_is_cellwise(lopsided(rect.max_a), lopsided(0))
    _assert_packed_product_is_cellwise(lopsided(0), lopsided(rect.max_a // 2))


@pytest.mark.parametrize(
    "rect, bits", [(Rect(2, 2), 7), (Rect(0, 14), 5255)], ids=["2x2-7bits", "0x14-5255bits"]
)
def test_kronecker_product_of_equal_full_cells_matches_mul(rect, bits):
    # every cell 2^bits - 1, the most its bit length allows, in every row, so
    # the last slot sums (max_a + 1)(max_b + 1) products of the widest rows:
    # it needs the carry guard's full count of terms, and at 5255 bits a slot
    # one decimal digit narrower than the width formula gives would carry
    x = BiSeries.from_table(rect, dict.fromkeys(cells(rect), 2**bits - 1))
    assert _kronecker_product(x, x) == x * x


@pytest.mark.parametrize(
    "p, q, rect", [(2, 3, Rect(24, 24)), (3, 2, Rect(24, 24)), (1, 1, Rect(300, 0))]
)
def test_kronecker_product_of_closed_tables(p, q, rect):
    _assert_packed_product_is_cellwise(closed_table(p, rect), closed_table(q, rect))


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit here"
)
def test_kronecker_product_slots_wider_than_the_int_str_limit():
    # cells of 15,000 bits or more need slots of about 9,000 digits, past the
    # default limit of 4,300 digits on int <-> str conversion
    rng = random.Random(15000)
    rect = Rect(2, 1)

    def wide(bits):
        return BiSeries.from_table(rect, {c: 1 << bits | rng.getrandbits(bits) for c in cells(rect)})

    x, y = wide(15000), wide(16000)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        _assert_packed_product_is_cellwise(x, y)
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit here"
)
@pytest.mark.parametrize("width", [640, 641])
def test_kronecker_product_slots_at_the_least_int_str_limit(width):
    # 640 digits, the least limit the interpreter accepts, is the widest slot
    # converted by str and int; a slot one digit wider goes through Decimal
    assert getattr(sys.int_info, "str_digits_check_threshold", 640) == 640
    rng = random.Random(width)
    rect = Rect(3, 4)

    def full(bits):
        return BiSeries.from_table(rect, {c: 1 << bits | rng.getrandbits(bits) for c in cells(rect)})

    x, y = next(
        (x, y)
        for x, y in ((full(bits), full(bits + 1)) for bits in range(1000, 1100))
        if _slot_layout(x, y)[0] == width
    )
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        _assert_packed_product_is_cellwise(x, y)
        _assert_packed_product_is_cellwise(y, x)
    finally:
        sys.set_int_max_str_digits(previous)


def test_kronecker_product_longer_than_a_million_digits():
    # 63 product slots of about 16,900 digits each, past the 999,999 digits
    # that decimal's default context allows before it overflows
    rng = random.Random(28000)
    rect = Rect(0, 31)
    x = BiSeries.from_table(rect, {c: 1 << 28000 | rng.getrandbits(28000) for c in cells(rect)})
    _assert_packed_product_is_cellwise(x, x)


@pytest.mark.parametrize("bad", [-1, Fraction(1, 2), Fraction(2, 1)])
def test_kronecker_product_rejects_cells_that_are_not_non_negative_ints(bad):
    rect = Rect(2, 2)
    good = BiSeries.from_table(rect, dict.fromkeys(cells(rect), 1))
    bad_table = BiSeries(((1, 1, 1), (1, 1, bad), (1, 1, 1)))
    for x, y in ((bad_table, good), (good, bad_table)):
        with pytest.raises(ArithmeticError, match="non-negative int") as error:
            _kronecker_product(x, y)
        assert type(error.value) is ArithmeticError


# ---- the packed product's slot width, row guard and row split ----


def _row_split(x, y):
    return _split_row(x.rect.max_a + 1, _slot_layout(x, y)[1])


def _filling_table(rect, b, c):
    # column max_b at 2^b - 1 and every other cell at 2^c - 1: with b > c a
    # target slot pairs a wide cell with a narrow one, and the garbage
    # slot 2 max_b pairs two wide ones
    return BiSeries([[2**c - 1] * rect.max_b + [2**b - 1]] * (rect.max_a + 1))


_R48 = Rect(48, 48)


@pytest.mark.parametrize(
    "build, split",
    [
        (lambda: (closed_table(2, _R48), closed_table(3, _R48)), True),
        (lambda: (closed_table(2, Rect(12, 12)), closed_table(3, Rect(12, 12))), False),
        *(
            (lambda r=rect: tuple(_random_int_table(random.Random(s), r, 15) for s in (1, 2)), True)
            for rect in (Rect(100, 30), Rect(30, 100))
        ),
    ],
    ids=["c2*c3-48x48", "c2*c3-12x12", "random-100x30", "random-30x100"],
)
def test_kronecker_product_with_and_without_its_row_split(build, split):
    x, y = build()
    _assert_packed_product_is_cellwise(x, y)
    assert bool(_row_split(x, y)) is split


@pytest.mark.parametrize(
    "rect, b, c, split",
    [
        (Rect(1, 1), 10, 2, False),
        (Rect(6, 1), 9, 2, False),
        (Rect(6, 1), 4612, 3, True),
        (Rect(12, 12), 4, 4, False),
        (Rect(0, 7), 4, 4, False),
        (Rect(7, 0), 4, 4, False),
        (Rect(2000, 0), 2, 2, False),
    ],
)
def test_kronecker_product_fills_its_slot_width_and_row_guard(rect, b, c, split):
    x = _filling_table(rect, b, c)
    _assert_packed_product_is_cellwise(x, x)
    assert bool(_row_split(x, x)) is split
    width, stride = _slot_layout(x, x)
    # the widest target needs every digit of its slot, so a slot one digit
    # narrower would carry into the next
    assert max(map(max, _kronecker_product(x, x).coeff)) >= 10 ** (width - 1)
    if rect.max_a and 0 < rect.max_b < 12:
        # a product row below a target row, garbage included, needs every
        # digit of its stride, so a guard one digit narrower would carry
        # into the next row's first target.  From max_b = 12 on no table
        # can: a row then stays under a tenth of what its stride holds.
        slots = [sum(v * 10 ** (width * j) for j, v in enumerate(row)) for row in x.coeff]
        widest = max(sum(slots[i] * slots[a - i] for i in range(a + 1)) for a in range(rect.max_a))
        assert widest >= 10 ** (stride - 1)


def test_split_row_costs_no_more_than_one_product():
    # the chooser's few candidates find the least modeled cost among all
    # rows whose operands stay past libmpdec's schoolbook size
    for rows in (1, 2, 7, 13, 25, 49, 81, 101):
        for stride in (1, 20, 503, 1821, 4865, 6999, 18542, 65068):
            h = _split_row(rows, stride)
            cost = _split_cost(rows, stride, h)
            assert cost <= _split_cost(rows, stride, 0)
            allowed = [k for k in range(1, rows) if min(k, rows - k) * stride > 256 * 19]
            assert cost == min(_split_cost(rows, stride, k) for k in [0, *allowed])


def test_split_row_splits_at_48x48_not_at_12x12_or_one_row():
    def stride(p, q, rect):
        return _slot_layout(closed_table(p, rect), closed_table(q, rect))[1]

    assert _split_row(13, stride(2, 3, Rect(12, 12))) == 0
    assert _split_row(49, stride(2, 3, _R48)) > 0
    assert _split_row(49, stride(1, 4, _R48)) > 0
    for stride_digits in (1, 6999, 10**6):
        assert _split_row(1, stride_digits) == 0
