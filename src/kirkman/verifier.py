"""Brute-force verification of the convolution identity.

The generalized identity states that for p = r + s,

    sum_{m<=M, n<=N} c_r(m, n) c_s(M-m, N-n)  =  c_p(M, N),

where c_p(m, n) is the closed-form coefficient of [z^m w^n] f^p.  The r = s
= 1 case is Kirkman's hypothesis, and its N = 0 restriction is Cayley's
case.  A sweep builds the closed-form table of each distinct power among r,
s and p once (two when r = s) through ``kirkman.ROUTES["closed"]``, takes
every left side at once as the exact truncated product of the tables of c_r
and c_s, packed into decimal numbers by ``_kronecker_product`` (its comment
gives the layout), and reads the right side from the table of c_p.  Both
factors are closed-form tables and no series power enters, so a sweep is a
genuine check of the identity rather than a tautology of series arithmetic;
the series-level fact f^r f^s = f^(r+s) is tested separately as an invariant.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import add, or_
from typing import Iterator, Sequence

from . import ROUTES
from .series import BiSeries, Rect, Scalar, _product_cell


def convolution_lhs(x: BiSeries, y: BiSeries, M: int, N: int) -> int:
    """Cell (M, N) of the product of the tables x and y, summed exactly.

    The one-cell reference for the sweep's left side, which takes every
    cell at once from ``_kronecker_product``.
    """
    if not (x.rect.contains(M, N) and y.rect.contains(M, N)):
        raise IndexError(f"cell ({M}, {N}) outside {x.rect} or {y.rect}")
    return _product_cell(x.coeff, y.coeff, M, N)


# libmpdec stores a decimal in words of 19 digits on 64-bit builds, and
# multiplies by schoolbook when one operand has at most 256 words
_WORD_DIGITS, _SCHOOLBOOK_WORDS = 19, 256


def _transform_cost(words: int) -> int:
    # the time of libmpdec's transform multiply of a product of ``words``
    # words, in units of its length: ``words`` rounded up to 2^k or
    # 3 * 2^(k-1) (_mpd_get_transform_len).  A length of 3 * 2^(k-1) takes
    # about 0.8 to 0.9 of the time of 2^(k+1), not 0.75, so it counts 9/8.
    n = 1 << (words - 1).bit_length()
    return 27 * n // 32 if 4 * words <= 3 * n else n


def _split_cost(rows: int, stride: int, h: int) -> int:
    # modeled cost of x[:h] y + z^h x[h:] y[:rows-h] for tables of ``rows``
    # rows of ``stride`` digits each; h = 0 is the one product x y
    def words(k: int) -> int:
        return -(-k * stride // _WORD_DIGITS)

    if not h:
        return _transform_cost(2 * words(rows))
    return _transform_cost(words(h) + words(rows)) + _transform_cost(2 * words(rows - h))


def _split_row(rows: int, stride: int) -> int:
    # the h of least _split_cost, 0 (no split) on a tie.  A larger h only
    # shrinks the second product, so for each transform length the first
    # product may take, the largest h that fits it is the one candidate.
    # Every operand of a split keeps more than _SCHOOLBOOK_WORDS words, so
    # libmpdec multiplies it by transform, which is what the model prices.
    few = _SCHOOLBOOK_WORDS * _WORD_DIGITS // stride  # rows that fit in as many words
    full = -(-rows * stride // _WORD_DIGITS)
    fits = (
        min(rows - 1 - few, (n - full) * _WORD_DIGITS // stride)
        for k in range(full.bit_length(), (2 * full).bit_length() + 1)
        for n in (3 << k - 1, 1 << k)
    )
    return min([0, *(h for h in fits if h > few)], key=lambda h: _split_cost(rows, stride, h))


def _check_cells(table: Sequence[Sequence[Scalar]]) -> None:
    # a cell that is not a non-negative int has no decimal slot: a sweep over
    # such a table reports a disagreement, as a remainder does
    cells = list(chain.from_iterable(table))
    if set(map(type, cells)) != {int} or min(cells) < 0:
        bad = next(v for v in cells if type(v) is not int or v < 0)
        raise ArithmeticError(f"packed product needs non-negative int cells, got {bad}")


def _digits(bits: int) -> int:
    # decimal digits that hold any value under 2^bits: 10^digits > 2^bits,
    # as 0.30103 > log10(2)
    return bits * 30103 // 100000 + 1


def _slot_layout(x: BiSeries, y: BiSeries) -> tuple[int, int]:
    # (width, stride): the digits of one slot and of one row, as the carry
    # argument in _kronecker_product says
    max_a, max_b = x.rect
    count = ((max_a + 1) * (max_b + 1)).bit_length()
    _check_cells(x.coeff)
    _check_cells(y.coeff)
    # the target bound is the same for the transposed tables, so its loops
    # run over the shorter side: a column of 2,001 cells is one row of them
    xs, ys = (x.coeff, y.coeff) if max_a <= max_b else (list(zip(*x.coeff)), list(zip(*y.coeff)))
    # reach[k][l]: y's cells in rows <= k and columns <= l ORed together,
    # as wide as the widest of them
    reach = accumulate((list(accumulate(r, or_)) for r in ys), lambda p, r: list(map(or_, p, r)))
    pair = max(
        max(map(add, map(int.bit_length, row), map(int.bit_length, reversed(widest))))
        for row, widest in zip(xs, reversed(list(reach)))
    )
    width = _digits(pair + count)
    if not max_b:
        return width, width
    # a garbage slot of product row a pairs whole rows i + k = a
    row_bits = map(int.bit_length, map(max, x.coeff))
    row_reach = accumulate(map(int.bit_length, map(max, y.coeff)), max)
    pair = max(map(add, row_bits, reversed(list(row_reach))))
    return width, 2 * max_b * width + _digits(pair + count)


def _kronecker_product(x: BiSeries, y: BiSeries) -> BiSeries:
    # the truncated product x * y of two tables of non-negative ints, as
    # exact multiplications: cell (i, j) of a table becomes the decimal slot
    # ``width`` digits wide at digit i * stride + j * width
    # (Kronecker substitution); decimal multiplies numbers this long by a
    # number-theoretic transform, about five times faster than CPython's
    # Karatsuba multiplies ints of the same size at the sweep's sizes; str
    # and int convert each slot, which the int/str digit limit allows when
    # it is 0, as cli.main sets it, or at least ``width``
    #
    # Why no target cell (a <= max_a, b <= max_b) is ever carried into.  A
    # target sums at most (max_a + 1)(max_b + 1) terms x[i][j] y[a-i][b-j],
    # and y's cell there is no wider than reach[max_a - i][max_b - j] of
    # _slot_layout, so the target fits in ``width`` digits.  Row a of the
    # product, the sum over i + k = a of x's row i times y's row k at
    # 10^width, spans 2 max_b + 1 slots; those past max_b are garbage,
    # never read and wider than ``width``.  A row of x (of y) is under
    # 2^(its widest cell's bits) 10^(max_b width) c, with
    # c = 10^width / (10^width - 1) and c^2 < 2, so product row a is under
    # 2 (a + 1) 2^pair 10^(2 max_b width), where pair bounds the two rows'
    # bits for every i + k <= max_a.  When max_b >= 1 the cell count is at
    # least 2 (a + 1), so the row is under 2^(pair + count bits)
    # 10^(2 max_b width), which a stride of 2 max_b width + digits(pair +
    # count bits) holds: after the garbage slots, a guard of zero digits
    # takes the rest of the stride.  So no row carries into the next, and
    # a target takes no carry from its own row's slots below it either.
    # With max_b = 0 there is no garbage, and the stride is one slot.
    #
    # Rows past max_a are never read, and in the rows that are, x's rows
    # from h on meet only y's rows up to max_a - h: there the product is
    # x[:h] y + z^h x[h:] y[:max_a + 1 - h], whose parts' rows are partial
    # sums of the same non-negative terms.  _split_row picks h.
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, InvalidOperation, Rounded
    x._require_same_rect(y)
    max_a, max_b = x.rect
    width, stride = _slot_layout(x, y)
    # exact: any rounding would raise instead of passing silently; the
    # default Emax would overflow a product past 999,999 digits
    context = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded, InvalidOperation])

    def pack(table: Sequence[Sequence[int]]) -> Decimal:
        # row a's slots at digit a * stride: each row is parsed alone and
        # the rows are summed pairwise, so the zeros of the guard and garbage
        # digits, about half the number, are never parsed from a string
        parts = [
            context.scaleb(Decimal("".join([str(v).zfill(width) for v in row[::-1]])), a * stride)
            for a, row in enumerate(table)
        ]
        while len(parts) > 1:
            # neighbours add in pairs; an odd last part waits for the next round
            parts = [*map(context.add, parts[::2], parts[1::2]), *parts[len(parts) // 2 * 2 :]]
        return parts[0]

    def low(v: Decimal, rows: int) -> Decimal:
        # v's first ``rows`` rows, v mod 10^(rows stride): a shift keeps as
        # many low digits as its context's precision
        return Context(prec=rows * stride, Emax=MAX_EMAX, traps=context.traps).shift(v, 0)

    packed_x, packed_y = pack(x.coeff), pack(y.coeff)
    h = _split_row(max_a + 1, stride)
    if h:
        # x's rows from h on, times y's first max_a + 1 - h rows
        high = context.multiply(context.shift(packed_x, -h * stride), low(packed_y, max_a + 1 - h))
        product = context.add(
            context.scaleb(high, h * stride), context.multiply(low(packed_x, h), packed_y)
        )
    else:
        product = context.multiply(packed_x, packed_y)
    # the operands, and then the product's Decimal, go before its string is read
    del packed_x, packed_y
    product = str(low(product, max_a + 1)).zfill(max_a * stride + (max_b + 1) * width)
    rows = []
    for a in range(max_a + 1):
        end = len(product) - a * stride
        row = product[end - (max_b + 1) * width : end]
        rows.append([int(row[k : k + width]) for k in range(max_b * width, -1, -width)])
    return BiSeries(rows)


def sweep_cells(
    r: int, s: int, max_M: int, max_N: int
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (M, N, lhs, rhs) in lexicographic order, stopping after the first lhs != rhs.

    So the last cell is the verdict: a pass if its sides agree, else the
    first counterexample.  After the last row, each table's anchors
    c_q(1, 0) = 2q and c_q(0, 1) = q that the window holds are checked, and
    one that fails raises ``ArithmeticError``: the identity holds as well
    for c_q(m, n) a^m b^n, and a table scaled so passes every row.  The
    packed product converts each slot with str and int, so under a nonzero
    int/str digit limit below the slot width it raises Python's ``ValueError``.
    """
    window = Rect(max_M, max_N)
    tables = {q: ROUTES["closed"](q, window) for q in {r, s, r + s}}
    lhs = _kronecker_product(tables[r], tables[s])
    for M, (lhs_row, rhs_row) in enumerate(zip(lhs.coeff, tables[r + s].coeff)):
        for N, (left, right) in enumerate(zip(lhs_row, rhs_row)):
            yield M, N, left, right
            if left != right:
                return
    # f = 1 + 2z + w + ..., from the quadratic's linear part alone
    for q, table in sorted(tables.items()):
        for (m, n), anchor in (((1, 0), 2 * q), ((0, 1), q)):
            value = table.coeff[m][n] if window.contains(m, n) else anchor
            if value != anchor:
                raise ArithmeticError(
                    f"scale anchor violated: c_{q}({m}, {n}) = {value}, expected {anchor}"
                )

