"""Exact truncated bivariate formal power series over the rationals.

A series is a dense table of exact coefficients built from its rows, whose
shape is its window: a rectangle of independent degree caps for the two
variables.  The window is closed under all operations here: cell (a, b) of a
product only reads inputs at indices (i, j) with i <= a and j <= b, so
arithmetic on the window is exact for the represented terms.  Variables are
positional; the same type serves series in (z, w) and in (y, w), and it is
the table type that every route and the identity sweep share.

Cells are ``int`` or ``Fraction``.  The divisions here (construction,
which divides by 1, and the inverses) go through one divider, ``_quotient``:
it stores a plain ``int`` when the result is an integer and a ``Fraction``
only when it is not, and it divides an int by an int by ``divmod``, so an
integer quotient never passes through a ``Fraction``.  The routes' integral
steps go through ``_integral_quotient``, which divides an int numerator by
``divmod`` itself and hands only a remainder, or a numerator of another
type, to ``_quotient`` and its integrality error.
Addition, subtraction and products need no normalising: integer cells give
integer cells, and mixed int/Fraction arithmetic stays exact.  A table built
from integers therefore holds only ints unless some division in it leaves a
remainder, and ``fractions`` is imported only for such a value, so integer
arithmetic never loads it.

There is no power kernel: the product, the reciprocal and the square root
each fill their table in row-major order by ``_fill``, one product cell per
cell, summed while the target cell still holds 0.  Only the product and the
reciprocal read just the operand's nonzero rows.  No route runs either inverse.

The constructor freezes the rows it is given, so a value is immutable once
built, and every operation is a pure function: instances may be shared
freely between threads.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import (
    TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence, Union
)

if TYPE_CHECKING:
    from fractions import Fraction

# a cell's type; fractions is imported only where a value is not an integer
Scalar = Union[int, "Fraction"]


def _quotient(num: Scalar, den: Scalar) -> Scalar:
    # num / den as an int when integral and as a Fraction only when not: an
    # int over an int builds a Fraction only for a remainder, a Fraction over
    # 1 is kept as it is, and any other num is converted exactly; fractions
    # is imported only past the integer case, and as a module, since ``from
    # fractions import Fraction`` would cost about 1 us more a call
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        if not r:
            return q
        import fractions
        return fractions.Fraction(num, den)
    import fractions
    num = num if isinstance(num, fractions.Fraction) else fractions.Fraction(num)
    q = num if den == 1 else num / den
    return q.numerator if q.denominator == 1 else q


def _integral_quotient(num: Scalar, den: int, p: int, m: int, n: int) -> int:
    # coefficient (m, n) of f^p as num / den, asserted to be an integer; an
    # int numerator is divided by divmod alone, and only a remainder or a
    # numerator of another type reaches _quotient and the error
    if type(num) is int:
        q, r = divmod(num, den)
        if not r:
            return q
    value = _quotient(num, den)
    if type(value) is not int:
        raise ArithmeticError(f"integrality violated at p={p} m={m} n={n}: {value}")
    return value


class NotDivisibleError(ValueError, ArithmeticError):
    """An exact division by z or by z+w that does not go.

    A ``ValueError`` of the dividend, and an ``ArithmeticError``, so a route
    whose table fails a division reports a disagreement, as a remainder does.
    """


def _check_power(p: int) -> None:
    # a table of f^p exists only for p >= 1
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")


class Rect(NamedTuple("Rect", [("max_a", int), ("max_b", int)])):
    """Truncation rectangle: inclusive degree caps for the two variables."""

    __slots__ = ()

    def __new__(cls, max_a: int, max_b: int) -> Rect:
        if max_a < 0 or max_b < 0:
            raise ValueError(f"rectangle bounds must be non-negative, got ({max_a}, {max_b})")
        return super().__new__(cls, max_a, max_b)

    def contains(self, a: int, b: int) -> bool:
        return 0 <= a <= self.max_a and 0 <= b <= self.max_b

    def __str__(self) -> str:
        return f"({self.max_a}, {self.max_b})"


def _product_cell(
    x: Sequence[Sequence[Scalar]], y: Sequence[Sequence[Scalar]], a: int, b: int
) -> Scalar:
    # cell (a, b) of the truncated product of two coefficient tables: the sum
    # of x[i][j] * y[a-i][b-j]; it reads only cells componentwise <= (a, b).
    # x may have fewer rows than the window: its missing rows count as zero.
    return sum(
        sum(map(mul, x[i][: b + 1], y[a - i][b::-1])) for i in range(min(a + 1, len(x)))
    )


def _nonzero_rows(x: Sequence[Sequence[Scalar]]) -> Sequence[Sequence[Scalar]]:
    # x without its trailing all-zero rows, as a left factor of _product_cell
    end = len(x)
    while end and not any(x[end - 1]):
        end -= 1
    return x[:end]


def _fill(rect: Rect, cell: Callable[[list[list[Scalar]], int, int], Scalar]) -> BiSeries:
    # the table on rect whose cell (a, b) is cell(table, a, b), filled in
    # row-major order: the cells before (a, b) are filled, the rest hold 0
    table: list[list[Scalar]] = [[0] * (rect.max_b + 1) for _ in range(rect.max_a + 1)]
    for a, row in enumerate(table):
        for b in range(rect.max_b + 1):
            row[b] = cell(table, a, b)
    return BiSeries(table)


class BiSeries:
    """A bivariate series built from its rows, with exact rational cells.

    Cells are ``int`` or ``Fraction``, chosen as the module docstring says.

    ``BiSeries(rows)`` freezes any iterable of rows into ``coeff``, a tuple
    of tuples, and reads ``rect`` from its shape; an empty or ragged table
    is refused.  ``coeff[a][b]`` is the coefficient of (first variable)^a
    (second variable)^b, and absent terms are explicit zeros.  Both fields
    are read-only, and equal tables make equal, equally hashed series.
    """

    __slots__ = ("rect", "coeff")
    rect: Rect
    coeff: tuple[tuple[Scalar, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Scalar]]) -> None:
        coeff = tuple(map(tuple, rows))
        if not coeff or not coeff[0] or any(len(row) != len(coeff[0]) for row in coeff):
            raise ValueError("coefficient table is empty or ragged")
        object.__setattr__(self, "rect", Rect(len(coeff) - 1, len(coeff[0]) - 1))
        object.__setattr__(self, "coeff", coeff)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeff == other.coeff

    def __hash__(self) -> int:
        return hash(self.coeff)

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return BiSeries, (self.coeff,)

    # ---- construction ----

    @classmethod
    def from_table(cls, rect: Rect, entries: Mapping[tuple[int, int], Scalar]) -> BiSeries:
        """Series with ``entries[a, b]`` at each given cell (a, b) and zeros elsewhere."""
        table = [[0] * (rect.max_b + 1) for _ in range(rect.max_a + 1)]
        for (a, b), value in entries.items():
            if not rect.contains(a, b):
                raise ValueError(f"index out of rectangle: ({a}, {b}) not in {rect}")
            table[a][b] = _quotient(value, 1)
        return cls(table)

    @classmethod
    def one(cls, rect: Rect) -> BiSeries:
        return cls.from_table(rect, {(0, 0): 1})

    # ---- lookup ----

    def __getitem__(self, index: tuple[int, int]) -> Scalar:
        a, b = index
        if not self.rect.contains(a, b):
            raise IndexError(f"index out of rectangle: ({a}, {b}) not in {self.rect}")
        return self.coeff[a][b]

    # ---- ring operations ----

    def _require_same_rect(self, other: BiSeries) -> None:
        if self.rect != other.rect:
            raise ValueError(f"rectangle mismatch: {self.rect} vs {other.rect}")

    def _cellwise(self, op: Callable[[Scalar, Scalar], Scalar], other: BiSeries) -> BiSeries:
        self._require_same_rect(other)
        return BiSeries(map(op, rx, ry) for rx, ry in zip(self.coeff, other.coeff))

    def __add__(self, other: BiSeries) -> BiSeries:
        return self._cellwise(add, other)

    def __sub__(self, other: BiSeries) -> BiSeries:
        return self._cellwise(sub, other)

    def __mul__(self, other: BiSeries) -> BiSeries:
        """Truncated product: cell (a, b) is sum of x[i,j] * y[a-i,b-j].

        Only x's rows up to its last nonzero one are read, so a left factor
        sparse in the first variable, such as 1 or z + w, is cheap.
        """
        self._require_same_rect(other)
        x, y = _nonzero_rows(self.coeff), other.coeff
        return _fill(self.rect, lambda out, a, b: _product_cell(x, y, a, b))

    def __pow__(self, exponent: int) -> BiSeries:
        """Truncated power by binary exponentiation; exponent 0 gives 1."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = BiSeries.one(self.rect)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # ---- inverses ----

    def reciprocal(self) -> BiSeries:
        """Multiplicative inverse on the rectangle.

        Each cell is r[a,b] = ([a = b = 0] - (x * r)[a,b]) / x[0,0], summed
        while r[a,b] still holds 0, and reads only x's nonzero rows.
        """
        x, x00 = _nonzero_rows(self.coeff), self.coeff[0][0]
        if x00 == 0:
            raise ValueError("not invertible: zero constant term")
        return _fill(self.rect, lambda r, a, b:
                     _quotient((a == b == 0) - _product_cell(x, r, a, b), x00))

    def sqrt(self) -> BiSeries:
        """Square root with constant term +1.

        Only radicands with constant term exactly 1 are supported; the sign
        choice is fixed to +1.  s[0,0] is 1 and every other cell is
        s[a,b] = (x[a,b] - (s * s)[a,b]) / 2, summed while s[a,b] still
        holds 0, which drops the two pairings of s[a,b] with s[0,0].
        """
        x = self.coeff
        if x[0][0] != 1:
            raise ValueError("unsupported radicand: constant term must be 1")
        return _fill(self.rect, lambda s, a, b:
                     _quotient(x[a][b] - _product_cell(s, s, a, b), 2) if a or b else 1)

    # ---- exact divisions ----

    def div_z(self) -> BiSeries:
        """Exact division by the first variable (drops the a=0 row).

        A nonzero a=0 row raises ``NotDivisibleError``.
        """
        if self.rect.max_a < 1:
            raise ValueError("rectangle too small to divide by the first variable")
        for b, value in enumerate(self.coeff[0]):
            if value != 0:
                raise NotDivisibleError(f"not divisible by z: nonzero coefficient at (0, {b})")
        return BiSeries(self.coeff[1:])

    def div_z_plus_w(self, target: Rect) -> BiSeries:
        """Exact division by (z + w), truncated to ``target``.

        The quotient q of x = (z+w) q satisfies x[a+1,b] = q[a,b] + q[a+1,b-1],
        so each quotient row is one input row less the row above it shifted
        one place in the second variable: q[a] = x[a+1] - (0, q[a+1][:-1]).
        Rows are filled from a = target.max_a + target.max_b down to 0, the
        first from a zero row above it, with one row in hand; the rows above
        the target only feed cells outside it and are not kept.  Input rows 1
        to target.max_a + target.max_b + 1 are read, in columns 0 to
        target.max_b, so the input must be padded to
        (target.max_a + target.max_b + 1, target.max_b) at least.
        Divisibility is checked through the a=0 residual row: a residual
        raises ``NotDivisibleError``, too little padding a plain ``ValueError``.
        """
        need_a = target.max_a + target.max_b + 1
        if self.rect.max_a < need_a or self.rect.max_b < target.max_b:
            raise ValueError(
                f"insufficient padding: division by z+w onto {target} needs a rectangle "
                f"of at least ({need_a}, {target.max_b}), got {self.rect}"
            )
        x, width = self.coeff, target.max_b + 1
        row, rows = (0,) * width, []
        for a in range(need_a - 1, -1, -1):
            row = tuple(map(sub, x[a + 1][:width], (0, *row[:-1])))
            if a <= target.max_a:
                rows.append(row)
        if x[0][0] != 0:
            raise NotDivisibleError("not divisible by z+w: nonzero constant term")
        for n in range(1, width):
            if x[0][n] != row[n - 1]:
                raise NotDivisibleError(f"not divisible by z+w: residual at (0, {n})")
        return BiSeries(reversed(rows))

    def __repr__(self) -> str:
        return f"<BiSeries on {self.rect}>"


def poly(rect: Rect, terms: Mapping[tuple[int, int], Scalar]) -> BiSeries:
    """Polynomial truncated to ``rect``; terms outside the window are dropped.

    Convenience for building fixed multipliers (2z + w, z^2 + zw, ...) on
    windows that may be too small to hold every monomial.
    """
    inside = {index: value for index, value in terms.items() if rect.contains(*index)}
    return BiSeries.from_table(rect, inside)
