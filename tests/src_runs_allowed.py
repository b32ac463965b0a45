"""Statements and lambdas of ``src/kirkman`` that no command runs, each with its reason.

Read by ``test_src_runs``: a key is (module and qualified name, the first
line stripped), the name ending in ``.<lambda>`` for a lambda, and its
value says why the statement or lambda stays.  When the series ring moves
into the tests, the ``RING`` and ``LAYER`` entries go with it.
"""

LAYER = (
    "bench/run.py's LAYER_METRICS and bench/tracer.py time it by name, and "
    "BENCHMARK.json lists the metric"
)
RING = (
    "the rest of the series ring, the tests' reference arithmetic "
    "(acceptance criterion 9), to move into the tests whole with the LAYER entries"
)
VALUE = "the value contract of the immutable series and rectangle types"
LIBRARY = "README's Library block calls it"
UNREACHABLE = "an error branch that a command's checked arguments never reach"
TYPING = "read by type checkers only"

ALLOWED: dict[tuple[str, str], str] = {
    # series: the ring
    ("series._product_cell", "return sum("): LAYER,
    ("series._nonzero_rows", "end = len(x)"): LAYER,
    ("series._nonzero_rows", "while end and not any(x[end - 1]):"): LAYER,
    ("series._nonzero_rows", "end -= 1"): LAYER,
    ("series._nonzero_rows", "return x[:end]"): LAYER,
    ("series._fill",
     "table: list[list[Scalar]] = [[0] * (rect.max_b + 1) for _ in range(rect.max_a + 1)]"):
        LAYER,
    ("series._fill", "for a, row in enumerate(table):"): LAYER,
    ("series._fill", "for b in range(rect.max_b + 1):"): LAYER,
    ("series._fill", "row[b] = cell(table, a, b)"): LAYER,
    ("series._fill", "return BiSeries(table)"): LAYER,
    ("series.BiSeries.__mul__", "self._require_same_rect(other)"): LAYER,
    ("series.BiSeries.__mul__", "x, y = _nonzero_rows(self.coeff), other.coeff"): LAYER,
    ("series.BiSeries.__mul__",
     "return _fill(self.rect, lambda out, a, b: _product_cell(x, y, a, b))"): LAYER,
    ("series.BiSeries.__mul__.<lambda>",
     "return _fill(self.rect, lambda out, a, b: _product_cell(x, y, a, b))"): LAYER,
    ("series.BiSeries.__pow__", "if not isinstance(exponent, int) or exponent < 0:"): LAYER,
    ("series.BiSeries.__pow__",
     'raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")'): LAYER,
    ("series.BiSeries.__pow__", "result = BiSeries.one(self.rect)"): LAYER,
    ("series.BiSeries.__pow__", "base = self"): LAYER,
    ("series.BiSeries.__pow__", "k = exponent"): LAYER,
    ("series.BiSeries.__pow__", "while k:"): LAYER,
    ("series.BiSeries.__pow__", "if k & 1:"): LAYER,
    ("series.BiSeries.__pow__", "result = result * base"): LAYER,
    ("series.BiSeries.__pow__", "k >>= 1"): LAYER,
    ("series.BiSeries.__pow__", "if k:"): LAYER,
    ("series.BiSeries.__pow__", "base = base * base"): LAYER,
    ("series.BiSeries.__pow__", "return result"): LAYER,
    ("series.BiSeries.reciprocal", "x, x00 = _nonzero_rows(self.coeff), self.coeff[0][0]"): LAYER,
    ("series.BiSeries.reciprocal", "if x00 == 0:"): LAYER,
    ("series.BiSeries.reciprocal", 'raise ValueError("not invertible: zero constant term")'):
        LAYER,
    ("series.BiSeries.reciprocal", "return _fill(self.rect, lambda r, a, b:"): LAYER,
    ("series.BiSeries.reciprocal.<lambda>", "return _fill(self.rect, lambda r, a, b:"): LAYER,
    ("series.BiSeries.sqrt", "x = self.coeff"): LAYER,
    ("series.BiSeries.sqrt", "if x[0][0] != 1:"): LAYER,
    ("series.BiSeries.sqrt",
     'raise ValueError("unsupported radicand: constant term must be 1")'): LAYER,
    ("series.BiSeries.sqrt", "return _fill(self.rect, lambda s, a, b:"): LAYER,
    ("series.BiSeries.sqrt.<lambda>", "return _fill(self.rect, lambda s, a, b:"): LAYER,
    ("series.BiSeries._cellwise", "self._require_same_rect(other)"): RING,
    ("series.BiSeries._cellwise",
     "return BiSeries(map(op, rx, ry) for rx, ry in zip(self.coeff, other.coeff))"): RING,
    ("series.BiSeries.__add__", "return self._cellwise(add, other)"): RING,
    ("series.BiSeries.__sub__", "return self._cellwise(sub, other)"): RING,
    ("series.BiSeries.div_z", "if self.rect.max_a < 1:"): RING,
    ("series.BiSeries.div_z",
     'raise ValueError("rectangle too small to divide by the first variable")'): RING,
    ("series.BiSeries.div_z", "for b, value in enumerate(self.coeff[0]):"): RING,
    ("series.BiSeries.div_z", "if value != 0:"): RING,
    ("series.BiSeries.div_z",
     'raise NotDivisibleError(f"not divisible by z: nonzero coefficient at (0, {b})")'): RING,
    ("series.BiSeries.div_z", "return BiSeries(self.coeff[1:])"): RING,
    ("series.poly",
     "inside = {index: value for index, value in terms.items() if rect.contains(*index)}"): RING,
    ("series.poly", "return BiSeries.from_table(rect, inside)"): RING,
    # series: values
    ("series.Rect.__str__", 'return f"({self.max_a}, {self.max_b})"'): VALUE,
    ("series.BiSeries.__setattr__", 'raise AttributeError(f"cannot assign to field {name!r}")'):
        VALUE,
    ("series.BiSeries.__delattr__", 'raise AttributeError(f"cannot delete field {name!r}")'):
        VALUE,
    ("series.BiSeries.__eq__", "if other.__class__ is not self.__class__:"): VALUE,
    ("series.BiSeries.__eq__", "return NotImplemented"): VALUE,
    ("series.BiSeries.__eq__", "return self.coeff == other.coeff"): VALUE,
    ("series.BiSeries.__hash__", "return hash(self.coeff)"): VALUE,
    ("series.BiSeries.__reduce__", "return BiSeries, (self.coeff,)"): VALUE,
    ("series.BiSeries.__repr__", 'return f"<BiSeries on {self.rect}>"'): VALUE,
    ("series.BiSeries.__getitem__", "a, b = index"): LIBRARY,
    ("series.BiSeries.__getitem__", "if not self.rect.contains(a, b):"): LIBRARY,
    ("series.BiSeries.__getitem__",
     'raise IndexError(f"index out of rectangle: ({a}, {b}) not in {self.rect}")'): LIBRARY,
    ("series.BiSeries.__getitem__", "return self.coeff[a][b]"): LIBRARY,
    # series: typing and error branches
    ("series", "from fractions import Fraction"): TYPING,
    ("series._check_power", 'raise ValueError(f"power must be >= 1, got {p}")'): UNREACHABLE,
    ("series.Rect.__new__",
     'raise ValueError(f"rectangle bounds must be non-negative, got ({max_a}, {max_b})")'):
        UNREACHABLE,
    ("series.BiSeries.__init__", 'raise ValueError("coefficient table is empty or ragged")'):
        UNREACHABLE,
    ("series.BiSeries.from_table",
     'raise ValueError(f"index out of rectangle: ({a}, {b}) not in {rect}")'): UNREACHABLE,
    ("series.BiSeries._require_same_rect",
     'raise ValueError(f"rectangle mismatch: {self.rect} vs {other.rect}")'): UNREACHABLE,
    ("series.BiSeries.div_z_plus_w", "raise ValueError("): UNREACHABLE,
    # formulas, lagrange, verifier
    ("formulas.closed_form_coeff",
     'raise ValueError(f"exponents must be non-negative, got ({m}, {n})")'): UNREACHABLE,
    ("formulas.fixpoint_series", "return power_series(1, window)"): LAYER,
    ("lagrange.build_phi", "return BiSeries(_times_phi(BiSeries.one(window).coeff))"): LAYER,
    ("lagrange.lagrange_coeff", "return lagrange_table(p, Rect(m, n))[m, n]"): LAYER,
    ("verifier.convolution_lhs", "if not (x.rect.contains(M, N) and y.rect.contains(M, N)):"):
        LAYER,
    ("verifier.convolution_lhs",
     'raise IndexError(f"cell ({M}, {N}) outside {x.rect} or {y.rect}")'): LAYER,
    ("verifier.convolution_lhs", "return _product_cell(x.coeff, y.coeff, M, N)"): LAYER,
    ("verifier.VerifyReport.status", 'return "pass" if self.passed else "fail"'): LIBRARY,
    # cli
    ("cli.main",
     "pass  # not the main thread of the main interpreter: SIGPIPE stays as it is"):
        "SIGPIPE outside the main thread: main runs in the main thread here",
    ("cli._emit_rows", 'raise AssertionError(f"unhandled format {fmt!r}")'):
        "argparse admits only the formats _emit_rows renders",
    ("cli", "sys.exit(main())"):
        "the entry of python -m kirkman.cli, which runs in a child; the gate calls main in process",
}
