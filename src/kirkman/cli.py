"""Command-line front end: coefficient queries, tables, sweeps, cross-checks.

Exit codes: 0 success / identity verified, 1 mathematical disagreement
found, 2 usage error, 130 interrupted by Ctrl-C (with nothing on stderr); a
reader closing the pipe early ends it quietly by SIGPIPE, as it ends
``cat`` (shell status 141).  Data goes to stdout, diagnostics to stderr.
All numbers are printed in full decimal expansion, and rows in blocks of
about 64 KiB of whole lines, one write each: every row exists before the
first block is written, so blocking delays nothing.  Each format of
``verify`` takes its verdict from the last row of ``verifier.sweep_cells``.
A csv row of it, all ints and a status, is one format, and an ok row
converts its equal sides once; other csv rows are rendered field by field,
and json-lines rows by ``json``.

Each handler imports only the arithmetic it runs.  ``--help`` and parse
errors load no arithmetic module; ``coeff`` loads ``formulas`` and
``series``; ``expand`` loads ``series`` and the home module of its route's
builder, which ``kirkman.ROUTES`` reads when called; ``verify`` loads
``verifier``, whose packed product imports ``decimal``, ``series`` and
``closed``; ``crosscheck`` loads all but ``verifier``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from . import ROUTES

EXIT_OK = 0
EXIT_DISAGREEMENT = 1

FORMATS = ("pretty", "csv", "json-lines")
_BLOCK_CHARS = 1 << 16  # a block of output lines is written once it holds this many characters


def _int_at_least(low: int) -> Callable[[str], int]:
    # an argparse type for integers >= low, where low is 0 or 1
    word = {0: "non-negative", 1: "positive"}[low]

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {word} integer, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kirkman",
        description="Exact coefficients and identity sweeps for Kirkman's convolution identity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeff = sub.add_parser("coeff", help="one coefficient by the closed form")
    coeff.add_argument("--p", type=_int_at_least(1), required=True)
    coeff.add_argument("--m", type=_int_at_least(0), required=True)
    coeff.add_argument("--n", type=_int_at_least(0), required=True)
    coeff.set_defaults(handler=_cmd_coeff)

    expand = sub.add_parser("expand", help="full coefficient table over a rectangle")
    expand.add_argument("--p", type=_int_at_least(1), required=True)
    expand.add_argument("--max-m", type=_int_at_least(0), required=True)
    expand.add_argument("--max-n", type=_int_at_least(0), required=True)
    expand.add_argument("--method", choices=ROUTES, default="closed")
    expand.set_defaults(handler=_cmd_expand)

    verify = sub.add_parser("verify", help="sweep the convolution identity")
    verify.add_argument("--r", type=_int_at_least(1), required=True)
    verify.add_argument("--s", type=_int_at_least(1), required=True)
    verify.add_argument("--max-M", type=_int_at_least(0), required=True)
    bound_N = verify.add_mutually_exclusive_group(required=True)
    bound_N.add_argument("--max-N", type=_int_at_least(0))
    bound_N.add_argument(
        "--cayley", action="store_const", const=0, dest="max_N",
        help="Cayley's case: the same as --max-N 0",
    )
    verify.set_defaults(handler=_cmd_verify)

    crosscheck = sub.add_parser("crosscheck", help="compare all routes cellwise")
    crosscheck.add_argument("--p", type=_int_at_least(1), required=True)
    crosscheck.add_argument("--max-m", type=_int_at_least(0), required=True)
    crosscheck.add_argument("--max-n", type=_int_at_least(0), required=True)
    crosscheck.set_defaults(handler=_cmd_crosscheck)

    for command in sub.choices.values():
        command.add_argument("--format", choices=FORMATS, default="pretty")
        # a handler's usage error names its subcommand, as argparse's own errors do
        command.set_defaults(parser=command)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the SIGPIPE disposition and the int/str digit limit are changed for the
    # command only, so an in-process caller gets its own back afterwards; the
    # limit belongs to the whole interpreter, so two threads of one process
    # must not run main at once
    pipe = None
    if hasattr(signal, "SIGPIPE"):
        try:
            # die quietly on a closed pipe, not in a traceback with exit 1 ("disagreement")
            pipe = signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        except ValueError:
            pass  # not the main thread of the main interpreter: SIGPIPE stays as it is
    limit = sys.get_int_max_str_digits()
    try:
        args = build_parser().parse_args(argv)
        # print every coefficient in full; the default 4,300-digit limit on
        # int-to-str conversion would end a large one in a traceback with exit 1
        sys.set_int_max_str_digits(0)
        try:
            return args.handler(args)
        except ArithmeticError as error:
            # a route failed an exactness check: a disagreement, reported as one record
            print(f"{args.parser.prog}: {error}", file=sys.stderr)
            return EXIT_DISAGREEMENT
    except KeyboardInterrupt:
        # Ctrl-C ends the command quietly, with the shell's status for SIGINT
        return 128 + signal.SIGINT
    finally:
        sys.set_int_max_str_digits(limit)
        if pipe is not None:
            # flushed while SIGPIPE is still fatal, so a reader that closed the
            # pipe ends the command by the signal, not by a BrokenPipeError at exit
            sys.stdout.flush()
            signal.signal(signal.SIGPIPE, pipe)


# ---- rendering helpers ----


def _write_lines(lines: Iterable[str]) -> None:
    # one stdout write per block of whole lines, cleared first so a failed write is not
    # repeated; ``finally`` writes the last block, so lines before an exception appear
    block: list[str] = []
    size = 0
    try:
        for line in lines:
            block.append(line)
            size += len(line) + 1
            if size >= _BLOCK_CHARS:
                text, block, size = "\n".join(block) + "\n", [], 0
                sys.stdout.write(text)
    finally:
        if block:
            sys.stdout.write("\n".join(block) + "\n")


def _emit_rows(fmt: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    # a non-integer renders as "p/q"; in csv None is a blank cell and a boolean is written
    # as in JSON; no field (ints, p/q, blanks, true/false, ok/fail, headers) needs quoting
    if fmt == "csv":
        fields = (
            ("" if v is None else str(v).lower() if isinstance(v, bool) else str(v) for v in row)
            for row in rows
        )
        _write_lines(chain([",".join(header)], map(",".join, fields)))
    else:  # json-lines: argparse's choices admit no other format, and no caller passes pretty
        import json  # here, not at the top: csv, pretty and --help skip its import time
        _write_lines(json.dumps(dict(zip(header, row)), default=str) for row in rows)


# ---- subcommands ----


def _cmd_coeff(args: argparse.Namespace) -> int:
    from . import formulas
    value = formulas.closed_form_coeff(args.p, args.m, args.n)
    if args.format == "pretty":
        print(value)
    else:
        _emit_rows(args.format, ("m", "n", "coefficient"), [(args.m, args.n, value)])
    return EXIT_OK


def _cmd_expand(args: argparse.Namespace) -> int:
    from .series import Rect
    table = ROUTES[args.method](args.p, Rect(args.max_m, args.max_n))
    if table is None:
        args.parser.error(f"--method {args.method} is only defined for --p 1")
    cells = ((m, n, v) for m, row in enumerate(table.coeff) for n, v in enumerate(row))
    if args.format == "pretty":
        _write_lines(f"[z^{m} w^{n}] {v}" for m, n, v in cells)
    else:
        _emit_rows(args.format, ("m", "n", "coefficient"), cells)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verifier
    header = ("M", "N", "lhs", "rhs", "status")
    status = "ok"

    def rows():
        # the sweep stops after its first failing row
        nonlocal status
        for M, N, lhs, rhs in verifier.sweep_cells(args.r, args.s, args.max_M, args.max_N):
            status = "ok" if lhs == rhs else "fail"
            yield M, N, lhs, rhs, status

    if args.format == "pretty":
        # the sweep ends at its first counterexample, so its last row gives the verdict
        for checked, (M, N, lhs, rhs, _) in enumerate(rows(), 1):
            pass
        window = f"r={args.r} s={args.s} 0<=M<={args.max_M} 0<=N<={args.max_N}"
        if status == "ok":
            print(f"PASS {window}: {checked} cases, identity holds")
        else:
            print(f"FAIL {window}: counterexample at M={M} N={N}: lhs={lhs} rhs={rhs}")
    elif args.format == "csv":
        # every field is an int or ok/fail, so a row is one format, as _emit_rows would
        # write it; an ok row's two equal sides are converted once
        def lines():
            for M, N, lhs, rhs, verdict in rows():
                value = str(lhs)
                yield f"{M},{N},{value},{value if verdict == 'ok' else rhs},{verdict}"

        _write_lines(chain([",".join(header)], lines()))
    else:
        _emit_rows(args.format, header, rows())
    return EXIT_OK if status == "ok" else EXIT_DISAGREEMENT


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    from .closed import cross_check_methods
    rows = cross_check_methods(args.p, args.max_m, args.max_n)
    first = next((row for row in rows if not row[-1]), None)

    if args.format == "pretty":
        if first is None:
            print(
                f"PASS p={args.p} 0<=m<={args.max_m} 0<=n<={args.max_n}: "
                f"{len(rows)} cells agree on all routes"
            )
        else:
            m, n, *values, _ = first
            shown = " ".join(f"{k}={v}" for k, v in zip(ROUTES, values) if v is not None)
            print(f"FAIL p={args.p}: disagreement at m={m} n={n}: {shown}")
    else:
        _emit_rows(args.format, ("m", "n", *ROUTES, "agree"), rows)
    return EXIT_OK if first is None else EXIT_DISAGREEMENT


if __name__ == "__main__":
    sys.exit(main())
