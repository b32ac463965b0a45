"""The line-trace gate: ``src/kirkman`` holds only what a command runs.

``test_every_statement_runs_or_is_allowed`` imports ``kirkman`` anew and
runs ``INVOCATIONS`` in process through ``kirkman.cli.main`` under
``sys.settrace``: every subcommand in every format, ``--help`` and usage
errors, every route, the sweep's edge windows and a Cayley window whose
packed product is split after a row, and the corruption doubles of
``oracles``, which reach the error branches a bad table takes.  A statement
of ``src/kirkman`` that none of them ran fails the gate unless
``src_runs_allowed.ALLOWED`` names it, and so does an entry of that list
that now runs or names no statement.

A statement is found by ``ast``, keyed by its module, its qualified name
and its first line stripped, never by a line number, and it ran when a
trace event fell on one of its own lines: a simple statement's lines, or
a compound statement's header.  So an edit elsewhere, or the line tables
of another Python version, move no entry.  A lambda runs on no line of its
own, since its line is its statement's: it is keyed by its module, the
qualified name of its scope with ``.<lambda>`` appended and its first line
stripped, and it ran when its code object was called.  Lambdas that start
on one line share a key, and one call counts for all of them.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import kirkman
from kirkman.cli import FORMATS

from oracles import (
    corrupt_radical_root,
    corrupt_route,
    corrupted_closed_table,
    interrupted,
    scaled_closed_table,
    times_one_plus_half_y,
)
from src_runs_allowed import ALLOWED

SRC = Path(kirkman.__file__).resolve().parent


# ---- the checker ----


def _blocks(node: ast.AST) -> list[list[ast.stmt]]:
    # the statement lists nested in node, in source order: bodies, else and
    # finally blocks, and the bodies of except handlers and match cases
    blocks = []
    for _, value in ast.iter_fields(node):
        if isinstance(value, list) and value:
            if isinstance(value[0], ast.stmt):
                blocks.append(value)
            elif isinstance(value[0], (ast.excepthandler, ast.match_case)):
                blocks.extend(item.body for item in value)
    return blocks


def _lambdas(node: ast.stmt) -> list[ast.Lambda]:
    # the lambdas in node's own expressions, not in the statements nested in it
    nested = {id(inner) for block in _blocks(node) for stmt in block for inner in ast.walk(stmt)}
    return [n for n in ast.walk(node) if isinstance(n, ast.Lambda) and id(n) not in nested]


def _statements(source: str) -> Iterator[tuple[str, str, range]]:
    # (scope, first line stripped, own lines) of each statement that compiles
    # to code, and (scope.<lambda>, first line stripped, first line) of each
    # lambda; scope is the dotted path of the enclosing classes and functions
    lines = source.splitlines()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def walk(body: list, scope: str, in_function: bool) -> Iterator[tuple[str, str, range]]:
        for index, node in enumerate(body):
            docstring = (
                index == 0 and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            )
            # a docstring, a scope declaration or a bare annotation in a
            # function compiles to nothing
            if docstring or isinstance(node, (ast.Global, ast.Nonlocal)) or (
                in_function and isinstance(node, ast.AnnAssign) and node.value is None
            ):
                continue
            blocks = _blocks(node)
            if not isinstance(node, ast.Try):  # a try line runs nothing of its own
                first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
                last = blocks[0][0].lineno - 1 if blocks else node.end_lineno
                yield scope, lines[node.lineno - 1].strip(), range(first, max(first, last) + 1)
            for lam in _lambdas(node):
                own = range(lam.lineno, lam.lineno + 1)
                yield f"{scope}.<lambda>", lines[lam.lineno - 1].strip(), own
            named = isinstance(node, (*functions, ast.ClassDef))
            inner = f"{scope}.{node.name}" if named else scope
            for block in blocks:
                yield from walk(block, inner, in_function or isinstance(node, functions))

    yield from walk(ast.parse(source).body, "", False)


def _by_file(events: set[tuple[str, int]]) -> dict[Path, set[int]]:
    lines: dict[Path, set[int]] = {}
    for file, line in events:
        lines.setdefault(Path(file).resolve(), set()).add(line)
    return lines


def unrun_statements(
    sources: Mapping[str, Path],
    trace: tuple[set[tuple[str, int]], set[tuple[str, int]]],
    allowed: Mapping[tuple[str, str], str],
) -> list[str]:
    """What fails the gate: each statement of ``sources`` (module name -> file)
    that no line of ``trace`` reached and each lambda there that ``trace``
    never called, unless ``allowed`` names it; and each key of ``allowed``
    that names no statement or lambda left unrun.  ``trace`` is the pair of
    sets ``line_trace`` collects."""
    lines_ran, lambdas_called = map(_by_file, trace)
    problems, found, needed = [], set(), set()
    for module, path in sources.items():
        done = lines_ran.get(path.resolve(), set())
        called = lambdas_called.get(path.resolve(), set())
        for scope, text, own in _statements(path.read_text()):
            key = (module + scope, text)
            found.add(key)
            is_lambda = scope.endswith(".<lambda>")
            if (called if is_lambda else done).isdisjoint(own):
                if key in allowed:
                    needed.add(key)
                else:
                    verb = "called" if is_lambda else "ran"
                    problems.append(f"{path.name}:{own[0]}: {key[0]}: never {verb}: {text}")
    for key in sorted(allowed.keys() - needed):
        problems.append(f"allow-list entry {key}: {'runs' if key in found else 'no such statement'}")
    return problems


@contextlib.contextmanager
def line_trace(root: Path) -> Iterator[tuple[set[tuple[str, int]], set[tuple[str, int]]]]:
    """Collect (file, line) of every line event in a file under ``root``, and
    (file, first line) of every lambda called there; give back whatever
    tracer was set before."""
    ran: set[tuple[str, int]] = set()
    called: set[tuple[str, int]] = set()
    add, inside, root = ran.add, {}, root.resolve()

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        file = code.co_filename
        if file not in inside:
            inside[file] = Path(file).resolve().is_relative_to(root)
        if not inside[file]:
            return None
        if code.co_name == "<lambda>":
            called.add((file, code.co_firstlineno))
        return local

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        yield ran, called
    finally:
        sys.settrace(before)


# ---- the gate ----


WINDOW = ["--max-m", "2", "--max-n", "2"]


def _formats(argv: list[str]) -> list[tuple[None, list[str], int]]:
    return [(None, [*argv, "--format", fmt], 0) for fmt in FORMATS]


def _patch(target: str, double: Callable) -> Callable:
    return lambda monkeypatch: monkeypatch.setattr(target, double)


# (double applied first, or None; argv; exit code)
INVOCATIONS = [
    (None, ["--help"], 0),
    *((None, [command, "--help"], 0) for command in ("coeff", "expand", "verify", "crosscheck")),
    (None, [], 2),
    (None, ["coeff", "--p", "x", "--m", "1", "--n", "1"], 2),
    (None, ["coeff", "--p", "0", "--m", "1", "--n", "1"], 2),
    (None, ["expand", "--p", "1", "--max-m", "-1", "--max-n", "1"], 2),
    (None, ["expand", "--p", "1", *WINDOW, "--method", "foo"], 2),
    (None, ["verify", "--r", "1", "--s", "1", "--max-M", "2", "--cayley", "--max-N", "0"], 2),
    (None, ["expand", "--p", "2", *WINDOW, "--method", "radical"], 2),
    *_formats(["coeff", "--p", "2", "--m", "3", "--n", "4"]),
    *(
        case
        for method in kirkman.ROUTES
        for case in _formats(["expand", "--p", "1", *WINDOW, "--method", method])
    ),
    *_formats(["expand", "--p", "3", *WINDOW]),
    *_formats(["verify", "--r", "2", "--s", "3", "--max-M", "3", "--max-N", "4"]),
    *_formats(["verify", "--r", "1", "--s", "1", "--max-M", "0", "--max-N", "0"]),
    *_formats(["verify", "--r", "1", "--s", "2", "--max-M", "0", "--max-N", "5"]),
    *_formats(["verify", "--r", "1", "--s", "1", "--cayley", "--max-M", "4"]),
    # a packed product split after a row with one slot per row (max_b = 0):
    # slots of 650 digits, split after row 834
    (None, ["verify", "--r", "1", "--s", "1", "--cayley", "--max-M", "1080", "--format", "csv"], 0),
    *_formats(["crosscheck", "--p", "1", *WINDOW]),
    *_formats(["crosscheck", "--p", "4", *WINDOW]),
    # the corruption doubles
    *(
        (lambda mp, route=route: corrupt_route(mp, route, 7), ["crosscheck", "--p", "1", *WINDOW], 1)
        for route in ("closed_table", "power_series", "lagrange_table", "radical_series")
    ),
    *(
        (lambda mp, delta=delta: corrupt_route(mp, "closed_table", delta),
         ["verify", "--r", "2", "--s", "3", "--max-M", "4", "--max-N", "4"], 1)
        for delta in (Fraction(1, 2), -9)
    ),
    # the root's cell shifted so that z+w leaves a constant term, z+w leaves
    # a residual, a division by a leaves a remainder, and f gets an odd cell
    *(
        (lambda mp, cell=cell: corrupt_radical_root(mp, *cell),
         ["expand", "--method", "radical", "--p", "1", *WINDOW], 1)
        for cell in ((1, 0, 1), (1, 1, 1), (2, 1, 1), (2, 2, 2))
    ),
    (_patch("kirkman.closed.closed_table", corrupted_closed_table),
     ["verify", "--r", "1", "--s", "1", "--max-M", "2", "--max-N", "2"], 1),
    (_patch("kirkman.closed.closed_table", corrupted_closed_table),
     ["verify", "--r", "1", "--s", "1", "--max-M", "2", "--max-N", "2", "--format", "csv"], 1),
    (_patch("kirkman.closed.closed_table", scaled_closed_table),
     ["verify", "--r", "1", "--s", "1", "--max-M", "3", "--max-N", "3"], 1),
    # phi = 1 + y/2: Fraction cells, integral in row 0 and not in row 1
    (_patch("kirkman.lagrange._times_phi", times_one_plus_half_y),
     ["expand", "--method", "lagrange", "--p", "1", *WINDOW], 1),
    (_patch("kirkman.closed.closed_table", interrupted), ["expand", "--p", "1", *WINDOW], 130),
]


@contextlib.contextmanager
def _fresh_kirkman() -> Iterator[None]:
    # import kirkman anew, so its module bodies run under the trace as they
    # do in a command; the suite's own modules come back afterwards
    def ours() -> list[str]:
        return [name for name in sys.modules if name.split(".")[0] == "kirkman"]

    saved = {name: sys.modules.pop(name) for name in ours()}
    try:
        yield
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_statement_runs_or_is_allowed():
    codes = []
    with _fresh_kirkman(), line_trace(SRC) as trace:
        for double, argv, _ in INVOCATIONS:
            with pytest.MonkeyPatch.context() as monkeypatch:
                if double is not None:
                    double(monkeypatch)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        codes.append(import_module("kirkman.cli").main(argv))
                    except SystemExit as stop:
                        codes.append(stop.code)
    assert codes == [code for _, _, code in INVOCATIONS]
    sources = {path.stem: path for path in sorted(SRC.glob("*.py"))}
    problems = unrun_statements(sources, trace, ALLOWED)
    assert not problems, "\n".join(problems)


# ---- the checker's own test ----


THROWAWAY = '''\
def called(flag):
    if flag:
        return (lambda: 1)()
    return 2


def uncalled():
    return 3


never = lambda: 4
'''


def test_the_checker_reports_what_did_not_run(tmp_path):
    path = tmp_path / "throwaway.py"
    path.write_text(THROWAWAY)
    namespace: dict = {}
    with line_trace(tmp_path) as trace:
        exec(compile(THROWAWAY, str(path), "exec"), namespace)
        namespace["called"](True)
    runs = ("throwaway.called", "return (lambda: 1)()")
    called = ("throwaway.called.<lambda>", "return (lambda: 1)()")
    gone = ("throwaway.called", "return 5")
    problems = unrun_statements(
        {"throwaway": path}, trace, {runs: "stale", called: "stale", gone: "stale"}
    )
    assert problems == [
        "throwaway.py:4: throwaway.called: never ran: return 2",
        "throwaway.py:8: throwaway.uncalled: never ran: return 3",
        # the lambda's line ran, but the lambda was never called
        "throwaway.py:11: throwaway.<lambda>: never called: never = lambda: 4",
        f"allow-list entry {runs}: runs",
        f"allow-list entry {gone}: no such statement",
        f"allow-list entry {called}: runs",
    ]
    # with no trace at all, every statement and lambda fails, the definitions too
    assert len(unrun_statements({"throwaway": path}, (set(), set()), {})) == 9
