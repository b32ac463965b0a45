"""Run one kirkman CLI command with the library's public functions wrapped.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python bench/tracer.py verify --r 1 --s 4 --max-M 48 --max-N 48 --format csv

The command's stdout and exit code are the CLI's own.  Before the command
runs, every public function and public method (plus the arithmetic
operators of the series type) defined in ``kirkman.series``,
``kirkman.formulas``, ``kirkman.lagrange``, ``kirkman.verifier`` and
``kirkman.cli`` is wrapped.  Modules that imported a function by name
(``verifier`` imports ``closed_form_coeff`` and friends, ``cli`` imports
``lagrange_coeff``) get their binding replaced too, so no call slips past
the wrapper.

Each wrapped call is a span.  Spans are aggregated in memory per function
(calls, inclusive time, self time = inclusive time minus the time of
wrapped calls made inside it) and written once, when the command ends, as
the last line of stderr: ``bench-trace <json>``.  A generator function's
span covers every resumption of the generator it returns, not only its
creation.

Functions called more than HOT_CALLS times would cost more to time than to
run.  Past that point their calls are counted (calls, distinct arguments)
but not timed, and their time stays in the self time of the caller.  One
call in SAMPLE_EVERY is still timed, and counted SAMPLE_EVERY times, to
estimate the function's own time.  Every span's duration has the cost of
reading the clock, measured at start-up, taken off.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from importlib import import_module

LAYERS = ("series", "formulas", "lagrange", "verifier", "cli")
OPERATORS = frozenset({"__add__", "__sub__", "__mul__", "__pow__", "__getitem__"})
HOT_CALLS = 100_000
SAMPLE_EVERY = 64
MARKER = "bench-trace "


def _triangle(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def _count_cell_products(stat, args, result) -> None:
    # a truncated product or graded square root on an (a, b) rectangle
    # multiplies T(a) * T(b) pairs of cells
    rect = args[0].rect
    stat.cell_products += _triangle(rect.max_a) * _triangle(rect.max_b)


def _track_bits(stat, args, result) -> None:
    stat.max_bits = max(stat.max_bits, result.bit_length())


OBSERVERS = {
    "series.BiSeries.__mul__": _count_cell_products,
    "series.BiSeries.sqrt": _count_cell_products,
    "verifier.convolution_lhs": _track_bits,
}


class Stat:
    """Aggregate of every span of one function."""

    __slots__ = ("counter", "timed", "total_ns", "self_ns", "distinct", "cell_products", "max_bits")

    def __init__(self, track_distinct: bool) -> None:
        self.counter = itertools.count(1)  # next() returns the number of this call
        self.timed = 0
        self.total_ns = 0
        self.self_ns = 0
        self.distinct = set() if track_distinct else None
        self.cell_products = 0
        self.max_bits = 0

    def note_args(self, args, kwargs) -> None:
        try:
            self.distinct.add((args, tuple(sorted(kwargs.items()))) if kwargs else args)
        except TypeError:  # unhashable arguments: distinct calls are not counted
            self.distinct = None

    def as_dict(self) -> dict:
        return {
            "calls": next(self.counter) - 1,
            "timed": self.timed,
            "total_s": self.total_ns / 1e9,
            "self_s": self.self_ns / 1e9,
            "distinct": None if self.distinct is None else len(self.distinct),
            "cell_products": self.cell_products,
            "max_bits": self.max_bits,
        }


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # child time of each open span; the bottom entry collects top-level spans
        self.stack = [0]
        clock = time.perf_counter_ns
        empty_spans = []
        for _ in range(10_000):
            start = clock()
            empty_spans.append(clock() - start)
        self.clock_cost_ns = sorted(empty_spans)[len(empty_spans) // 2]

    def wrap(self, name: str, fn, track_distinct: bool):
        stat = self.stats[name] = Stat(track_distinct)
        observe = OBSERVERS.get(name)
        stack = self.stack
        clock = time.perf_counter_ns
        clock_cost = self.clock_cost_ns
        counter = stat.counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                next(counter)
                if stat.distinct is not None:
                    stat.note_args(args, kwargs)
                return self._resume_timed(fn(*args, **kwargs), stat)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls = next(counter)
            if stat.distinct is not None:
                stat.note_args(args, kwargs)
            hot = calls > HOT_CALLS
            if hot and calls % SAMPLE_EVERY:
                result = fn(*args, **kwargs)
            else:
                stack.append(0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = max(clock() - start - clock_cost, 0)
                    children = stack.pop()
                    weight = SAMPLE_EVERY if hot else 1
                    stat.timed += 1
                    stat.total_ns += elapsed * weight
                    stat.self_ns += (elapsed - children) * weight
                    if not hot:
                        stack[-1] += elapsed
            if observe is not None:
                observe(stat, args, result)
            return result

        return traced

    def _resume_timed(self, generator, stat: Stat):
        stack = self.stack
        clock = time.perf_counter_ns
        clock_cost = self.clock_cost_ns
        while True:
            stack.append(0)
            start = clock()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                elapsed = max(clock() - start - clock_cost, 0)
                children = stack.pop()
                stat.timed += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - children
                stack[-1] += elapsed
            yield item

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind their imports."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = import_module(f"kirkman.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(f"{layer}.{name}", obj)
                elif callable(obj):
                    wrapper = self.wrap(f"{layer}.{name}", obj, track_distinct=True)
                    wrappers[id(obj)] = (obj, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module_name != "kirkman" and not module_name.startswith("kirkman."):
                continue
            for name, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    setattr(module, name, wrapper)

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        # methods are looked up on the class, so patching it reaches every caller
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = self.wrap(name, member.__func__, track_distinct=False)
                setattr(cls, attr, type(member)(wrapped))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member, track_distinct=False))

    def report(self) -> dict:
        return {name: stat.as_dict() for name, stat in self.stats.items()}


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = import_module("kirkman.cli")
    try:
        code = cli.main(argv)
    except SystemExit as exit_:  # argparse usage errors
        code = exit_.code if isinstance(exit_.code, int) else 1
    sys.stdout.flush()
    record = {"kirkman": import_module("kirkman").__file__, "functions": tracer.report()}
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
