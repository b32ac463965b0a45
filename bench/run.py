"""Benchmark of the kirkman CLI: one command per fresh interpreter, closed loop.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One client runs one ``python -m kirkman.cli ...`` command at a time and
waits for it to end, for about ``--seconds``: a command starts only while
at least half of a typical one still fits, and at least one always runs.
Every command starts a new interpreter, as a user's does, so no cache of
the library survives from one command to the next.  The seed picks the
command's parameters; the program only ever sees CLI arguments.
Each command's exit code and stdout are compared byte for byte with the
expected output computed in ``oracle.py``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: wall time,
child CPU time and peak RSS per command, and ``setup_s``, the wall time of
``python -m kirkman.cli --help`` (start the interpreter, import the CLI,
build its parser, exit), spawned twice after each command.  On a shared
host the speed of the machine drifts by up to 2x over tens of seconds, so
every command is preceded by ``reference.py``, a fixed piece of arithmetic,
and each time is divided by the reference's wall time of the same round.
The metrics are REFERENCE_S times the median of those ratios: seconds on a
machine that runs the reference in REFERENCE_S.  Peak RSS is a plain
median.  The raw times are printed too.

``--trace 1`` reports the per-layer metrics instead.  It alternates a plain
command with the same command run under ``tracer.py``, takes counts from
the traced runs (they must repeat exactly) and medians of their times, and
gives ``trace_overhead_ratio``, the median over pairs of traced wall time
over plain wall time.

The last line of stdout is the JSON result.  The lines before it give the
run's metadata, every sample taken, every metric with its unit, the fail
ratio and the raw medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
from tracer import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SPAWNS_PER_COMMAND = 2
REFERENCE_S = 0.2  # the reference's wall time on the machine the benchmark was built on


# ---- workloads: the seed picks the command, the oracle gives its output ----


def sweep(rng: random.Random) -> tuple[list[str], bytes]:
    # every split of p = r + s = 5 costs about the same
    r = rng.randint(1, 4)
    args = ["verify", "--r", str(r), "--s", str(5 - r), "--max-M", "48", "--max-N", "48"]
    return args + ["--format", "csv"], oracle.verify_csv(r, 5 - r, 48, 48)


def crosscheck(rng: random.Random) -> tuple[list[str], bytes]:
    p = rng.choice((4, 5, 6))
    args = ["crosscheck", "--p", str(p), "--max-m", "12", "--max-n", "12", "--format", "csv"]
    return args, oracle.crosscheck_csv(p, 12, 12)


def radical(rng: random.Random) -> tuple[list[str], bytes]:
    # the radical construction exists only for p = 1 and its cost is set by
    # the window alone, so no parameter is left for the seed to pick
    args = ["expand", "--p", "1", "--max-m", "24", "--max-n", "24", "--method", "radical"]
    return args + ["--format", "csv"], oracle.expand_csv(1, 24, 24)


WORKLOADS = {"sweep": sweep, "crosscheck": crosscheck, "radical": radical}

# per-layer metric -> (traced function, field of its aggregate)
LAYER_METRICS = {
    "series.mul.calls": ("series.BiSeries.__mul__", "calls"),
    "series.mul.self_s": ("series.BiSeries.__mul__", "self_s"),
    "series.mul.cell_products": ("series.BiSeries.__mul__", "cell_products"),
    "series.pow.calls": ("series.BiSeries.__pow__", "calls"),
    "series.pow.s": ("series.BiSeries.__pow__", "total_s"),
    "series.reciprocal.calls": ("series.BiSeries.reciprocal", "calls"),
    "series.reciprocal.self_s": ("series.BiSeries.reciprocal", "self_s"),
    "series.sqrt.self_s": ("series.BiSeries.sqrt", "self_s"),
    "series.sqrt.cell_products": ("series.BiSeries.sqrt", "cell_products"),
    "series.div_z_plus_w.self_s": ("series.BiSeries.div_z_plus_w", "self_s"),
    "formulas.fixpoint_series.s": ("formulas.fixpoint_series", "total_s"),
    "formulas.power_series.s": ("formulas.power_series", "total_s"),
    "formulas.radical_series.s": ("formulas.radical_series", "total_s"),
    "formulas.closed_form_coeff.calls": ("formulas.closed_form_coeff", "calls"),
    "formulas.closed_form_coeff.distinct_ratio": ("formulas.closed_form_coeff", "distinct_ratio"),
    "formulas.closed_form_coeff.self_s": ("formulas.closed_form_coeff", "self_s"),
    "lagrange.lagrange_coeff.calls": ("lagrange.lagrange_coeff", "calls"),
    "lagrange.lagrange_coeff.s": ("lagrange.lagrange_coeff", "total_s"),
    "lagrange.build_phi.s": ("lagrange.build_phi", "total_s"),
    "verifier.convolution_lhs.calls": ("verifier.convolution_lhs", "calls"),
    "verifier.convolution_lhs.self_s": ("verifier.convolution_lhs", "self_s"),
    "verifier.max_lhs_bits": ("verifier.convolution_lhs", "max_bits"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
COUNT_FIELDS = frozenset({"calls", "cell_products", "distinct_ratio", "max_bits"})


# ---- children ----


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(argv: list[str]) -> Outcome:
    """Run one child to its end and collect its output and resource usage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    # wait4 reaps the child and gives its own rusage, which Popen.wait cannot
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # KiB on Linux
    )


def plain(cli_args: list[str]) -> list[str]:
    return [sys.executable, "-m", "kirkman.cli", *cli_args]


def traced(cli_args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), *cli_args]


class Tally:
    """Commands attempted, and those whose exit code or stdout was wrong."""

    def __init__(self, expected: bytes) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def record(self, code: int, stdout: bytes) -> bool:
        self.attempted += 1
        if code == 0 and stdout == self.expected:
            return True
        self.failed += 1
        got, want = stdout.splitlines(), self.expected.splitlines()
        line = next(
            (i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
            min(len(got), len(want)),
        )
        print(
            f"bench: wrong output (exit {code}); line {line + 1}: "
            f"got {got[line:line + 1]!r}, expected {want[line:line + 1]!r}",
            file=sys.stderr,
        )
        return False


def reference_time() -> float:
    outcome = spawn([sys.executable, str(BENCH / "reference.py")])
    if outcome.code != 0:
        raise RuntimeError(f"reference run failed: {outcome.stderr.decode(errors='replace')}")
    return outcome.wall_s


def setup_time() -> float:
    outcome = spawn(plain(["--help"]))
    if outcome.code != 0 or not outcome.stdout.startswith(b"usage: kirkman"):
        raise RuntimeError(f"`kirkman --help` failed: {outcome.stderr.decode(errors='replace')}")
    return outcome.wall_s


# ---- runs ----


def rounds(seconds: float):
    """Yield until the next round would likely end past ``seconds``; at least once.

    A round is expected to take the median time of the rounds so far, and
    starts only if at least half of it fits before the deadline.
    """
    start = time.perf_counter()
    durations = []
    while not durations or time.perf_counter() - start + statistics.median(durations) / 2 < seconds:
        round_start = time.perf_counter()
        yield
        durations.append(time.perf_counter() - round_start)


def timed_run(cli_args: list[str], tally: Tally, seconds: float) -> tuple[dict, dict]:
    setup_time()  # not counted: writes the bytecode cache, as a user's first run does
    samples = {"reference_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    ratios = {"wall_s": [], "cpu_s": [], "setup_s": []}
    for _ in rounds(seconds):
        reference = reference_time()
        outcome = spawn(plain(cli_args))
        tally.record(outcome.code, outcome.stdout)
        setups = [setup_time() for _ in range(SETUP_SPAWNS_PER_COMMAND)]
        samples["reference_s"].append(reference)
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name].append(getattr(outcome, name))
        samples["setup_s"] += setups
        ratios["wall_s"].append(outcome.wall_s / reference)
        ratios["cpu_s"].append(outcome.cpu_s / reference)
        ratios["setup_s"] += [setup / reference for setup in setups]
    metrics = {name: REFERENCE_S * statistics.median(values) for name, values in ratios.items()}
    metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    return metrics, samples


def trace_record(outcome: Outcome) -> dict:
    lines = [l for l in outcome.stderr.decode().splitlines() if l.startswith(MARKER)]
    if not lines:
        raise RuntimeError(f"traced command left no record: {outcome.stderr.decode()[-2000:]}")
    record = json.loads(lines[-1][len(MARKER):])
    if not Path(record["kirkman"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"traced the wrong kirkman package: {record['kirkman']}")
    return record["functions"]


def layer_value(functions: dict, name: str, field: str) -> float:
    stat = functions[name]
    if field == "distinct_ratio":
        return stat["distinct"] / stat["calls"] if stat["calls"] else 0.0
    return stat[field]


def layer_metrics(records: list[dict]) -> tuple[dict, set]:
    """Per-layer metrics from traced commands, and the functions none of them had.

    A metric of a missing function is left out, never reported as 0.
    """
    metrics, missing = {}, set()
    for metric, (function, field) in LAYER_METRICS.items():
        if function not in records[0]:
            missing.add(function)
            continue
        values = [layer_value(functions, function, field) for functions in records]
        if field in COUNT_FIELDS:
            if len(set(values)) != 1:
                raise RuntimeError(f"{metric} differs between traced runs: {values}")
            metrics[metric] = values[0]
        else:
            metrics[metric] = statistics.median(values)
    return metrics, missing


def traced_run(cli_args: list[str], tally: Tally, seconds: float) -> tuple[dict, dict]:
    plain_walls, traced_walls, records, stdout_sizes = [], [], [], set()
    for _ in rounds(seconds):
        outcome = spawn(plain(cli_args))
        tally.record(outcome.code, outcome.stdout)
        plain_walls.append(outcome.wall_s)
        outcome = spawn(traced(cli_args))
        tally.record(outcome.code, outcome.stdout)
        traced_walls.append(outcome.wall_s)
        stdout_sizes.add(len(outcome.stdout))
        records.append(trace_record(outcome))

    metrics, missing = layer_metrics(records)
    for function in sorted(missing):
        print(f"bench: traced function not found: {function}", file=sys.stderr)
    if len(stdout_sizes) != 1:
        raise RuntimeError(f"cli.stdout_bytes differs between traced runs: {stdout_sizes}")
    metrics["cli.stdout_bytes"] = stdout_sizes.pop()
    metrics["trace_overhead_ratio"] = statistics.median(
        traced / plain for traced, plain in zip(traced_walls, plain_walls)
    )
    return metrics, {"plain_wall_s": plain_walls, "traced_wall_s": traced_walls}


# ---- metadata and output ----


def git_sha() -> str | None:
    """HEAD of the checkout's own git repository; None outside one."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
    except FileNotFoundError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kirkman").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kirkman" / "cli.py").is_file():
        print(f"bench: no kirkman source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    cli_args, expected = WORKLOADS[args.workload](random.Random(args.seed))
    tally = Tally(expected)
    run = traced_run if args.trace else timed_run
    measured, samples = run(cli_args, tally, args.seconds)

    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in measured
    }
    meta = {
        "workload": args.workload,
        "command": "kirkman " + " ".join(cli_args),
        "seed": args.seed,
        "trace": args.trace,
        "samples": {args.workload: {name: len(values) for name, values in samples.items()}},
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("bench-meta " + json.dumps(meta))
    print("bench-samples " + json.dumps(samples))
    for name, metric in metrics.items():
        value = metric["value"]
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {metric['unit']}")
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g} ratio")
    raw = {name: statistics.median(values) for name, values in samples.items()}
    print("raw medians: " + ", ".join(f"{name} = {value:.6g}" for name, value in raw.items()))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
