"""Tests of the benchmark itself: its oracle, its output check and its tracer.

Run from the repository root with ``python3 -m pytest bench -q``.  The
traced-count test runs every workload twice under the tracer and takes
about a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from math import comb

import pytest

import oracle
import run
import tracer

COUNT_UNITS = {"count", "bits", "bytes"}


def test_oracle_boundary_values():
    catalan = [comb(2 * k, k) // (k + 1) for k in range(12)]
    assert [oracle.coeff(1, m, 0) for m in range(11)] == catalan[1:]
    assert oracle.coeff(1, 1, 1) == 5
    assert [oracle.coeff(3, 0, n) for n in range(6)] == [comb(n + 2, n) for n in range(6)]


def test_corrupted_stdout_is_counted():
    _, expected = run.sweep(random.Random(7))
    # one wrong left-hand side in an otherwise correct sweep
    lines = expected.split(b"\n")
    M, N, lhs, rhs, status = lines[100].split(b",")
    lines[100] = b",".join([M, N, str(int(lhs) + 1).encode(), rhs, status])
    corrupted = b"\n".join(lines)
    tally = run.Tally(expected)
    assert tally.record(0, expected)
    assert not tally.record(0, corrupted)
    assert not tally.record(1, expected)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_missing_function_is_named_not_zero():
    stat = {"calls": 3, "timed": 3, "total_s": 0.5, "self_s": 0.25, "distinct": 3,
            "cell_products": 0, "max_bits": 0}
    metrics, missing = run.layer_metrics([{"cli.main": stat}, {"cli.main": stat}])
    assert metrics == {"cli.main.self_s": 0.25}
    assert "series.BiSeries.__mul__" in missing and "cli.main" not in missing


def _traced_result(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat(workload):
    first, second = _traced_result(workload, 3), _traced_result(workload, 3)
    assert first["correct"] and second["correct"]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = {
        name: metric["value"]
        for name, metric in first["metrics"].items()
        if metric["unit"] in COUNT_UNITS or name.endswith("distinct_ratio")
    }
    assert counts == {name: second["metrics"][name]["value"] for name in counts}

    # each workload keeps to its layers: only radical takes square roots,
    # and the identity sweep never multiplies series
    assert (counts["series.sqrt.cell_products"] > 0) == (workload == "radical")
    if workload == "sweep":
        assert counts["series.mul.calls"] == 0


def test_tracer_leaves_no_public_function_unwrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    tracer.Tracer().install()
    unwrapped = [
        f"{module_name}.{name}"
        for module_name, module in sys.modules.items()
        if module_name == "kirkman" or module_name.startswith("kirkman.")
        for name, obj in vars(module).items()
        if callable(obj)
        and not isinstance(obj, type)
        and not name.startswith("_")
        and getattr(obj, "__module__", "").removeprefix("kirkman.") in tracer.LAYERS
        and getattr(getattr(obj, "__code__", None), "co_name", None)
        not in ("traced", "traced_generator")
    ]
    assert unwrapped == []


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
