"""The ``kirkman`` namespace: every public name, imported from its home module on first use."""

from __future__ import annotations

import ast
import subprocess
import sys
from functools import reduce
from importlib import import_module
from pathlib import Path

import pytest

import kirkman

from oracles import cli_env

HOMES = {
    "closed": ("closed_table", "cross_check_methods"),
    "formulas": ("closed_form_coeff", "fixpoint_series", "power_series", "radical_series"),
    "lagrange": ("build_phi", "lagrange_coeff", "lagrange_table"),
    "series": ("BiSeries", "Rect"),
    "verifier": ("convolution_lhs", "sweep_cells"),
}


def test_all_lists_every_public_name():
    assert kirkman.__all__ == [
        "BiSeries",
        "Rect",
        "build_phi",
        "closed_form_coeff",
        "closed_table",
        "convolution_lhs",
        "cross_check_methods",
        "fixpoint_series",
        "lagrange_coeff",
        "lagrange_table",
        "power_series",
        "radical_series",
        "sweep_cells",
    ]
    assert sorted(kirkman.__all__) == sorted(name for names in HOMES.values() for name in names)


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in HOMES.items() for name in names]
)
def test_name_is_its_home_modules_object(module, name):
    assert getattr(kirkman, name) is getattr(import_module(f"kirkman.{module}"), name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from kirkman import *", namespace)
    for name in kirkman.__all__:
        assert namespace[name] is getattr(kirkman, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'kirkman' has no attribute 'no_such_name'$"):
        kirkman.no_such_name
    assert not hasattr(kirkman, "no_such_name")


def test_import_loads_a_home_module_only_when_a_name_is_used():
    script = (
        "import sys, kirkman\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'kirkman')\n"
        "print(*loaded()); kirkman.Rect; print(*loaded())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=cli_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["kirkman", "kirkman kirkman.series"]


def test_bench_traced_functions_exist():
    # bench/run.py times these functions by name: read its LAYER_METRICS
    # without importing or running the bench, and resolve each in kirkman
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "run.py").read_text())
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYER_METRICS"
    ]
    functions = {function for function, _ in ast.literal_eval(table).values()}
    assert {"series.BiSeries.sqrt", "formulas.fixpoint_series"} <= functions
    for function in sorted(functions):
        module, *path = function.split(".")
        assert callable(reduce(getattr, path, import_module(f"kirkman.{module}"))), function
