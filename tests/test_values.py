"""The library's value types, README's Library block, and what importing the CLI loads."""

from __future__ import annotations

import ast
import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kirkman.series import BiSeries, Rect
from kirkman.verifier import Counterexample, VerifyReport

from oracles import cli_env

# each type's constructor from fixed fields, and one field to assign to
VALUES = {
    "Rect": (lambda: Rect(1, 2), "max_a"),
    "BiSeries": (lambda: BiSeries.from_table(Rect(1, 2), {(0, 0): 1, (1, 2): 3}), "coeff"),
    "BiSeries-from-lists": (lambda: BiSeries([[1, 2], [3, 4]]), "rect"),
    "Counterexample": (lambda: Counterexample(1, 2, 3, 4, 5, 6), "lhs"),
    "VerifyReport": (lambda: VerifyReport("r=1 s=1", 3), "checked_count"),
}
HASHABLE = (Rect, BiSeries, Counterexample)


@pytest.mark.parametrize("make, field", VALUES.values(), ids=VALUES)
def test_value_type_contract(make, field):
    value, same = make(), make()
    assert value is not same and value == same
    if isinstance(value, HASHABLE):
        assert hash(value) == hash(same)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(same, field))
    assert value == same
    # copy and pickle rebuild an equal value, even where assignment is refused
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


def test_unequal_fields_give_unequal_values():
    assert Rect(1, 2) != Rect(2, 1)
    assert BiSeries.from_table(Rect(1, 2), {}) != BiSeries.one(Rect(1, 2))
    assert BiSeries.from_table(Rect(1, 2), {}) != BiSeries.from_table(Rect(2, 1), {})


def test_readme_library_block_values():
    # each call in README's Library block returns the value its comment shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)```", readme, re.MULTILINE | re.DOTALL)
    setup, *calls = [line for line in block[1].splitlines() if line]
    namespace: dict = {}
    exec(setup, namespace)
    shown = []
    for call in calls:
        expression, comment = call.split("#")
        shown.append(ast.literal_eval(comment.strip()))
        assert eval(expression, namespace) == shown[-1], call
    assert shown == ["pass", 14, 14]


def test_series_repr_and_no_scalar_arithmetic():
    x = BiSeries.from_table(Rect(1, 2), {})
    assert repr(x) == "<BiSeries on (1, 2)>"
    with pytest.raises(TypeError):
        2 * x


def test_cli_import_loads_no_introspection_modules():
    # the set difference ignores whatever the interpreter's site hooks preload
    code = (
        "import sys; before = set(sys.modules); import kirkman.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, check=True
    ).stdout.split()
    assert "kirkman.cli" in out
    # json is imported only where json-lines output is rendered
    assert not {"dataclasses", "inspect", "json"} & set(out)
