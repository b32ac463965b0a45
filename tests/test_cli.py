"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import kirkman
import kirkman.cli as cli_module
import kirkman.closed as closed_module
from kirkman import lagrange
from kirkman.cli import main
from kirkman.series import BiSeries

from oracles import (
    cli_env,
    corrupt_radical_root,
    corrupt_route,
    corrupted_closed_table,
    interrupted,
    record_calls,
    scaled_closed_table,
    times_one_plus_half_y,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_usage_examples_exit_0(capsys):
    # every command in README's CLI block runs as shown, so the examples cannot rot
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = re.findall(r"^    kirkman (.+)$", readme, flags=re.MULTILINE)
    assert len(commands) >= 5
    for command in commands:
        code, out, _ = run(shlex.split(command), capsys)
        assert code == 0, command
        assert out, command


# ---- coeff ----


def test_coeff_pretty(capsys):
    code, out, _ = run(["coeff", "--p", "1", "--m", "1", "--n", "1"], capsys)
    assert code == 0
    assert out == "5\n"


def test_coeff_trivial(capsys):
    code, out, _ = run(["coeff", "--p", "2", "--m", "0", "--n", "0"], capsys)
    assert code == 0
    assert out == "1\n"


def test_coeff_csv(capsys):
    code, out, _ = run(["coeff", "--p", "2", "--m", "1", "--n", "1", "--format", "csv"], capsys)
    assert code == 0
    assert out == "m,n,coefficient\n1,1,14\n"


def test_coeff_json_lines(capsys):
    code, out, _ = run(
        ["coeff", "--p", "3", "--m", "1", "--n", "1", "--format", "json-lines"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"m": 1, "n": 1, "coefficient": 27}


def test_coeff_prints_past_the_int_str_limit():
    # Catalan(8001) has 4,811 digits, past CPython's default limit of 4,300 on
    # int-to-str conversion; a subprocess leaves this process's limit alone
    expected = str(Decimal(math.comb(16002, 8001) // 8002))  # Decimal has no such limit
    argv = ["coeff", "--p", "1", "--m", "8000", "--n", "0", "--format"]
    for fmt in ("pretty", "json-lines"):
        proc = subprocess.run(
            [sys.executable, "-m", "kirkman.cli", *argv, fmt],
            capture_output=True, text=True, env=cli_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.rstrip("\n")
        if fmt == "json-lines":
            out = json.loads(out, parse_int=str)["coefficient"]
        assert out == expected


def test_main_restores_the_callers_int_str_limit(capsys):
    # main lifts the limit for its command only: the coefficient prints in
    # full, and an in-process caller gets its own limit back afterwards, also
    # when parsing exits by --help or a usage error
    expected = str(Decimal(math.comb(16002, 8001) // 8002))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run(["coeff", "--p", "1", "--m", "8000", "--n", "0"], capsys)
        assert sys.get_int_max_str_digits() == 4300
        for argv, status in (["--help"], 0), (["coeff", "--p", "0", "--m", "1", "--n", "1"], 2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == status
            assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 0
    assert out.rstrip("\n") == expected


def test_main_runs_in_a_worker_thread(capsys):
    # only the main thread may set SIGPIPE, so a worker leaves it alone, but
    # still lifts the digit limit for the command and restores it afterwards
    expected = str(Decimal(math.comb(16002, 8001) // 8002))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    codes = []
    try:
        worker = threading.Thread(
            target=lambda: codes.append(main(["coeff", "--p", "1", "--m", "8000", "--n", "0"]))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    assert codes == [0]
    assert capsys.readouterr().out.rstrip("\n") == expected


def test_main_restores_the_callers_sigpipe_disposition(capsys):
    # main dies on a closed pipe for its command only: an in-process caller
    # that ignores SIGPIPE still ignores it afterwards
    previous = signal.signal(signal.SIGPIPE, signal.SIG_IGN)
    try:
        code, out, _ = run(["coeff", "--p", "1", "--m", "1", "--n", "1"], capsys)
        assert signal.getsignal(signal.SIGPIPE) == signal.SIG_IGN
    finally:
        signal.signal(signal.SIGPIPE, previous)
    assert code == 0
    assert out == "5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--p", "1", "--max-m", "2", "--max-n", "2"],
        ["verify", "--r", "1", "--s", "1", "--max-M", "2", "--max-N", "2", "--format", "csv"],
        ["crosscheck", "--p", "1", "--max-m", "2", "--max-n", "2"],
    ],
    ids=["expand", "verify", "crosscheck"],
)
def test_ctrl_c_exits_130_quietly_and_restores_the_callers_settings(monkeypatch, capsys, argv):
    # a route interrupted by Ctrl-C ends the command with the shell's status
    # for SIGINT and no traceback, and main still gives back SIGPIPE and the limit
    monkeypatch.setattr(closed_module, "closed_table", interrupted)
    limit = sys.get_int_max_str_digits()
    pipe = signal.signal(signal.SIGPIPE, signal.SIG_IGN)
    sys.set_int_max_str_digits(4300)
    try:
        try:
            code, _, err = run(argv, capsys)
        except KeyboardInterrupt:
            # escaping here would end the whole test session, not fail this test
            pytest.fail("KeyboardInterrupt escaped main")
        assert sys.get_int_max_str_digits() == 4300
        assert signal.getsignal(signal.SIGPIPE) == signal.SIG_IGN
    finally:
        sys.set_int_max_str_digits(limit)
        signal.signal(signal.SIGPIPE, pipe)
    assert (code, err) == (130, "")


def test_coeff_rejects_zero_power(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--p", "0", "--m", "1", "--n", "1"])
    assert exc.value.code == 2
    assert "positive" in capsys.readouterr().err


def test_coeff_rejects_missing_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--p", "1", "--m", "1"])
    assert exc.value.code == 2


def test_coeff_rejects_garbage_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--p", "1", "--m", "x", "--n", "1"])
    assert exc.value.code == 2


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---- expand ----


def test_expand_closed_csv_golden(capsys):
    code, out, _ = run(
        ["expand", "--p", "1", "--max-m", "1", "--max-n", "1", "--method", "closed",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == "m,n,coefficient\n0,0,1\n0,1,1\n1,0,2\n1,1,5\n"


def test_expand_csv_is_bit_stable(capsys):
    argv = ["expand", "--p", "2", "--max-m", "3", "--max-n", "2", "--format", "csv"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_expand_series_method(capsys):
    code, out, _ = run(
        ["expand", "--p", "2", "--max-m", "1", "--max-n", "0", "--method", "series",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == "m,n,coefficient\n0,0,1\n1,0,4\n"


def test_expand_radical_method(capsys):
    code, out, _ = run(
        ["expand", "--p", "1", "--max-m", "2", "--max-n", "0", "--method", "radical",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == "m,n,coefficient\n0,0,1\n1,0,2\n2,0,5\n"


def test_expand_radical_rejected_for_higher_powers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--p", "2", "--max-m", "1", "--max-n", "1", "--method", "radical"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kirkman expand")
    assert "radical" in err


@pytest.mark.parametrize("method", kirkman.ROUTES)
def test_expand_matches_closed(capsys, method):
    p = "1" if method == "radical" else "2"
    base = ["--p", p, "--max-m", "2", "--max-n", "2", "--format", "csv"]
    _, closed_out, _ = run(["expand", *base, "--method", "closed"], capsys)
    code, method_out, _ = run(["expand", *base, "--method", method], capsys)
    assert code == 0
    assert method_out == closed_out


@pytest.mark.parametrize("method", kirkman.ROUTES)
def test_expand_max_m_0_is_row_0(capsys, method):
    # row 0 of f^p is (1-w)^-p: C(n+1, 1) = n+1 for p = 2, and 1 for p = 1
    p = 1 if method == "radical" else 2
    argv = ["--p", str(p), "--max-m", "0", "--max-n", "3", "--format", "csv"]
    code, out, _ = run(["expand", *argv, "--method", method], capsys)
    assert code == 0
    assert out == "m,n,coefficient\n" + "".join(
        f"0,{n},{n + 1 if p == 2 else 1}\n" for n in range(4)
    )


def test_expand_pretty(capsys):
    code, out, _ = run(["expand", "--p", "1", "--max-m", "1", "--max-n", "0"], capsys)
    assert code == 0
    assert out == "[z^0 w^0] 1\n[z^1 w^0] 2\n"


def test_expand_json_lines(capsys):
    code, out, _ = run(
        ["expand", "--p", "1", "--max-m", "1", "--max-n", "1", "--format", "json-lines"],
        capsys,
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"m": 0, "n": 0, "coefficient": 1},
        {"m": 0, "n": 1, "coefficient": 1},
        {"m": 1, "n": 0, "coefficient": 2},
        {"m": 1, "n": 1, "coefficient": 5},
    ]


def test_expand_method_choices_are_the_routes(capsys):
    # expand's choices are the one registry's names, in crosscheck's column
    # order; the registry imports no arithmetic, so parsing loads none
    with pytest.raises(SystemExit):
        main(["expand", "--help"])
    assert f"--method {{{','.join(kirkman.ROUTES)}}}" in capsys.readouterr().out
    assert tuple(kirkman.ROUTES) == ("closed", "series", "lagrange", "radical")


# ---- verify ----


def test_verify_pass_pretty(capsys):
    code, out, _ = run(["verify", "--r", "1", "--s", "1", "--max-M", "10", "--max-N", "10"], capsys)
    assert code == 0
    assert out.startswith("PASS")
    assert "121 cases" in out


def test_verify_generalized_pass(capsys):
    code, out, _ = run(["verify", "--r", "2", "--s", "3", "--max-M", "6", "--max-N", "6"], capsys)
    assert code == 0
    assert out.startswith("PASS")


def test_verify_cayley_flag(capsys):
    code, out, _ = run(["verify", "--r", "1", "--s", "1", "--cayley", "--max-M", "100"], capsys)
    assert code == 0
    assert "0<=N<=0" in out


def test_verify_csv_rows(capsys):
    code, out, _ = run(
        ["verify", "--r", "1", "--s", "1", "--max-M", "1", "--max-N", "0", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == "M,N,lhs,rhs,status\n0,0,1,1,ok\n1,0,4,4,ok\n"


def test_verify_csv_is_written_in_blocks(monkeypatch):
    # 2,401 rows and a header in at most three writes of about 64 KiB each
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    writes = record_calls(monkeypatch, "write", sys.stdout)
    argv = ["verify", "--r", "2", "--s", "3", "--max-M", "48", "--max-N", "48", "--format", "csv"]
    assert main(argv) == 0
    assert len(writes) <= 3
    assert sum(len(text) for text, in writes) == len(sys.stdout.getvalue()) == 180_046


def test_lines_rendered_before_an_exception_reach_stdout(capsys):
    def lines():
        yield "M,N"
        yield "0,0"
        raise RuntimeError("table failed")

    with pytest.raises(RuntimeError, match="table failed"):
        cli_module._write_lines(lines())
    assert capsys.readouterr().out == "M,N\n0,0\n"


def test_verify_json_lines(capsys):
    code, out, _ = run(
        ["verify", "--r", "1", "--s", "1", "--max-M", "0", "--max-N", "1",
         "--format", "json-lines"],
        capsys,
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"M": 0, "N": 0, "lhs": 1, "rhs": 1, "status": "ok"},
        {"M": 0, "N": 1, "lhs": 2, "rhs": 2, "status": "ok"},
    ]


def test_verify_requires_max_N_without_cayley(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--r", "1", "--s", "1", "--max-M", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: kirkman verify")


def test_verify_cayley_conflicts_with_max_N(capsys):
    # --cayley is --max-N 0, so even --max-N 0 may not be given beside it
    for bound in (["--cayley", "--max-N", "3"], ["--cayley", "--max-N", "0"],
                  ["--max-N", "0", "--cayley"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--r", "1", "--s", "1", "--max-M", "5", *bound])
        assert exc.value.code == 2, bound
        assert capsys.readouterr().err.startswith("usage: kirkman verify"), bound


def test_verify_cayley_is_max_N_0(capsys):
    base = ["verify", "--r", "1", "--s", "1", "--max-M", "30", "--format"]
    for fmt in cli_module.FORMATS:
        cayley = run([*base, fmt, "--cayley"], capsys)
        assert cayley == run([*base, fmt, "--max-N", "0"], capsys), fmt
        assert cayley[0] == 0 and cayley[1], fmt


@pytest.mark.parametrize("command", ["coeff", "expand", "verify", "crosscheck"])
def test_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: kirkman {command}")
    assert "--format {pretty,csv,json-lines}" in out
    if command == "verify":
        assert "(--max-N MAX_N | --cayley)" in out


# ---- crosscheck ----


def test_crosscheck_pass(capsys):
    code, out, _ = run(["crosscheck", "--p", "1", "--max-m", "6", "--max-n", "6"], capsys)
    assert code == 0
    assert out.startswith("PASS")
    assert "49 cells" in out


def test_crosscheck_single_cell(capsys):
    code, out, _ = run(["crosscheck", "--p", "1", "--max-m", "0", "--max-n", "0"], capsys)
    assert code == 0
    assert "1 cells" in out


def test_crosscheck_csv_includes_radical_for_first_power(capsys):
    code, out, _ = run(
        ["crosscheck", "--p", "1", "--max-m", "1", "--max-n", "0", "--format", "csv"], capsys
    )
    assert code == 0
    assert out == (
        "m,n,closed,series,lagrange,radical,agree\n"
        "0,0,1,1,1,1,true\n"
        "1,0,2,2,2,2,true\n"
    )


def test_crosscheck_csv_blank_radical_for_higher_powers(capsys):
    code, out, _ = run(
        ["crosscheck", "--p", "2", "--max-m", "0", "--max-n", "0", "--format", "csv"], capsys
    )
    assert code == 0
    assert out == "m,n,closed,series,lagrange,radical,agree\n0,0,1,1,1,,true\n"


def test_crosscheck_json_lines(capsys):
    code, out, _ = run(
        ["crosscheck", "--p", "2", "--max-m", "0", "--max-n", "1", "--format", "json-lines"],
        capsys,
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"m": 0, "n": 0, "closed": 1, "series": 1, "lagrange": 1, "radical": None, "agree": True},
        {"m": 0, "n": 1, "closed": 2, "series": 2, "lagrange": 2, "radical": None, "agree": True},
    ]


# ---- corrupted-coefficient paths ----


def test_verify_exits_1_on_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(closed_module, "closed_table", corrupted_closed_table)
    code, out, _ = run(["verify", "--r", "1", "--s", "1", "--max-M", "2", "--max-N", "2"], capsys)
    assert code == 1
    assert out.startswith("FAIL")
    assert "M=1 N=0" in out
    assert "lhs=4" in out and "rhs=5" in out


def test_verify_counterexample_record_is_well_formed(monkeypatch, capsys):
    monkeypatch.setattr(closed_module, "closed_table", corrupted_closed_table)
    code, out, _ = run(
        ["verify", "--r", "1", "--s", "1", "--max-M", "2", "--max-N", "2",
         "--format", "json-lines"],
        capsys,
    )
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1] == {"M": 1, "N": 0, "lhs": 4, "rhs": 5, "status": "fail"}
    assert all(record["status"] == "ok" for record in records[:-1])


def test_verify_csv_prints_every_row_up_to_the_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(closed_module, "closed_table", corrupted_closed_table)
    code, out, _ = run(
        ["verify", "--r", "1", "--s", "1", "--max-M", "2", "--max-N", "2", "--format", "csv"],
        capsys,
    )
    assert code == 1
    assert out == "M,N,lhs,rhs,status\n0,0,1,1,ok\n0,1,2,2,ok\n0,2,3,3,ok\n1,0,4,5,fail\n"


@pytest.mark.parametrize(
    "corrupt",
    [
        None,
        lambda monkeypatch: corrupt_route(monkeypatch, "closed_table", 7),
        lambda monkeypatch: monkeypatch.setattr(
            closed_module, "closed_table", corrupted_closed_table
        ),
    ],
    ids=["uncorrupted", "cell-0-0", "c2-cell-1-0"],
)
def test_verify_csv_and_json_lines_give_the_same_rows(monkeypatch, capsys, corrupt):
    # csv writes each row by its own format, and pretty only the count and the
    # verdict: all three keep the same rows, up to and including the first
    # failing one, and the same exit code
    if corrupt:
        corrupt(monkeypatch)
    verdict = "fail" if corrupt else "ok"
    argv = ["verify", "--r", "1", "--s", "1", "--max-M", "3", "--max-N", "6", "--format"]
    code, out, _ = run([*argv, "csv"], capsys)
    assert code == (1 if corrupt else 0)
    header, *lines = out.splitlines()
    fields = header.split(",")
    assert fields == ["M", "N", "lhs", "rhs", "status"]
    csv_rows = [(*map(int, cells[:4]), cells[4]) for cells in (line.split(",") for line in lines)]
    assert [row[4] for row in csv_rows] == ["ok"] * (len(csv_rows) - 1) + [verdict]
    json_code, out, _ = run([*argv, "json-lines"], capsys)
    assert json_code == code
    records = [json.loads(line) for line in out.splitlines()]
    assert all(list(record) == fields for record in records)
    assert csv_rows == [tuple(record.values()) for record in records]
    pretty_code, out, _ = run([*argv, "pretty"], capsys)
    assert pretty_code == code
    M, N, lhs, rhs, _ = csv_rows[-1]
    window = "r=1 s=1 0<=M<=3 0<=N<=6"
    assert out == (
        f"FAIL {window}: counterexample at M={M} N={N}: lhs={lhs} rhs={rhs}\n" if corrupt
        else f"PASS {window}: {len(csv_rows)} cases, identity holds\n"
    )


# each route's builder and its name in kirkman.ROUTES
ROUTE_BUILDERS = pytest.mark.parametrize(
    "route, name",
    [
        ("lagrange_table", "lagrange"),
        ("power_series", "series"),
        ("radical_series", "radical"),
        ("closed_table", "closed"),
    ],
    ids=["lagrange", "power_series", "radical_series", "closed_table"],
)


@ROUTE_BUILDERS
def test_crosscheck_exits_1_naming_routes(monkeypatch, capsys, route, name):
    corrupt_route(monkeypatch, route, 7)
    code, out, _ = run(["crosscheck", "--p", "1", "--max-m", "1", "--max-n", "1"], capsys)
    assert code == 1
    assert out.startswith("FAIL")
    for label in ("closed", "series", "lagrange", "radical"):
        assert f"{label}={8 if label == name else 1}" in out


@ROUTE_BUILDERS
def test_expand_prints_the_corrupted_route(monkeypatch, capsys, route, name):
    # expand reads each builder where crosscheck does, in its home module
    corrupt_route(monkeypatch, route, 7)
    code, out, _ = run(
        ["expand", "--p", "1", "--max-m", "1", "--max-n", "1", "--method", name,
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == "m,n,coefficient\n0,0,8\n0,1,1\n1,0,2\n1,1,5\n"


def test_crosscheck_json_lines_renders_non_integer_as_fraction(monkeypatch, capsys):
    corrupt_route(monkeypatch, "power_series", Fraction(-1, 2))
    code, out, _ = run(
        ["crosscheck", "--p", "1", "--max-m", "1", "--max-n", "1", "--format", "json-lines"],
        capsys,
    )
    assert code == 1
    assert out.splitlines()[0] == (
        '{"m": 0, "n": 0, "closed": 1, "series": "1/2", "lagrange": 1, "radical": 1, '
        '"agree": false}'
    )


def _corrupt_phi(monkeypatch):
    # as in test_lagrange_table_asserts_integrality: phi = 1 + y/2
    monkeypatch.setattr(lagrange, "_times_phi", times_one_plus_half_y)


def _corrupt_z_plus_w(monkeypatch):
    # as in test_radical_series_asserts_integrality: z+w's division is the last step
    corrupt_route(monkeypatch, "div_z_plus_w", 1, owner=BiSeries)


@pytest.mark.parametrize(
    "corrupt, argv, cell",
    [
        (_corrupt_phi, ["expand", "--method", "lagrange", "--p", "1"], "m=1 n=0: 1/2"),
        (_corrupt_z_plus_w, ["crosscheck", "--p", "1"], "m=0 n=0: 3/2"),
        (_corrupt_z_plus_w, ["expand", "--method", "radical", "--p", "1"], "m=0 n=0: 3/2"),
    ],
    ids=["expand-lagrange", "crosscheck", "expand-radical"],
)
def test_integrality_failure_exits_1_with_one_line(monkeypatch, capsys, corrupt, argv, cell):
    corrupt(monkeypatch)
    code, out, err = run([*argv, "--max-m", "2", "--max-n", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"kirkman {argv[0]}: integrality violated at p=1 {cell}\n"


@pytest.mark.parametrize(
    "argv",
    [["expand", "--method", "radical", "--p", "1"], ["crosscheck", "--p", "1"]],
    ids=["expand-radical", "crosscheck"],
)
@pytest.mark.parametrize(
    "cell, size, message",
    [
        # the root's cell (1, 0) one too large leaves the numerator the
        # constant term -1, which z+w does not divide
        ((1, 0), "2", "not divisible by z+w: nonzero constant term"),
        # the root's cell (2, 1) lies outside the 1x1 window: the message
        # names it as a cell of the root, not of f
        ((2, 1), "1", "radical root not integral at z^2 w^1: -11/2"),
    ],
    ids=["by-z-plus-w", "root-by-a"],
)
def test_division_failure_exits_1_with_one_line(monkeypatch, capsys, argv, cell, size, message):
    corrupt_radical_root(monkeypatch, *cell, 1)
    code, out, err = run([*argv, "--max-m", size, "--max-n", size], capsys)
    assert code == 1
    assert out == ""
    assert err == f"kirkman {argv[0]}: {message}\n"


@pytest.mark.parametrize(
    "fmt, out",
    [("pretty", ""), ("csv", "M,N,lhs,rhs,status\n"), ("json-lines", "")],
    ids=cli_module.FORMATS,
)
@pytest.mark.parametrize(
    "delta, cell", [(Fraction(1, 2), "3/2"), (-9, "-8")], ids=["fraction", "negative"]
)
def test_verify_over_an_unpackable_table_exits_1_with_one_line(
    monkeypatch, capsys, fmt, out, delta, cell
):
    # c_2(0, 0) is no longer a non-negative int, so it has no slot in the
    # packed product: a disagreement found before any row exists, after csv
    # has written its header; the one stderr line is all, with no traceback
    corrupt_route(monkeypatch, "closed_table", delta)
    argv = ["verify", "--r", "2", "--s", "3", "--max-M", "4", "--max-N", "4", "--format", fmt]
    code, stdout, err = run(argv, capsys)
    assert code == 1
    assert stdout == out
    assert err == f"kirkman verify: packed product needs non-negative int cells, got {cell}\n"


@pytest.mark.parametrize("fmt", cli_module.FORMATS)
@pytest.mark.parametrize(
    "argv, rows, anchor",
    [
        (["--r", "1", "--s", "1", "--max-M", "30", "--max-N", "30"], 31 * 31,
         "c_1(1, 0) = 4, expected 2"),
        (["--r", "2", "--s", "3", "--max-M", "48", "--max-N", "48"], 49 * 49,
         "c_2(1, 0) = 8, expected 4"),
        (["--r", "1", "--s", "1", "--cayley", "--max-M", "500"], 501,
         "c_1(1, 0) = 4, expected 2"),
    ],
    ids=["30x30", "48x48", "cayley-500"],
)
def test_verify_over_a_table_off_scale_exits_1_after_every_row(
    monkeypatch, capsys, fmt, argv, rows, anchor
):
    # every cell times 2^m keeps the identity, so every row of the sweep
    # passes; the anchor c_q(1, 0) = 2q then fails, after csv and json-lines
    # have written every row, with one stderr line
    monkeypatch.setattr(closed_module, "closed_table", scaled_closed_table)
    code, out, err = run(["verify", *argv, "--format", fmt], capsys)
    assert code == 1
    assert err == f"kirkman verify: scale anchor violated: {anchor}\n"
    assert len(out.splitlines()) == {"pretty": 0, "csv": 1 + rows, "json-lines": rows}[fmt]
    assert "fail" not in out


# ---- a reader that stops early ----


def test_closed_pipe_ends_quietly():
    # 184 KB of output, more than a pipe buffer holds, so the command is still
    # writing when the reader closes its end; it must neither print a traceback
    # nor exit with a code that means success, disagreement or a usage error
    argv = ["expand", "--p", "1", "--max-m", "60", "--max-n", "60"]
    with subprocess.Popen(
        [sys.executable, "-m", "kirkman.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    ) as proc:
        assert proc.stdout.readline() == b"[z^0 w^0] 1\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert code not in (0, 1, 2)
    assert b"Traceback" not in err


def test_closed_pipe_ends_quietly_when_the_output_is_still_buffered():
    # a short output is still in stdout's buffer when main returns, and the
    # reader is already gone: flushing it must end the command by SIGPIPE,
    # not by a BrokenPipeError at exit (status 120)
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kirkman.cli", "coeff", "--p", "1", "--m", "1", "--n", "1"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == -signal.SIGPIPE
    assert proc.stderr == b""


# ---- start-up: what a command loads ----

# what the console script of [project.scripts] runs: kirkman.cli imported as a
# module, not run as __main__, with the arguments read from sys.argv
CONSOLE_SCRIPT = "import sys; from kirkman.cli import main; sys.exit(main())"
# prints, as the last line of stdout, every kirkman module the command loaded
# and whichever of the standard modules fractions and decimal it loaded
SHOW_MODULES = (
    "import atexit, sys; atexit.register(lambda: print(*sorted("
    "name for name in sys.modules"
    " if name.split('.')[0] == 'kirkman' or name in ('fractions', 'decimal'))))"
)
CLI = {"kirkman", "kirkman.cli"}
ARITHMETIC = {
    "kirkman.closed", "kirkman.formulas", "kirkman.lagrange", "kirkman.series", "kirkman.verifier"
}


def _shown_modules(argv, code):
    # the last line SHOW_MODULES prints, after the console script runs argv
    # (after nothing at all when argv is None)
    script = SHOW_MODULES if argv is None else f"{SHOW_MODULES}; {CONSOLE_SCRIPT}"
    proc = subprocess.run(
        [sys.executable, "-c", script, *(argv or [])],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def preloaded():
    # what a bare interpreter loads in the same environment: site may preload
    # fractions or decimal, and a module it loads cannot be shown absent
    return _shown_modules(None, 0)


def test_console_script_prints_a_coefficient():
    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT, "coeff", "--p", "1", "--m", "1", "--n", "1"],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "5\n", "")


WINDOW = ["--max-m", "2", "--max-n", "2"]


@pytest.mark.parametrize(
    "argv, code, loads",
    [
        (["--help"], 0, CLI),
        (["verify", "--help"], 0, CLI),
        (["expand", "--p", "1", *WINDOW, "--method", "foo"], 2, CLI),
        (["coeff", "--p", "1", "--m", "1", "--n", "1"], 0,
         CLI | {"kirkman.formulas", "kirkman.series"}),
        (["expand", "--p", "1", *WINDOW, "--method", "radical", "--format", "csv"], 0,
         CLI | {"kirkman.formulas", "kirkman.series"}),
        (["expand", "--p", "1", *WINDOW, "--method", "series"], 0,
         CLI | {"kirkman.formulas", "kirkman.series"}),
        (["expand", "--p", "1", *WINDOW, "--method", "lagrange"], 0,
         CLI | {"kirkman.lagrange", "kirkman.series"}),
        # the route refuses p = 2 before reading its builder
        (["expand", "--p", "2", *WINDOW, "--method", "radical"], 2, CLI | {"kirkman.series"}),
        (["expand", "--p", "1", *WINDOW, "--method", "closed"], 0,
         CLI | {"kirkman.closed", "kirkman.series"}),
        (["verify", "--r", "1", "--s", "1", "--max-M", "2", "--max-N", "2", "--format", "csv"], 0,
         CLI | {"kirkman.closed", "kirkman.series", "kirkman.verifier", "decimal"}),
        # the cross-check lives with the closed route, away from the sweep
        (["crosscheck", "--p", "1", *WINDOW], 0, CLI | ARITHMETIC - {"kirkman.verifier"}),
    ],
    ids=["help", "verify-help", "usage-error", "coeff", "expand-radical", "expand-series",
         "expand-lagrange", "expand-radical-p2", "expand-closed", "verify-csv", "crosscheck"],
)
def test_a_command_loads_only_the_arithmetic_it_runs(preloaded, argv, code, loads):
    # exactly the kirkman modules the command runs, and fractions or decimal
    # only where it needs them, beyond what the bare interpreter loaded
    assert _shown_modules(argv, code) - preloaded == loads - preloaded
