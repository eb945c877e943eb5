"""Command-line behavior: output modes, exit codes, and reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

from luck.cli import main, parse_bound
from luck.trace import parse_trace

import pytest

CORPUS = Path(__file__).parent.parent / "corpus"
BST = str(CORPUS / "bst.luck")
EX35 = str(CORPUS / "ex35.luck")


def run_cli(capsys, *args):
    code = main(list(args))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_terms_mode_prints_one_valuation_per_line(capsys):
    code, out, err = run_cli(capsys, BST, "bst 6 0 30 t = True",
                             "--count", "5", "--seed", "2",
                             "--int-bound", "0..30")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(l.startswith(("Node", "Empty")) for l in lines)


def test_same_invocation_is_byte_identical(capsys):
    args = (BST, "bst 5 0 20 t = True", "--count", "6", "--seed", "11",
            "--int-bound", "0..20")
    a = run_cli(capsys, *args)
    b = run_cli(capsys, *args)
    assert a == b and a[0] == 0


def test_parallel_jobs_match_the_serial_output(capsys):
    args = (BST, "bst 5 0 20 t = True", "--count", "8", "--seed", "11",
            "--int-bound", "0..20")
    _, serial, _ = run_cli(capsys, *args)
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "3")
    assert parallel == serial


def test_json_mode_emits_replayable_records(capsys):
    code, out, _ = run_cli(capsys, EX35, "a u = True", "--count", "3",
                           "--seed", "9", "--int-bound", "0..9",
                           "--output", "json")
    assert code == 0
    records = [json.loads(l) for l in out.splitlines()]
    assert len(records) == 3
    for rec in records:
        assert rec["ok"] is True and set(rec["values"]) == {"u"}
        code2, out2, _ = run_cli(capsys, EX35, "a u = True",
                                 "--seed", str(rec["seed"]),
                                 "--int-bound", "0..9", "--output", "json")
        assert code2 == 0
        assert json.loads(out2)["values"] == rec["values"]


def test_trace_mode_lines_parse_back(capsys):
    code, out, _ = run_cli(capsys, EX35, "b u = True", "--count", "4",
                           "--seed", "1", "--int-bound", "0..9",
                           "--output", "trace")
    assert code == 0
    for line in out.splitlines():
        seed, choices, q, result = parse_trace(line)
        assert choices and q.denominator == 9


def test_histogram_mode_aggregates_buckets(capsys):
    code, out, _ = run_cli(capsys, EX35, "a u = True", "--count", "3000",
                           "--seed", "7", "--int-bound", "0..9",
                           "--histogram")
    assert code == 0
    rows = {}
    for line in out.splitlines():
        n, pct, key = line.split()
        assert pct.endswith("%")
        rows[key] = int(n)
    assert set(rows) == {"1", "2", "3"} and sum(rows.values()) == 3000
    assert all(abs(n / 3000 - 1 / 3) < 0.05 for n in rows.values())


def test_histogram_flag_equals_output_histogram(capsys):
    common = (EX35, "a u = True", "--count", "100", "--seed", "3",
              "--int-bound", "0..9")
    a = run_cli(capsys, *common, "--histogram")
    b = run_cli(capsys, *common, "--output", "histogram")
    assert a == b


def test_exhausted_budget_exits_2_with_diagnostics(capsys):
    code, out, err = run_cli(capsys, EX35, "a u = True", "--seed", "3",
                             "--int-bound", "5..9", "--retries", "4")
    assert code == 2 and out == ""
    assert "no success in 5 attempts" in err


def test_configuration_errors_exit_1(capsys):
    cases = [
        (EX35, "a u = True", "--int-bound", "0:9"),
        (str(CORPUS / "missing.luck"), "a u = True", "--int-bound", "0..9"),
        (EX35, "a u = Frue", "--int-bound", "0..9"),
        (EX35, "a u = True"),  # int unknown without bounds
        (EX35, "a u = True", "--int-bound", "0..9", "--count", "0"),
    ]
    for args in cases:
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == "" and err.startswith("error:")


def test_empty_int_bound_is_a_configuration_error(capsys):
    code, out, err = run_cli(capsys, BST, "bst 3 0 10 t = True",
                             "--int-bound", "5..1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "no value" in err


def test_seed_env_fallback(capsys, monkeypatch):
    flagged = run_cli(capsys, BST, "bst 4 0 9 t = True", "--seed", "5",
                      "--int-bound", "0..9")
    monkeypatch.setenv("LUCK_SEED", "5")
    fallback = run_cli(capsys, BST, "bst 4 0 9 t = True",
                       "--int-bound", "0..9")
    assert flagged == fallback
    monkeypatch.setenv("LUCK_SEED", "five")
    code, _, err = run_cli(capsys, BST, "bst 4 0 9 t = True",
                           "--int-bound", "0..9")
    assert code == 1 and "LUCK_SEED" in err


def test_bound_parsing():
    assert parse_bound("0..42") == (0, 42)
    assert parse_bound("-4..4") == (-4, 4)
    with pytest.raises(Exception, match="malformed"):
        parse_bound("0..")


def test_installed_entry_point_round_trip(tmp_path):
    cmd = [sys.executable, "-m", "luck.cli", EX35, "a u = True",
           "--count", "1", "--seed", "42", "--int-bound", "0..9"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0 and a.stdout == b.stdout
    assert a.stdout.strip() in {"1", "2", "3"}
