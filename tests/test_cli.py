"""Command-line behavior: output modes, exit codes, and reproducibility."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

from luck.cli import _BOUND_RE, main, parse_bound
from luck.driver import prepare
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
    code, out, err = run_cli(capsys, EX35, "b u = True", "--seed", "3",
                             "--int-bound", "5..9", "--retries", "4")
    assert code == 2 and out == ""
    assert "no success in 5 attempts" in err
    assert "ran out of" not in err


def test_a_budget_spent_on_fuel_says_so(capsys):
    code, out, err = run_cli(capsys, BST, "bst 3 0 10 t = True", "--seed",
                             "1", "--int-bound", "0..10", "--fuel", "60",
                             "--retries", "3")
    assert code == 2 and out == ""
    assert "no success in 4 attempts (4 ran out of the 60-step fuel)" in err


def test_a_case_whose_weights_evaluate_to_zero_says_so(capsys, tmp_path):
    # lowering only rejects literal zero weights; these are zero at run
    # time, so the first attempt fails before it draws, and that is final
    src = tmp_path / "zero.luck"
    src.write_text("""
data T = A | B
sig f :: Int -> T -> Bool
fun f n t = case t of | n % A -> True | n % B -> False end
""")
    code, out, err = run_cli(capsys, str(src), "f 0 t = True", "--seed", "1")
    assert code == 2 and out == ""
    assert "no success in 1 attempts" in err
    assert "no weight mass" in err
    assert "the failure does not depend on the seed" in err


def test_configuration_errors_exit_1(capsys):
    cases = [
        (EX35, "a u = True", "--int-bound", "0:9"),
        (str(CORPUS / "missing.luck"), "a u = True", "--int-bound", "0..9"),
        (EX35, "a u = Frue", "--int-bound", "0..9"),
        (EX35, "a u = True"),  # int unknown without bounds
        (EX35, "a u = True", "--int-bound", "0..9", "--count", "0"),
        (EX35, "a u = True", "--int-bound", "0..9", "--retries", "-1"),
        (EX35, "a u = True", "--int-bound", "0..9", "--depth", "-1"),
        (EX35, "a u = True", "--int-bound", "0..9", "--fuel", "0"),
        (EX35, "a u = True", "--int-bound", "0..9", "--jobs", "0"),
        (EX35, "a u = True", "--int-bound", "0..9", "--jobs", "-3"),
    ]
    for args in cases:
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == "" and err.startswith("error:")


ZERO_WEIGHT_ARM = """
data Tree a = Empty | Node a (Tree a) (Tree a)

sig small :: Int -> Tree Int -> Bool
fun small w tree =
  case tree of
  | w % Empty -> True
  | 1 % Node x l r -> (0 < x && x < 5) !x && l == Empty && r == Empty
  end
"""


def test_a_zero_weight_arm_passes_the_recheck(capsys, tmp_path):
    # narrowing gives the 0 % arm no mass; the recheck must accept the
    # valuation that comes out of its sibling
    src = tmp_path / "small.luck"
    src.write_text(ZERO_WEIGHT_ARM)
    code, out, err = run_cli(capsys, str(src), "small 0 t = True",
                             "--int-bound", "0..9", "--check",
                             "--output", "json", "--seed", "1")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["ok"] and rec["discards"] == 0
    assert rec["values"]["t"].startswith("Node")


# A parameter named like its function once evaluated to the function (an
# AttributeError traceback), and a List field in a datatype once ended in
# a StopIteration traceback from the declaration check.
SMALL_PROGRAMS = [
    ("sig g :: Int -> Bool\nfun g g = g == 3\n", "g x = True", "3\n"),
    ("data T = T (List Int)\nsig f :: T -> Bool\nfun f t = True\n",
     "f t = True", "T ["),
    # a one-field type over a list: its values are the list's folds, with
    # no fold of their own
    ("data W = W (List Int)\nsig okW :: W -> Bool\n"
     "fun okW w = case w of | W l -> "
     "(case l of | [] -> False | _ -> True end) end\n",
     "okW w = True", "W ["),
    ("data T = T (List Int)\nsig g :: T -> Bool\nfun g t = t == T [1, 2]\n",
     "g t = True", "T [1, 2]\n"),
]


@pytest.mark.parametrize("source,query,want", SMALL_PROGRAMS,
                         ids=["shadowed-parameter", "list-field",
                              "list-field-case", "list-field-equality"])
def test_small_program_runs(capsys, tmp_path, source, query, want):
    src = tmp_path / "small.luck"
    src.write_text(source)
    code, out, err = run_cli(capsys, str(src), query, "--int-bound", "0..9",
                             "--seed", "1")
    assert code == 0 and err == "" and out.startswith(want)


def test_a_serial_run_prepares_once(capsys, monkeypatch):
    calls = []

    def counting_prepare(*args, **kwargs):
        calls.append(args)
        return prepare(*args, **kwargs)

    monkeypatch.setattr("luck.cli.prepare", counting_prepare)
    code, out, _ = run_cli(capsys, EX35, "a u = True", "--count", "3",
                           "--seed", "9", "--int-bound", "0..9")
    assert code == 0 and len(out.splitlines()) == 3
    assert len(calls) == 1


def test_empty_int_bound_is_a_configuration_error(capsys):
    code, out, err = run_cli(capsys, BST, "bst 3 0 10 t = True",
                             "--int-bound", "5..1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "no value" in err


def test_the_advice_for_a_missing_int_bound_is_a_form_the_cli_accepts(capsys):
    code, out, err = run_cli(capsys, BST, "bst 3 0 10 t = True")
    assert code == 1 and out == ""
    advised = re.search(r"\(--int-bound (\S+)\)", err).group(1)
    assert advised == "LO..HI"
    assert _BOUND_RE.match(advised.replace("LO", "0").replace("HI", "9"))


def test_unsupported_arithmetic_is_an_error_line(capsys, tmp_path):
    src = tmp_path / "double.luck"
    src.write_text("sig f :: Int -> Bool\nfun f x = x * 2 == 4\n")
    code, out, err = run_cli(capsys, str(src), "f x = True",
                             "--int-bound", "0..9")
    assert code == 1 and out == ""
    assert err == "error: symbolic arithmetic ?0 * 2 unsupported\n"


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


def test_a_negative_bound_may_follow_its_option_after_a_space(capsys):
    distinct = str(CORPUS / "distinct.luck")
    args = ["--count", "20", "--seed", "3", "--check"]
    spaced = run_cli(capsys, distinct, "distinct l = True",
                     "--int-bound", "-3..-1", *args)
    glued = run_cli(capsys, distinct, "distinct l = True",
                    "--int-bound=-3..-1", *args)
    assert spaced == glued and spaced[0] == 0
    for line in spaced[1].splitlines():
        items = line.strip("[]").split(", ")
        assert all(-3 <= int(x) <= -1 for x in items if x)


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


# One representative query per corpus file.  redex and length once ended
# in a traceback (OverflowError or MemoryError from a sample that listed
# every index of its range, RecursionError from evaluating a 300-cell
# list), and sorted at seed 36 reaches a q longer than the interpreter's
# default limit on integer-to-text conversion (4300 digits).
CORPUS_SWEEP = [
    ("redex.luck", "isRedex t = True", "0..3", None, "1"),
    ("length.luck", "length l 30 = True", "0..3", "31", "1"),
    ("length.luck", "length l 100 = True", "0..3", "101", "1"),
    ("length.luck", "length l 300 = True", "0..3", "301", "1"),
    ("bst.luck", "bst 3 0 10 t = True", "0..10", None, "1"),
    ("distinct.luck", "distinct l = True", "0..9", None, "1"),
    ("ex35.luck", "b u = True", "0..9", None, "1"),
    ("member.luck", "member 3 l = True", "0..5", None, "1"),
    ("rbt.luck", "isRBT 2 0 20 Black t = True", "0..20", None, "1"),
    ("sorted.luck", "sorted l = True", "0..20", None, "36"),
]
MEMORY_LIMIT = 1_500_000_000


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


@pytest.mark.parametrize("file,query,bound,depth,seed", CORPUS_SWEEP,
                         ids=["redex", "length-30", "length-100",
                              "length-300", "bst", "distinct", "ex35",
                              "member", "rbt", "sorted"])
def test_query_ends_without_a_traceback(file, query, bound, depth, seed):
    cmd = [sys.executable, "-m", "luck.cli", str(CORPUS / file), query,
           "--int-bound", bound, "--count", "5", "--seed", seed,
           "--output", "json"]
    if depth is not None:
        cmd += ["--depth", depth]
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         env=env, preexec_fn=_limit_memory)
    assert run.returncode in (0, 2), run.stderr
    assert "Traceback" not in run.stderr
