"""Tests of the benchmark itself: tracer, hand-written baselines, smoke runs.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import gc
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import handwritten  # noqa: E402
from tracer import Tracer  # noqa: E402

E2E = {"slowdown_vs_handwritten", "valuation_iqm_vs_handwritten",
       "valuation_p90_vs_handwritten",
       "sound_share", "completed_share", "peak_rss_mb", "setup_s"}


class _Box:
    def inner(self):
        time.sleep(0.01)

    def outer(self):
        time.sleep(0.01)
        self.inner()
        return "done"

    def same_family(self):
        return self.inner()


def test_self_time_excludes_children_and_uninstall_restores():
    original = _Box.__dict__["outer"]
    t = Tracer()
    t.wrap(_Box, "outer", "outer")
    t.wrap(_Box, "inner", "inner")
    assert _Box().outer() == "done"
    t.uninstall()
    assert _Box.__dict__["outer"] is original
    totals = t.totals()
    assert totals["outer"].calls == 1 and totals["inner"].calls == 1
    outer = totals["outer"]
    assert outer.self_s == pytest.approx(
        outer.total_s - totals["inner"].total_s)
    assert 0.009 < outer.self_s < outer.total_s


def test_calls_within_a_family_open_no_span():
    t = Tracer()
    t.wrap(_Box, "same_family", "box.a", family="box")
    t.wrap(_Box, "inner", "box.b", family="box")
    _Box().same_family()
    t.uninstall()
    assert set(t.totals()) == {"box.a"}


def _is_bst(t, size, low, high):
    if t is None:
        return True
    if size == 0:
        return False
    x, left, right = t
    return (low < x < high and _is_bst(left, size // 2, low, x)
            and _is_bst(right, size // 2, x, high))


def _is_rbt(t, h, low, high, parent):
    if h == 0:
        return t is None or (
            parent == handwritten.BLACK and t[0] == handwritten.RED
            and low < t[1] < high and t[2] is None and t[3] is None)
    if t is None:
        return False
    color, x, left, right = t
    if parent == handwritten.RED and color != handwritten.BLACK:
        return False
    child_h = h if color == handwritten.RED else h - 1
    return (low < x < high and _is_rbt(left, child_h, low, x, color)
            and _is_rbt(right, child_h, x, high, color))


def test_handwritten_generators_satisfy_their_predicates():
    rng = random.Random(7)
    for _ in range(500):
        assert _is_bst(handwritten.gen_bst(rng, 3, 0, 10), 3, 0, 10)
        assert _is_rbt(handwritten.gen_rbt(rng, 2, 0, 20, handwritten.BLACK),
                       2, 0, 20, handwritten.BLACK)
        assert 3 in handwritten.gen_member(rng, 3, 0, 5, 8)
        xs = handwritten.gen_sorted(rng, 0, 20, 8)
        assert all(a < b for a, b in zip(xs, xs[1:]))


def test_handwritten_clock_counts_whole_batches_and_restores_gc():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    clock = workloads.HandwrittenClock(workloads.WORKLOADS["rbt"], seed=1)
    spent = clock.run_for(0.01) + clock.run_for(0.0)
    assert gc.isenabled()
    assert spent >= 0.01 and clock.seconds == pytest.approx(spent)
    assert clock.values >= 2 * workloads.HANDWRITTEN_BATCH
    assert clock.values % workloads.HANDWRITTEN_BATCH == 0
    assert clock.seconds_per_value == pytest.approx(spent / clock.values)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(trace):
    proc = _run("--workload", "member", "--seed", "3", "--seconds", "0.2",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert set(result["metrics"]) == E2E


def test_same_seed_gives_same_output_digest():
    digests = set()
    for _ in range(2):
        proc = _run("--workload", "member", "--seed", "5", "--seconds", "0")
        detail = json.loads(proc.stdout.splitlines()[-2].removeprefix(
            "detail: "))
        digests.add(detail["output_digest"])
    assert len(digests) == 1


def test_fails_without_the_interpreter(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "member", "--seconds", "0.2", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
