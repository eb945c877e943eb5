"""Trace recording, replay sources, and the run context."""

from fractions import Fraction

import pytest

from luck.desugar import Program
from luck.driver import prepare, run_prepared
from luck.predsem import EvalTimeout
from luck.trace import (
    Choice,
    RandomSource,
    ReplayExhausted,
    ReplayMismatch,
    ReplaySource,
    RunCtx,
    ScriptedSource,
    derive_seed,
    enumerate_traces,
    format_trace,
    int_text,
    parse_int,
    parse_trace,
)


def test_format_parse_round_trip():
    line = format_trace(42, [Choice(0, 3), Choice(2, 9)], Fraction(1, 27))
    seed, choices, q, result = parse_trace(line)
    assert seed == 42
    assert choices == [Choice(0, 3), Choice(2, 9)]
    assert q == Fraction(1, 27)
    assert result is None


def test_format_parse_with_result():
    line = format_trace(7, [Choice(1, 2)], Fraction(1, 2), result="Node 3 Empty Empty")
    seed, choices, q, result = parse_trace(line)
    assert (seed, choices, q) == (7, [Choice(1, 2)], Fraction(1, 2))
    assert result == "Node 3 Empty Empty"


def test_negative_seed_round_trips():
    # `--seed -5 --output trace` prints such a line
    line = format_trace(-5, [Choice(1, 2)], Fraction(1, 2), result="[1]")
    assert parse_trace(line) == (-5, [Choice(1, 2)], Fraction(1, 2), "[1]")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_trace("not a trace line")


def test_parse_empty_choices():
    line = format_trace(1, [], Fraction(1))
    assert parse_trace(line) == (1, [], Fraction(1), None)


def test_a_query_without_unknowns_has_a_trace_line_that_parses_back():
    prog = Program.from_source("sig c :: Bool\nfun c = True\n")
    line = run_prepared(prepare(prog, "c = True"), seed=1).trace_line()
    assert line == "seed=1 choices=[] q=1/1 result="
    assert parse_trace(line) == (1, [], Fraction(1), "")


@pytest.mark.parametrize("n", [0, 7, -7, 10**600 - 1, 10**600, -10**600,
                               10**1200 + 1, 3**5000])
def test_long_integer_text_agrees_with_str(n):
    assert int_text(n) == str(n)
    assert parse_int(str(n)) == n


def test_a_q_past_the_integer_digit_limit_round_trips():
    q = Fraction(1, 2**92934)
    line = format_trace(36, [Choice(1, 2)], q, result="[1, 2]")
    assert len(line.split("q=1/")[1].split()[0]) == 27976
    assert parse_trace(line) == (36, [Choice(1, 2)], q, "[1, 2]")


def test_derive_seed_deterministic_and_spread():
    a = derive_seed(123, 0)
    assert a == derive_seed(123, 0)
    children = {derive_seed(123, i) for i in range(100)}
    assert len(children) == 100
    assert all(0 <= s < 2 ** 64 for s in children)


def test_random_source_reproducible():
    a = RandomSource(99)
    b = RandomSource(99)
    assert [a.pick(5) for _ in range(20)] == [b.pick(5) for _ in range(20)]
    assert a.pick_weighted(3, 1) == b.pick_weighted(3, 1)


def test_random_source_weighted_bounds():
    src = RandomSource(5)
    picks = {src.pick_weighted(1, 1) for _ in range(50)}
    assert picks <= {0, 1}


def test_replay_source_feeds_back():
    src = ReplaySource([Choice(2, 3), Choice(0, 2)])
    assert src.pick(3) == 2
    assert src.pick_weighted(5, 1) == 0


def test_replay_source_checks_arity():
    src = ReplaySource([Choice(2, 3)])
    with pytest.raises(ReplayMismatch):
        src.pick(4)


def test_replay_source_exhaustion():
    src = ReplaySource([])
    with pytest.raises(ReplayExhausted):
        src.pick(2)


def test_scripted_source_prefix_then_left():
    src = ScriptedSource([Choice(1, 2)])
    assert src.pick(2) == 1
    assert src.pick(7) == 0
    assert src.pick_weighted(1, 3) == 0


def test_scripted_source_checks_prefix_arity():
    src = ScriptedSource([Choice(1, 2)])
    with pytest.raises(ReplayMismatch, match="recorded arity 2, run wants 3"):
        src.pick(3)


def test_scripted_source_checks_prefix_index():
    # the prefix is replayed with every check a replay makes
    src = ScriptedSource([Choice(2, 2)])
    with pytest.raises(ReplayMismatch, match="index 2 out of range"):
        src.pick(2)


def test_run_ctx_accumulates():
    ctx = RunCtx(ScriptedSource([]))
    ctx.record(0, 3, 1, 3)
    ctx.record(1, 2, 1, 2)
    assert ctx.trace == [Choice(0, 3), Choice(1, 2)]
    assert ctx.q == Fraction(1, 6)


def test_run_ctx_mark_rollback():
    ctx = RunCtx(ScriptedSource([]))
    ctx.record(0, 2, 1, 2)
    marker = ctx.mark()
    ctx.record(1, 4, 1, 4)
    ctx.rollback(marker)
    assert ctx.trace == [Choice(0, 2)]
    assert ctx.q == Fraction(1, 2)


def test_run_ctx_q_is_normalized_after_a_rollback():
    # the later weights are written unreduced, 2/38 for 1/19, so q is
    # right only if it is reduced when it is formed
    ctx = RunCtx(ScriptedSource([]))
    for i in range(30):
        ctx.record(i % 19, 19, 1, 19)
    marker = ctx.mark()
    for i in range(30):
        ctx.record(i % 19, 19, 2, 38)
    assert ctx.q == Fraction(1, 19**60)
    ctx.rollback(marker)
    assert len(ctx.trace) == len(ctx.weights) == 30
    assert ctx.q == Fraction(1, 19**30)
    for i in range(7):
        ctx.record(18 - i, 19, 2, 38)
    q = ctx.q
    assert (q.numerator, q.denominator) == (1, 19**37)
    assert len(ctx.trace) == len(ctx.weights) == 37
    assert ctx.trace[30:] == [Choice(18 - i, 19) for i in range(7)]


def test_run_ctx_fuel():
    ctx = RunCtx(ScriptedSource([]), fuel=3)
    ctx.tick()
    ctx.tick()
    ctx.tick()
    with pytest.raises(EvalTimeout):
        ctx.tick()


def test_run_ctx_backtracking_default_on():
    assert RunCtx(ScriptedSource([])).local_backtracking
    assert not RunCtx(ScriptedSource([]), local_backtracking=False).local_backtracking


def test_enumerate_traces_covers_tree():
    # a two-level procedure: one binary choice, then (left only) a ternary one
    def run(source):
        trace = []
        first = source.pick(2)
        trace.append(Choice(first, 2))
        payload = [first]
        if first == 0:
            second = source.pick(3)
            trace.append(Choice(second, 3))
            payload.append(second)
        return trace, tuple(payload)

    seen = {payload for _, payload in enumerate_traces(run)}
    assert seen == {(0, 0), (0, 1), (0, 2), (1,)}


def test_enumerate_traces_single_run():
    def run(source):
        return [], "done"

    assert list(enumerate_traces(run)) == [([], "done")]
