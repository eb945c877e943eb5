"""Driver: seeded generation, retries, replay, and exhaustive enumeration."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from luck.desugar import Program
from luck.driver import (
    DriverError,
    enumerate_query,
    prepare,
    recheck,
    replay_query,
    run_prepared,
    run_query,
)
from luck.trace import Choice

CORPUS = Path(__file__).parent.parent / "corpus"


def load(name):
    return Program.from_source((CORPUS / name).read_text())


def test_generation_satisfies_the_predicate():
    prog = load("bst.luck")
    prep = prepare(prog, "bst 3 0 10 t = True", int_bound=(0, 10))
    for seed in range(50):
        r = run_prepared(prep, seed=seed, check=True)
        assert r.ok and r.discards == 0
        assert recheck(prep, r.values)


def test_same_seed_reproduces_the_report():
    prog = load("bst.luck")
    a = run_query(prog, "bst 3 0 10 t = True", seed=7, int_bound=(0, 10))
    b = run_query(prog, "bst 3 0 10 t = True", seed=7, int_bound=(0, 10))
    assert a.ok and b.ok
    assert a.shown == b.shown and a.trace == b.trace and a.q == b.q


def test_recorded_trace_replays_to_the_identical_value():
    prog = load("bst.luck")
    for seed in range(20):
        r = run_query(prog, "bst 4 0 20 t = True", seed=seed,
                      int_bound=(0, 20))
        assert r.ok
        r2 = replay_query(prog, "bst 4 0 20 t = True", r.trace,
                          int_bound=(0, 20))
        assert r2.ok and r2.shown == r.shown and r2.q == r.q
        assert r2.trace == r.trace


def test_enumeration_of_the_two_bound_forms():
    prog = load("ex35.luck")
    a_rows = list(enumerate_query(prog, "a u = True", int_bound=(0, 9)))
    assert [(t, q, s and s["u"]) for t, q, s in a_rows] == [
        ([Choice(i, 3)], Fraction(1, 3), str(i + 1)) for i in range(3)]
    b_rows = list(enumerate_query(prog, "b u = True", int_bound=(0, 9)))
    assert [(t, q, s and s["u"]) for t, q, s in b_rows] == [
        ([Choice(i, 9)], Fraction(1, 9), str(i + 1) if i < 3 else None)
        for i in range(9)]
    assert sum(q for _, q, _ in b_rows) == Fraction(1)


def test_missing_int_bound_is_rejected():
    with pytest.raises(DriverError, match="bounds are required"):
        run_query(load("ex35.luck"), "a u = True")


def test_empty_int_window_is_rejected():
    with pytest.raises(DriverError, match="no value"):
        run_query(load("ex35.luck"), "a u = True", int_bound=(5, 2))


def test_empty_int_window_is_rejected_for_structured_queries():
    # the tree's integers have no value, although Empty would still fit
    with pytest.raises(DriverError, match="no value"):
        prepare(load("bst.luck"), "bst 3 0 10 t = True", int_bound=(5, 1))


def test_prepared_store_does_not_grow_with_the_depth_bound():
    prog = load("bst.luck")
    shallow = prepare(prog, "bst 3 0 10 t = True", int_bound=(0, 10),
                      depth=8)
    deep = prepare(prog, "bst 3 0 10 t = True", int_bound=(0, 10), depth=14)
    assert shallow.base.next_fresh == deep.base.next_fresh == 1


def test_depth_bound_limits_structure():
    prog = load("length.luck")
    shallow = run_query(prog, "length l 3 = True", seed=0, int_bound=(0, 3),
                        depth=3, retries=5)
    assert not shallow.ok and "attempts" in shallow.error
    assert shallow.attempts == 6
    deep = run_query(prog, "length l 3 = True", seed=0, int_bound=(0, 3),
                     depth=6)
    assert deep.ok and deep.shown["l"].count(",") == 2


def test_unsatisfiable_query_exhausts_its_retries():
    prog = load("ex35.luck")
    r = run_query(prog, "a u = True", seed=1, int_bound=(5, 9), retries=3)
    assert not r.ok and r.attempts == 4 and r.values is None


def test_multiple_unknowns_are_all_reported():
    prog = load("member.luck")
    r = run_query(prog, "member x l = True", seed=3, int_bound=(0, 3),
                  depth=5, check=True)
    assert r.ok and set(r.shown) == {"x", "l"}
    assert r.result_text() == f"x={r.shown['x']}, l={r.shown['l']}"
    assert r.shown["x"] in r.shown["l"].strip("[]").split(", ")


def test_json_report_round_trips():
    prog = load("ex35.luck")
    r = run_query(prog, "a u = True", seed=11, int_bound=(0, 9))
    d = json.loads(r.to_json())
    assert d["ok"] is True and d["seed"] == 11
    assert d["values"] == r.shown
    assert d["choices"] == [[c.index, c.arity] for c in r.trace]
    assert Fraction(*map(int, d["q"].split("/"))) == r.q


def test_generation_without_constraints_is_uniform_to_depth():
    # a predicate that never examines its argument leaves the whole
    # depth-bounded range; sampling must still work
    prog = Program.from_source("""
sig anyList :: [Bool] -> Bool
fun anyList l = True
""")
    seen = set()
    prep = prepare(prog, "anyList l = True", depth=3)
    for seed in range(200):
        r = run_prepared(prep, seed=seed)
        assert r.ok
        seen.add(r.shown["l"])
    # depth 3 admits lists of length 0, 1, 2 over booleans: 1+2+4 values
    assert seen == {"[]", "[True]", "[False]",
                    "[True, True]", "[True, False]",
                    "[False, True]", "[False, False]"}
