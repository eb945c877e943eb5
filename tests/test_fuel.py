"""One unit of fuel is one function application, in every evaluator."""

import pytest

from luck.constraints import ConstraintSet
from luck.core import (
    FALSE,
    TRUE,
    After,
    Arith,
    Bang,
    CasePair,
    CaseSum,
    Cmp,
    Inl,
    Inst,
    IntLit,
    Pair,
    Rec,
    TInt,
    TProd,
    TSum,
    TUnit,
    Unit,
    Unknown,
    Var,
)
from luck.desugar import Program
from luck.driver import prepare, run_prepared
from luck.matching import match_eval
from luck.narrow import narrow
from luck.predsem import EvalTimeout, pred_eval
from luck.trace import RandomSource, RunCtx

from .test_driver import WIDE

COUNTDOWN = """
sig down :: Int -> Int -> Bool
fun down n x = if n == 0 then x == 1 else down (n - 1) x
"""

# down 5 x makes six calls, down 5 x to down 0 x, and each applies the
# curried down twice
CALLS = 12


def narrowed(prep, fuel):
    env = {"x": Unknown(prep.uids["x"])}
    return narrow(prep.target, prep.base, RunCtx(RandomSource(0), fuel), env)


def matched(prep, fuel):
    env = {"x": Unknown(prep.uids["x"])}
    return match_eval(prep.target, TRUE, prep.base,
                      RunCtx(RandomSource(0), fuel), env)


def rechecked(prep, fuel):
    return pred_eval(prep.target, fuel, {"x": IntLit(1)})


@pytest.mark.parametrize("run", [narrowed, matched, rechecked])
def test_each_evaluator_charges_one_unit_per_application(run):
    prep = prepare(Program.from_source(COUNTDOWN), "down 5 x = True",
                   int_bound=(0, 3))
    run(prep, CALLS)
    with pytest.raises(EvalTimeout):
        run(prep, CALLS - 1)


SUM = TSum(TUnit(), TInt())
# a leaf, a constructor, a weighted case over an instantiation, a pair
# case, a comparison, arithmetic, a sample, sequencing and a function that
# is made but not applied
NO_CALLS = After(
    CaseSum(Inst(Inl(Unit(), SUM), IntLit(1), IntLit(2)),
            "u", CasePair(Pair(IntLit(1), Arith("+", IntLit(2), IntLit(3))),
                          "a", "b", Cmp("<", Var("a"), Var("b")),
                          TProd(TInt(), TInt())),
            "n", FALSE, SUM),
    Bang(Rec("f", "x", TInt(), Var("x"), TInt())))


def test_a_term_that_applies_no_function_takes_no_fuel():
    no_fuel = RunCtx(RandomSource(0), fuel=0)
    assert narrow(NO_CALLS, ConstraintSet(), no_fuel)[0] == TRUE
    assert not match_eval(NO_CALLS, TRUE, ConstraintSet(), no_fuel).failed
    assert pred_eval(NO_CALLS, 0) == TRUE


def test_a_runaway_query_ends_under_the_default_fuel():
    # f 20 applies f 2^21 - 1 times; the default fuel stops the attempt
    # before it draws, so the failure is final
    prep = prepare(Program.from_source(WIDE), "g 20 x = True",
                   int_bound=(0, 3))
    r = run_prepared(prep, seed=0)
    assert not r.ok and r.final and r.attempts == 1
    assert "(1 ran out of fuel, 100000 function applications each)" in r.error
