import random
from pathlib import Path

import pytest

from luck.core import (
    BOOL,
    FALSE,
    TRUE,
    After,
    App,
    Arith,
    Bang,
    CasePair,
    CaseSum,
    Closure,
    Cmp,
    Fold,
    Inl,
    Inr,
    Inst,
    IntLit,
    MatchFail,
    Pair,
    Rec,
    TFun,
    TInt,
    TProd,
    TSum,
    TUnit,
    Unfold,
    Unit,
    Var,
    subst,
)
from luck.desugar import Program
from luck.driver import prepare, run_prepared
from luck.predsem import EvalFailure, EvalTimeout, pred_eval

CORPUS = Path(__file__).parent.parent / "corpus"


def test_arith_and_cmp():
    assert pred_eval(Arith("+", IntLit(2), IntLit(3))) == IntLit(5)
    assert pred_eval(Arith("*", IntLit(2), IntLit(3))) == IntLit(6)
    assert pred_eval(Cmp("<", IntLit(2), IntLit(3))) == TRUE
    assert pred_eval(Cmp(">=", IntLit(2), IntLit(3))) == FALSE
    with pytest.raises(EvalFailure):
        pred_eval(Arith("/", IntLit(1), IntLit(0)))


def test_case_dispatch():
    e = CaseSum(TRUE, "a", IntLit(1), "b", IntLit(2), BOOL)
    assert pred_eval(e) == IntLit(1)
    e = CaseSum(FALSE, "a", IntLit(1), "b", IntLit(2), BOOL)
    assert pred_eval(e) == IntLit(2)


def test_pair_case():
    e = CasePair(Pair(IntLit(7), IntLit(9)), "x", "y",
                 Arith("-", Var("x"), Var("y")), TProd(TInt(), TInt()))
    assert pred_eval(e) == IntLit(-2)


def test_recursion():
    # rec f x. if x <= 0 then 0 else x + f (x - 1)
    body = CaseSum(
        Cmp("<=", Var("x"), IntLit(0)),
        "t", IntLit(0),
        "f2", Arith("+", Var("x"),
                    App(Var("f"), Arith("-", Var("x"), IntLit(1)))),
        BOOL,
    )
    summing = Rec("f", "x", TInt(), body, TInt())
    assert pred_eval(App(summing, IntLit(10))) == IntLit(55)


def test_fold_unfold():
    # type annotations are unused at runtime
    v = Fold(Inl(Unit(), TUnit()), None)
    assert pred_eval(Unfold(v, None)) == Inl(Unit(), TUnit())


def test_inst_weights_must_be_non_negative():
    assert pred_eval(Inst(TRUE, IntLit(3), IntLit(1))) == TRUE
    # a zero weight is legal, as in narrowing: its side gets no mass
    assert pred_eval(Inst(TRUE, IntLit(0), IntLit(1))) == TRUE
    with pytest.raises(EvalFailure):
        pred_eval(Inst(TRUE, IntLit(1), IntLit(-2)))
    with pytest.raises(EvalFailure):
        pred_eval(Inst(TRUE, TRUE, IntLit(1)))


def test_bang_and_after_are_transparent():
    assert pred_eval(Bang(IntLit(4))) == IntLit(4)
    assert pred_eval(After(IntLit(1), IntLit(2))) == IntLit(1)
    # the hook side still runs: a failing hook fails the whole expression
    with pytest.raises(EvalFailure):
        pred_eval(After(IntLit(1), MatchFail(TInt())))


def test_match_fail_fails():
    with pytest.raises(EvalFailure):
        pred_eval(MatchFail(TInt()))


def test_timeout_is_distinct():
    loop = Rec("f", "x", TInt(), App(Var("f"), Var("x")), TInt())
    with pytest.raises(EvalTimeout):
        pred_eval(App(loop, IntLit(0)), fuel=10_000)


def test_erasure_agreement():
    # evaluating an annotated expression agrees with its erasure, the
    # term with every instantiation, sample and sequencing taken out
    pairs = [
        (Inst(CaseSum(TRUE, "a", FALSE, "b", TRUE, BOOL), IntLit(2),
              IntLit(5)),
         CaseSum(TRUE, "a", FALSE, "b", TRUE, BOOL)),
        (After(Bang(Cmp("<", IntLit(1), IntLit(2))), TRUE),
         Cmp("<", IntLit(1), IntLit(2))),
        (Bang(Pair(IntLit(1), Inst(TRUE, IntLit(1), IntLit(1)))),
         Pair(IntLit(1), TRUE)),
    ]
    for e, erased in pairs:
        assert pred_eval(e) == pred_eval(erased)


# -- environments -------------------------------------------------------------


def curried_sub():
    """rec sub x. rec inner y. x - y: inner closes over sub's argument."""
    inner = Rec("inner", "y", TInt(), Arith("-", Var("x"), Var("y")), TInt())
    return Rec("sub", "x", TInt(), inner, TFun(TInt(), TInt()))


def test_curried_function_closes_over_the_earlier_argument():
    assert pred_eval(App(App(curried_sub(), IntLit(10)), IntLit(3))) \
        == IntLit(7)
    # the pair case rebinds x to 5, which must not reach the closure
    e = CasePair(Pair(App(curried_sub(), IntLit(10)), IntLit(5)), "f", "x",
                 App(Var("f"), Var("x")), TProd(TFun(TInt(), TInt()), TInt()))
    assert pred_eval(e) == IntLit(5)


def test_arm_variable_shadows_an_outer_binding():
    ints = TSum(TInt(), TInt())
    e = CaseSum(Inl(IntLit(1), ints), "x", Var("x"), "y", Var("x"), ints)
    assert pred_eval(e, env={"x": IntLit(9)}) == IntLit(1)
    e = CaseSum(Inr(IntLit(1), ints), "x", Var("x"), "y", Var("x"), ints)
    assert pred_eval(e, env={"x": IntLit(9)}) == IntLit(9)


def test_function_name_shadows_an_argument_of_the_same_name():
    # the argument wins: the body names it, not the function
    r = Rec("f", "f", TInt(), Var("f"), TInt())
    assert pred_eval(App(r, IntLit(3))) == IntLit(3)


# -- bound values -------------------------------------------------------------


IDENTITY = Closure(Rec("f", "x", TInt(), Var("x"), TInt()), {})
BOUND = Pair(IDENTITY, Fold(Inr(Pair(Unit(), IntLit(2)), None), None))


def test_a_bound_value_is_returned_as_it_is():
    assert pred_eval(Var("x"), env={"x": BOUND}) is BOUND
    assert pred_eval(Var("x"), env={"x": BOUND.snd}) is BOUND.snd


def test_a_bound_value_is_returned_without_fuel():
    # no function is applied, so no fuel is taken, and the value is not
    # rebuilt
    assert pred_eval(Var("x"), 0, {"x": BOUND}) is BOUND


def outcome(e, env=None):
    try:
        return pred_eval(e, env=env) if env is not None else pred_eval(e)
    except EvalFailure as ex:
        return type(ex)


# (file, query, int bound, depth)
QUERIES = [
    ("bst.luck", "bst 3 0 10 t = True", (0, 10), 8),
    ("rbt.luck", "isRBT 2 0 20 Black t = True", (0, 20), 8),
    ("distinct.luck", "distinct l = True", (0, 9), 8),
    ("member.luck", "member 3 l = True", (0, 5), 8),
    ("length.luck", "length l 3 = True", (0, 3), 5),
    ("redex.luck", "isRedex t = True", (0, 1), 4),
    ("ex35.luck", "b u = True", (0, 9), 8),
]


@pytest.mark.parametrize("file,query,int_bound,depth", QUERIES,
                         ids=[q.split()[0] for _, q, _, _ in QUERIES])
def test_environment_agrees_with_substitution(file, query, int_bound, depth):
    # over generated valuations, which mostly satisfy the query, and over
    # values drawn from the unknowns' whole ranges, which mostly do not
    prep = prepare(Program.from_source((CORPUS / file).read_text()), query,
                   int_bound=int_bound, depth=depth)
    rng = random.Random(7)
    valuations = []
    for seed in range(4):
        report = run_prepared(prep, seed=seed, retries=20)
        if report.ok:
            valuations.append(report.values)
        spaces = {n: prep.base.sample(u) for n, u in prep.uids.items()}
        valuations.append({n: s.at(rng.randrange(s.count))[0]
                           for n, s in spaces.items()})
    target = prep.compiled.target
    for vals in valuations:
        closed = target
        for name, v in vals.items():
            closed = subst(closed, name, v)
        assert outcome(target, vals) == outcome(closed)


# Fuel the recheck of the valuation from seeds 0-2 needs: the function
# applications it makes, one unit each.
RECHECK_STEPS = [
    ("bst.luck", "bst 3 0 10 t = True", (0, 10), [20, 12, 20]),
    ("rbt.luck", "isRBT 2 0 20 Black t = True", (0, 20), [66, 42, 114]),
    ("distinct.luck", "distinct l = True", (0, 9), [7, 7, 3]),
    ("sorted.luck", "sorted l = True", (0, 20), [2, 5, 1]),
    ("length.luck", "length l 3 = True", (0, 3), [8, 8, 8]),
]


@pytest.mark.parametrize("file,query,int_bound,steps", RECHECK_STEPS,
                         ids=[q.split()[0] for _, q, _, _ in RECHECK_STEPS])
def test_recheck_takes_the_recorded_number_of_steps(file, query, int_bound,
                                                    steps):
    prep = prepare(Program.from_source((CORPUS / file).read_text()), query,
                   int_bound=int_bound)
    for seed, fuel in enumerate(steps):
        vals = run_prepared(prep, seed=seed).values
        assert pred_eval(prep.compiled.target, fuel, vals) == TRUE
        with pytest.raises(EvalTimeout):
            pred_eval(prep.compiled.target, fuel - 1, vals)
