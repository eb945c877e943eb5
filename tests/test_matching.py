"""Matching evaluation: pattern-guided generation with lookahead."""

from fractions import Fraction

import pytest

from luck.constraints import ConstraintSet, RPair
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
    TMu,
    TProd,
    TSum,
    TUnit,
    TVar,
    Unfold,
    Unit,
    Unknown,
    Var,
)
from luck.matching import either, heads_clash, match_eval
from luck.narrow import GenFailure, sample_value
from luck.predsem import pred_eval
from luck.trace import (
    Choice,
    RandomSource,
    RunCtx,
    ScriptedSource,
    enumerate_traces,
)

from .calls import counted

NAT = TMu("X", TSum(TUnit(), TVar("X")))


def nat(n):
    v = Fold(Inl(Unit(), TSum(TUnit(), NAT)), NAT)
    for _ in range(n):
        v = Fold(Inr(v, TSum(TUnit(), NAT)), NAT)
    return v


def ctx_with(*choices):
    return RunCtx(ScriptedSource(list(choices)))


def no_fuel():
    return RunCtx(ScriptedSource([]), fuel=0)


def bool_unknowns(n):
    cs = ConstraintSet()
    cs, us = cs.fresh([BOOL] * n)
    return cs, us


def int_unknown(lo, hi):
    cs = ConstraintSet(int_bounds=(lo, hi))
    cs, (u,) = cs.fresh([TInt()])
    return cs, u


def conj(a, b):
    return CaseSum(a, "_l", b, "_r", FALSE, BOOL)


def build_a(u):
    """(0 < u && u < 4) !u"""
    return After(conj(Cmp("<", IntLit(0), Unknown(u)),
                      Cmp("<", Unknown(u), IntLit(4))),
                 Bang(Unknown(u)))


def build_b(u):
    """((0 < u) !u) && u < 4"""
    return conj(After(Cmp("<", IntLit(0), Unknown(u)), Bang(Unknown(u))),
                Cmp("<", Unknown(u), IntLit(4)))


def enumerate_matches(build, lo=0, hi=9):
    def run(source):
        cs, u = int_unknown(lo, hi)
        ctx = RunCtx(source, local_backtracking=False)
        out = match_eval(build(u), TRUE, cs, ctx)
        return list(ctx.trace), (not out.failed, ctx.q, out.index(u))

    return list(enumerate_traces(run))


def generated(e, ty, bounds):
    """The values of x, an unknown of type ty, that matching e against
    True and then sampling x give over every choice sequence."""
    def run(source):
        cs, (u,) = ConstraintSet(int_bounds=bounds).fresh([ty])
        ctx = RunCtx(source, local_backtracking=False)
        out = match_eval(e, TRUE, cs, ctx, {"x": Unknown(u)})
        v = None if out.failed else sample_value(Unknown(u), out, ctx)[0]
        return list(ctx.trace), v

    values = {v for _, v in enumerate_traces(run)}
    assert all(pred_eval(e, env={"x": v}) == TRUE for v in values - {None})
    return values


# -- values against patterns --------------------------------------------------


def test_unknown_pinned_by_pattern():
    cs, (u,) = bool_unknowns(1)
    out = match_eval(Unknown(u), TRUE, cs, ctx_with())
    assert not out.failed and out.index(u) == TRUE


def test_contradiction_is_empty_outcome():
    cs, (u,) = bool_unknowns(1)
    cs = cs.unify(Unknown(u), FALSE)
    assert match_eval(Unknown(u), TRUE, cs, ctx_with()).failed


def test_literal_against_int_unknown():
    cs, u = int_unknown(0, 9)
    out = match_eval(IntLit(6), Unknown(u), cs, ctx_with())
    assert out.index(u) == IntLit(6)
    cs2 = cs.post_cmp("<", Unknown(u), 3)
    assert match_eval(IntLit(6), Unknown(u), cs2, ctx_with()).failed


def test_constructor_chain_pins_pattern_unknown():
    cs = ConstraintSet()
    cs, (w,) = cs.fresh([NAT])
    out = match_eval(nat(2), Unknown(w), cs, ctx_with())
    assert not out.failed
    assert out.index(w) == nat(2)


def test_pair_components_match_left_to_right():
    cs = ConstraintSet()
    cs, (w,) = cs.fresh([TProd(TInt(), BOOL)])
    out = match_eval(Pair(IntLit(3), TRUE), Unknown(w), cs, ctx_with())
    assert out.index(w) == Pair(IntLit(3), TRUE)


def test_injection_mismatch_fails_early():
    # inr e against a pattern already pinned inl: no evaluation of e
    cs, (u,) = bool_unknowns(1)
    cs = cs.unify(Unknown(u), TRUE)
    boom = App(Var("nope"), Unit())  # would raise if evaluated
    out = match_eval(Inr(boom, BOOL), Unknown(u), cs, ctx_with())
    assert out.failed


def test_matching_match_fail_is_hard():
    cs, (u,) = bool_unknowns(1)
    with pytest.raises(GenFailure):
        match_eval(MatchFail(BOOL), Unknown(u), cs, ctx_with())


# -- the worked examples ------------------------------------------------------


def test_expression_a_exact_table():
    outcomes = enumerate_matches(build_a)
    assert len(outcomes) == 3
    table = sorted(((t[0].index, t[0].arity), ok, q, val)
                   for t, (ok, q, val) in outcomes)
    assert table == [((i, 3), True, Fraction(1, 3), IntLit(i + 1))
                     for i in range(3)]
    assert all(len(t) == 1 for t, _ in outcomes)
    assert sum(q for _, (_, q, _) in outcomes) == 1


def test_expression_b_exact_table():
    outcomes = enumerate_matches(build_b)
    assert len(outcomes) == 9
    assert all(t == [Choice(i, 9)]
               for i, (t, _) in enumerate(sorted(outcomes, key=lambda o: o[0][0].index)))
    assert all(q == Fraction(1, 9) for _, (_, q, _) in outcomes)
    wins = {val.value for _, (ok, _, val) in outcomes if ok}
    assert wins == {1, 2, 3}
    failure_mass = sum(q for _, (ok, q, _) in outcomes if not ok)
    assert failure_mass == Fraction(2, 3)


def test_triple_conjunction_never_fails():
    cs, us = bool_unknowns(3)
    u1, u2, u3 = (Unknown(u) for u in us)
    ctx = ctx_with()
    out = match_eval(conj(u1, conj(u2, u3)), TRUE, cs, ctx)
    assert not out.failed
    assert ctx.trace == [] and ctx.q == Fraction(1)
    assert all(out.index(u) == TRUE for u in us)


# -- case lookahead -----------------------------------------------------------


def test_concrete_scrutinee_runs_one_branch():
    cs, (u,) = bool_unknowns(1)
    e = CaseSum(TRUE, "_", Unknown(u), "_", MatchFail(BOOL), BOOL)
    out = match_eval(e, TRUE, cs, ctx_with())  # right body never touched
    assert out.index(u) == TRUE


def test_lookahead_pins_scrutinee_through_recursion():
    # isZero n = case unfold n of inl _ -> True | inr _ -> False;
    # demanding True forces n to zero with no randomness
    cs = ConstraintSet()
    cs, (w,) = cs.fresh([NAT])
    is_zero = Rec("f", "x", NAT,
                  CaseSum(Unfold(Var("x"), NAT), "_", TRUE, "_", FALSE,
                          TSum(TUnit(), NAT)), BOOL)
    ctx = ctx_with()
    out = match_eval(App(is_zero, Unknown(w)), TRUE, cs, ctx)
    assert ctx.trace == []
    assert out.index(w) == nat(0)


def test_comparison_against_open_pattern_keeps_both_sides():
    # both outcomes are satisfiable: one 1:1 choice picks the store of
    # one, which is exact, and each is reachable
    cs, u = int_unknown(0, 9)
    cs, (b,) = cs.fresh([BOOL])
    for side, want_b, lo, hi in ((0, TRUE, 0, 3), (1, FALSE, 4, 9)):
        ctx = ctx_with(Choice(side, 2))
        out = match_eval(Cmp("<", Unknown(u), IntLit(4)), Unknown(b), cs,
                         ctx)
        assert ctx.trace == [Choice(side, 2)] and ctx.q == Fraction(1, 2)
        assert out.denote_restricted([b, u]) == {
            (want_b, IntLit(v)) for v in range(lo, hi + 1)}


def test_til_failure_skips_the_hook():
    cs, u = int_unknown(0, 9)
    e = After(FALSE, Bang(Unknown(u)))
    ctx = ctx_with()
    assert match_eval(e, TRUE, cs, ctx).failed
    assert ctx.trace == []  # the sample never happened


def test_bang_samples_the_pattern():
    def run(source):
        cs, (u, w) = bool_unknowns(2)
        ctx = RunCtx(source, local_backtracking=False)
        out = match_eval(Bang(Unknown(u)), Unknown(w), cs, ctx)
        return list(ctx.trace), (out.index(u), out.index(w), ctx.q)

    outcomes = dict()
    for trace, (got_u, got_w, q) in enumerate_traces(run):
        assert got_u == got_w and q == Fraction(1, 2)
        outcomes[tuple(trace)] = got_u
    assert outcomes == {(Choice(0, 2),): TRUE, (Choice(1, 2),): FALSE}


# -- weighted dispatch and local backtracking ---------------------------------


def weighted_case(u, left_body, right_body, w1=1, w2=1):
    return CaseSum(Inst(Unknown(u), IntLit(w1), IntLit(w2)),
                   "_", left_body, "_", right_body, BOOL)


def test_weighted_dispatch_uses_weights():
    cs, (u,) = bool_unknowns(1)
    e = weighted_case(u, TRUE, TRUE, w1=3, w2=1)
    ctx = ctx_with()
    out = match_eval(e, TRUE, cs, ctx)
    assert not out.failed
    assert ctx.trace == [Choice(0, 2)] and ctx.q == Fraction(3, 4)
    assert out.index(u) == TRUE


def test_local_backtracking_retries_sibling():
    cs, (u,) = bool_unknowns(1)
    e = weighted_case(u, FALSE, TRUE, w1=3, w2=1)  # left body cannot match True
    ctx = ctx_with(Choice(0, 2))  # force the doomed left pick
    out = match_eval(e, TRUE, cs, ctx)
    assert not out.failed
    assert out.index(u) == FALSE  # the sibling (right) branch won
    assert ctx.local_backtracks == 1
    # the abandoned pick is gone from the trace; the sibling stands in
    assert ctx.trace == [Choice(1, 2)]
    assert ctx.q == Fraction(1, 4)


def test_local_backtracking_catches_hard_failures():
    cs, (u,) = bool_unknowns(1)
    e = weighted_case(u, MatchFail(BOOL), TRUE)
    ctx = ctx_with(Choice(0, 2))
    out = match_eval(e, TRUE, cs, ctx)
    assert not out.failed and ctx.local_backtracks == 1


def test_local_backtracking_both_sides_fail():
    cs, (u,) = bool_unknowns(1)
    e = weighted_case(u, FALSE, FALSE)
    ctx = ctx_with(Choice(0, 2))
    assert match_eval(e, TRUE, cs, ctx).failed
    assert ctx.local_backtracks == 1


def test_backtracking_off_lets_failure_stand():
    cs, (u,) = bool_unknowns(1)
    e = weighted_case(u, FALSE, TRUE)
    ctx = RunCtx(ScriptedSource([Choice(0, 2)]), local_backtracking=False)
    assert match_eval(e, TRUE, cs, ctx).failed
    assert ctx.local_backtracks == 0
    assert ctx.trace == [Choice(0, 2)] and ctx.q == Fraction(1, 2)


@pytest.mark.parametrize("w1,w2,left,right",
                         [(1, 0, FALSE, TRUE), (0, 1, TRUE, FALSE)])
def test_a_zero_weight_arm_is_never_taken_when_its_sibling_fails(
        w1, w2, left, right):
    # the arm with weight fails; its sibling has no mass, so neither a
    # weighted choice nor local backtracking may run it
    cs, (u,) = bool_unknowns(1)
    e = weighted_case(u, left, right, w1=w1, w2=w2)
    for seed in range(4):
        ctx = RunCtx(RandomSource(seed))
        assert match_eval(e, TRUE, cs, ctx).failed
        assert ctx.draws == 0 and ctx.local_backtracks == 0


def test_dispatch_on_pinned_scrutinee_skips_dead_branch():
    cs, (u,) = bool_unknowns(1)
    cs = cs.unify(Unknown(u), FALSE)
    e = weighted_case(u, MatchFail(BOOL), TRUE, w1=99, w2=1)
    ctx = ctx_with()
    out = match_eval(e, TRUE, cs, ctx)
    assert not out.failed and ctx.trace == [] and ctx.local_backtracks == 0


def test_plain_case_side_with_clashing_body_consumes_no_randomness():
    # matching (case (u ;' !w) of _ -> True | _ -> False) against True:
    # the False body can never match the pattern, so that side's
    # scrutinee premise (which would sample w a second time) never runs
    cs, (u, w) = bool_unknowns(2)
    scrut = After(Unknown(u), Bang(Unknown(w)))
    e = CaseSum(scrut, "_l", TRUE, "_r", FALSE, BOOL)
    ctx = ctx_with(Choice(0, 2))
    out = match_eval(e, TRUE, cs, ctx)
    assert not out.failed
    assert out.count_values(u) == 1  # only the viable injection survives
    assert ctx.trace == [Choice(0, 2)] and ctx.q == Fraction(1, 2)


@pytest.mark.parametrize("int_left", [True, False])
def test_a_plain_case_mints_each_arm_variable_at_its_own_type(int_left):
    # case x of inl a -> True | inr b -> True, the arms' fields an Int and
    # a Bool: no body constrains its variable, so the values x takes are
    # those of the types its arm variables were minted at (a minted
    # integer keeps its domain when x's child of another type meets it)
    ints, bools = [IntLit(0), IntLit(1)], [TRUE, FALSE]
    lefts, rights = (ints, bools) if int_left else (bools, ints)
    ty = TSum(TInt(), BOOL) if int_left else TSum(BOOL, TInt())
    e = CaseSum(Var("x"), "a", TRUE, "b", TRUE, ty)
    assert generated(e, ty, (0, 1)) == ({Inl(v, ty) for v in lefts}
                                        | {Inr(v, ty) for v in rights})


def test_value_clash_is_structural_and_conservative():
    assert heads_clash(TRUE, FALSE) and heads_clash(FALSE, TRUE)
    assert not heads_clash(TRUE, TRUE)
    assert heads_clash(IntLit(3), IntLit(4))
    assert not heads_clash(IntLit(3), IntLit(3))
    assert heads_clash(Pair(TRUE, Var("x")), Pair(FALSE, Var("x")))
    assert not heads_clash(Pair(Var("x"), Var("y")), Pair(TRUE, FALSE))
    assert heads_clash(nat(0), nat(1))
    assert not heads_clash(nat(1), nat(1))
    # anything that still needs evaluation or a store is out of scope
    assert not heads_clash(Var("x"), TRUE)
    assert not heads_clash(Unknown(0), FALSE)
    assert not heads_clash(App(Var("f"), Unit()), TRUE)


def test_value_clash_looks_through_bound_variables():
    assert heads_clash(Var("y"), TRUE, {"y": FALSE})
    assert not heads_clash(Var("y"), TRUE, {"y": TRUE})
    assert heads_clash(Pair(Unit(), Var("y")), Pair(Unit(), TRUE),
                       {"y": FALSE})
    assert not heads_clash(Var("y"), TRUE, {"y": Unknown(0)})


# -- environments -------------------------------------------------------------


def test_curried_function_closes_over_the_earlier_argument():
    # (rec add x. rec inner y. y + x) 10 u = 7 pins u to -3
    inner = Rec("inner", "y", TInt(), Arith("+", Var("y"), Var("x")), TInt())
    add = Rec("add", "x", TInt(), inner, TFun(TInt(), TInt()))
    cs, u = int_unknown(-5, 5)
    out = match_eval(App(App(add, IntLit(10)), Unknown(u)), IntLit(7), cs,
                     ctx_with())
    assert out.count_values(u) == 1 and out.index(u) == IntLit(-3)


def test_arm_variable_shadows_an_outer_binding():
    # case inl 5 of inl x -> x == 5 | inr x -> False, with x = 0 outside
    ints = TSum(TInt(), TInt())
    e = CaseSum(Inl(IntLit(5), ints), "x", Cmp("==", Var("x"), IntLit(5)),
                "x", FALSE, ints)
    assert not match_eval(e, TRUE, ConstraintSet(), ctx_with(),
                          {"x": IntLit(0)}).failed
    assert match_eval(e, FALSE, ConstraintSet(), ctx_with(),
                      {"x": IntLit(5)}).failed


def test_function_name_shadows_an_argument_of_the_same_name():
    # the argument wins: the body names it, not the function
    r = Rec("f", "f", BOOL, Var("f"), BOOL)
    assert not match_eval(App(r, TRUE), TRUE, ConstraintSet(),
                          ctx_with()).failed
    assert match_eval(App(r, FALSE), TRUE, ConstraintSet(), ctx_with()).failed


# -- either -------------------------------------------------------------------


def test_either_returns_the_live_side_without_a_choice():
    cs, (u,) = bool_unknowns(1)
    a = cs.unify(Unknown(u), TRUE)
    ctx = ctx_with()
    assert either(a, cs.fail(), ctx) is a
    assert either(cs.fail(), a, ctx) is a
    assert either(cs.fail(), cs.fail(), ctx).failed
    assert ctx.trace == [] and ctx.q == 1


def test_either_picks_one_of_two_live_sides_one_to_one():
    cs, u = int_unknown(0, 9)
    a = cs.post_cmp("<", Unknown(u), 3)
    b = cs.post_cmp(">", Unknown(u), 7)
    for side, want in ((0, a), (1, b)):
        ctx = ctx_with(Choice(side, 2))
        assert either(a, b, ctx) is want
        assert ctx.trace == [Choice(side, 2)] and ctx.q == Fraction(1, 2)


def test_constructor_and_inst_rules_read_the_patterns_node():
    cs = ConstraintSet(int_bounds=(0, 3))
    cs, (w, b) = cs.fresh([TProd(TInt(), TInt()), BOOL])
    cs = cs.expand(w)[0].expand(b)[0]
    out = match_eval(Pair(IntLit(3), IntLit(1)), Unknown(w), cs, ctx_with())
    assert out.index(w) == Pair(IntLit(3), IntLit(1))
    assert out.next_fresh == cs.next_fresh
    out = match_eval(Inst(Unknown(b), IntLit(1), IntLit(0)), Unknown(b), cs,
                     ctx_with())
    assert out.index(b) == TRUE and out.next_fresh == cs.next_fresh


# -- scrutinees bound to unknowns ---------------------------------------------


SWAP = CasePair(Var("x"), "a", "b", Pair(Var("b"), Var("a")),
                TProd(TInt(), TInt()))


def test_pair_case_and_unfold_read_a_bound_unknowns_node():
    cs = ConstraintSet(int_bounds=(0, 3))
    cs, (w, n) = cs.fresh([TProd(TInt(), TInt()), NAT])
    cs, _, pair = cs.expand(w)
    cs, _, fold = cs.expand(n)
    cs = cs.expand(fold.child)[0]
    with counted() as calls:
        out = match_eval(SWAP, Pair(IntLit(1), IntLit(3)), cs, no_fuel(),
                         {"x": Unknown(w)})
    # the arms are the node's children: the case opens the scrutinee and
    # the body's pair opens the pattern, and each arm variable is unified
    # with its part of the pattern
    assert out.next_fresh == cs.next_fresh
    assert out.index(pair.fst) == IntLit(3)
    assert out.index(pair.snd) == IntLit(1)
    assert calls == {"unify": 2, "open_value": 2}
    zero = Inl(Unit(), TSum(TUnit(), NAT))
    with counted() as calls:
        out = match_eval(Unfold(Var("x"), NAT), zero, cs, no_fuel(),
                         {"x": Unknown(n)})
    assert out.next_fresh == cs.next_fresh
    assert out.index(fold.child) == zero and out.index(n) == nat(0)
    assert calls == {"unify": 1, "open_value": 1}


def test_pair_case_opens_an_unbound_product_unknown_once():
    cs = ConstraintSet(int_bounds=(0, 3))
    cs, (w,) = cs.fresh([TProd(TInt(), TInt())])
    out = match_eval(SWAP, Pair(IntLit(1), IntLit(3)), cs, ctx_with(),
                     {"x": Unknown(w)})
    _, pair = out.resolve(w)
    # expand's two children are the only unknowns minted
    assert isinstance(pair, RPair)
    assert out.next_fresh == cs.next_fresh + 2
    assert out.index(pair.fst) == IntLit(3)
    assert out.index(pair.snd) == IntLit(1)


def test_pair_case_and_unfold_open_a_bound_value_in_place():
    cs = ConstraintSet(int_bounds=(0, 3))
    cs, (a, b, c) = cs.fresh([TInt(), TInt(), TSum(TUnit(), NAT)])
    cs = cs.expand(c)[0]
    pair = Pair(Unknown(a), Unknown(b))
    with counted() as calls:
        out = match_eval(SWAP, Pair(IntLit(1), IntLit(3)), cs, no_fuel(),
                         {"x": pair})
    # the arms are the pair's own parts: nothing is minted, the case
    # opens the value and the body's pair the pattern, and each arm
    # variable is unified with its part of the pattern
    assert out.next_fresh == cs.next_fresh
    assert out.index(a) == IntLit(3) and out.index(b) == IntLit(1)
    assert calls == {"unify": 2, "open_value": 2}
    zero = Inl(Unit(), TSum(TUnit(), NAT))
    with counted() as calls:
        out = match_eval(Unfold(Var("x"), NAT), zero, cs, no_fuel(),
                         {"x": Fold(Unknown(c), NAT)})
    assert out.next_fresh == cs.next_fresh
    assert out.index(c) == zero
    assert calls == {"unify": 1, "open_value": 1}


def test_a_pair_case_over_a_compound_scrutinee_runs_its_body():
    # case g x of (a, b) -> b < 3, with g y = (y, y + 1): the scrutinee is
    # matched against fresh unknowns, and the body then constrains them
    pair = TProd(TInt(), TInt())
    g = Rec("g", "y", TInt(),
            Pair(Var("y"), Arith("+", Var("y"), IntLit(1))), pair)
    e = CasePair(App(g, Var("x")), "a", "b",
                 Cmp("<", Var("b"), IntLit(3)), pair)
    assert generated(e, TInt(), (0, 5)) == {IntLit(0), IntLit(1)}
