"""Narrowing evaluation: running expressions over a constraint store."""

import gc
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from luck.constraints import ConstraintSet, ContractViolation
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
    Expr,
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
    Unknown,
    Var,
)
from luck.desugar import Program
from luck.driver import DEFAULT_FUEL, attempt, prepare
from luck.matching import match_eval
from luck.narrow import GenFailure, narrow, open_value, sample_value, split_sum
from luck.predsem import EvalTimeout, pred_eval
from luck.trace import (
    Choice,
    RandomSource,
    RunCtx,
    ScriptedSource,
    derive_seed,
    enumerate_traces,
)

from .store_gen import UNIT_LIST, pigeonhole_store

CORPUS = Path(__file__).parent.parent / "corpus"


def ctx_with(*choices):
    return RunCtx(ScriptedSource(list(choices)))


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


# -- deterministic fragments --------------------------------------------------


def test_literals_pass_through():
    cs = ConstraintSet()
    v, out = narrow(IntLit(5), cs, ctx_with())
    assert v == IntLit(5) and out is cs


def test_arith_and_cmp_on_literals():
    ctx = ctx_with()
    cs = ConstraintSet()
    v, _ = narrow(Arith("+", IntLit(2), Arith("*", IntLit(3), IntLit(4))), cs, ctx)
    assert v == IntLit(14)
    v, _ = narrow(Cmp("<=", IntLit(14), IntLit(14)), cs, ctx)
    assert v == TRUE
    assert ctx.trace == []


def test_division_by_zero_fails():
    with pytest.raises(GenFailure):
        narrow(Arith("/", IntLit(1), IntLit(0)), ConstraintSet(), ctx_with())


def test_recursive_function_agrees_with_plain_evaluation():
    # sum n = if n <= 0 then 0 else n + sum (n - 1)
    body = CaseSum(
        Cmp("<=", Var("n"), IntLit(0)),
        "_", IntLit(0),
        "_", Arith("+", Var("n"), App(Var("sum"), Arith("-", Var("n"), IntLit(1)))),
        BOOL,
    )
    summer = Rec("sum", "n", TInt(), body, TInt())
    e = App(summer, IntLit(10))
    v, _ = narrow(e, ConstraintSet(), ctx_with())
    assert v == pred_eval(e) == IntLit(55)


def test_unbound_variable_fails():
    with pytest.raises(GenFailure):
        narrow(Var("ghost"), ConstraintSet(), ctx_with())


def test_match_fail_fails():
    with pytest.raises(GenFailure):
        narrow(MatchFail(BOOL), ConstraintSet(), ctx_with())


def test_fuel_exhaustion_is_timeout():
    loop = Rec("f", "x", TUnit(), App(Var("f"), Var("x")), TUnit())
    ctx = RunCtx(ScriptedSource([]), fuel=500)
    with pytest.raises(EvalTimeout):
        narrow(App(loop, Unit()), ConstraintSet(), ctx)


# -- case over unknowns -------------------------------------------------------


def test_case_unknown_takes_scripted_branch():
    cs, (u,) = bool_unknowns(1)
    e = CaseSum(Unknown(u), "_", IntLit(1), "_", IntLit(2), BOOL)

    ctx = ctx_with()
    v, out = narrow(e, cs, ctx)
    assert v == IntLit(1)
    assert ctx.trace == [Choice(0, 2)] and ctx.q == Fraction(1, 2)
    assert out.index(u) == TRUE

    ctx = ctx_with(Choice(1, 2))
    v, out = narrow(e, cs, ctx)
    assert v == IntLit(2)
    assert out.index(u) == FALSE


def test_case_pinned_unknown_is_silent():
    cs, (u,) = bool_unknowns(1)
    cs = cs.unify(Unknown(u), FALSE)
    ctx = ctx_with()
    v, _ = narrow(CaseSum(Unknown(u), "_", IntLit(1), "_", IntLit(2), BOOL),
                  cs, ctx)
    assert v == IntLit(2)
    assert ctx.trace == [] and ctx.q == Fraction(1)


def test_triple_conjunction_success_mass_is_one_quarter():
    def run(source):
        cs, us = bool_unknowns(3)
        u1, u2, u3 = (Unknown(u) for u in us)
        ctx = RunCtx(source, local_backtracking=False)
        v, out = narrow(conj(u1, conj(u2, u3)), cs, ctx)
        return list(ctx.trace), (out.unify(v, TRUE).sat(), ctx.q)

    outcomes = list(enumerate_traces(run))
    assert sum(q for _, (_, q) in outcomes) == 1
    assert sum(q for _, (ok, q) in outcomes if ok) == Fraction(1, 4)
    # the one success: both case splits went left, the last conjunct
    # is returned untouched as a value
    successes = [t for t, (ok, _) in outcomes if ok]
    assert successes == [[Choice(0, 2), Choice(0, 2)]]


# -- instantiation ------------------------------------------------------------


def test_inst_weighted_choice():
    cs, (u,) = bool_unknowns(1)
    e = Inst(Unknown(u), IntLit(3), IntLit(1))

    ctx = ctx_with()
    v, out = narrow(e, cs, ctx)
    assert v == Unknown(u)
    assert out.index(u) == TRUE
    assert ctx.trace == [Choice(0, 2)] and ctx.q == Fraction(3, 4)

    ctx = ctx_with(Choice(1, 2))
    _, out = narrow(e, cs, ctx)
    assert out.index(u) == FALSE
    assert ctx.q == Fraction(1, 4)


def test_inst_weight_expressions_are_evaluated():
    cs, (u,) = bool_unknowns(1)
    e = Inst(Unknown(u), Arith("+", IntLit(1), IntLit(1)), IntLit(2))
    ctx = ctx_with()
    narrow(e, cs, ctx)
    assert ctx.q == Fraction(1, 2)


def test_inst_rejects_negative_weight():
    cs, (u,) = bool_unknowns(1)
    with pytest.raises(GenFailure):
        narrow(Inst(Unknown(u), Arith("-", IntLit(1), IntLit(2)), IntLit(1)),
               cs, ctx_with())


def test_inst_zero_weight_branch_is_never_taken():
    cs, (u,) = bool_unknowns(1)
    ctx = ctx_with()
    _, out = narrow(Inst(Unknown(u), IntLit(0), IntLit(1)), cs, ctx)
    assert out.index(u) == FALSE
    assert ctx.trace == [] and ctx.q == 1


def test_inst_fails_when_no_branch_has_weight():
    cs, (u,) = bool_unknowns(1)
    with pytest.raises(GenFailure):
        narrow(Inst(Unknown(u), IntLit(0), IntLit(0)), cs, ctx_with())


def test_inst_on_pinned_unknown_is_deterministic():
    cs, (u,) = bool_unknowns(1)
    cs = cs.unify(Unknown(u), TRUE)
    ctx = ctx_with()
    narrow(Inst(Unknown(u), IntLit(1), IntLit(99)), cs, ctx)
    assert ctx.trace == []


def test_inst_on_concrete_value_passes_through():
    ctx = ctx_with()
    v, _ = narrow(Inst(FALSE, IntLit(1), IntLit(1)), ConstraintSet(), ctx)
    assert v == FALSE and ctx.trace == []


# -- environments -------------------------------------------------------------


def curried_sub():
    """rec sub x. rec inner y. x - y: inner closes over sub's argument."""
    inner = Rec("inner", "y", TInt(), Arith("-", Var("x"), Var("y")), TInt())
    return Rec("sub", "x", TInt(), inner, TFun(TInt(), TInt()))


def test_curried_function_closes_over_the_earlier_argument():
    e = App(App(curried_sub(), IntLit(10)), IntLit(3))
    v, _ = narrow(e, ConstraintSet(), ctx_with())
    assert v == pred_eval(e) == IntLit(7)


def test_closure_keeps_its_own_binding_of_a_rebound_name():
    # case (sub 10, 5) of (f, x) -> f x: the outer x = 5 must not leak
    # into the closure, whose x is 10
    e = CasePair(Pair(App(curried_sub(), IntLit(10)), IntLit(5)), "f", "x",
                 App(Var("f"), Var("x")), TProd(TFun(TInt(), TInt()), TInt()))
    v, _ = narrow(e, ConstraintSet(), ctx_with())
    assert v == pred_eval(e) == IntLit(5)


def test_arm_variable_shadows_an_outer_binding():
    ints = TSum(TInt(), TInt())
    outer = {"x": IntLit(9)}
    e = CaseSum(Inl(IntLit(1), ints), "x", Var("x"), "y", Var("x"), ints)
    assert narrow(e, ConstraintSet(), ctx_with(), outer)[0] == IntLit(1)
    e = CaseSum(Inr(IntLit(1), ints), "x", Var("x"), "y", Var("x"), ints)
    assert narrow(e, ConstraintSet(), ctx_with(), outer)[0] == IntLit(9)


def test_function_name_shadows_an_argument_of_the_same_name():
    # the argument wins: the body names it, not the function
    r = Rec("f", "f", TInt(), Var("f"), TInt())
    v, _ = narrow(App(r, IntLit(3)), ConstraintSet(), ctx_with())
    assert v == IntLit(3)


# Evaluation steps of one attempt of each query for seeds 0-5 (query,
# int bound, depth bound), recorded with the evaluators in which a
# variable takes one step and a pair case or unfold opens a variable-bound
# value in place.
ATTEMPT_STEPS = [
    ("bst.luck", "bst 3 0 10 t = True", (0, 10), 8,
     [165, 98, 165, 165, 111, 98]),
    ("rbt.luck", "isRBT 2 0 20 Black t = True", (0, 20), 8,
     [746, 1327, 1507, 677, 1427, 1088]),
    ("distinct.luck", "distinct l = True", (0, 9), 8,
     [57, 57, 19, 19, 19, 19]),
    ("sorted.luck", "sorted l = True", (0, 20), 8,
     [43, 118, 18, 93, 68, 43]),
    ("member.luck", "member 3 l = True", (0, 5), 8,
     [168, 171, 172, 171, 172, 173]),
    ("bst.luck", "bst 3 0 10 t = True", (0, 10), 12,
     [165, 98, 165, 165, 111, 98]),
]


@pytest.mark.parametrize("file,query,int_bound,depth,steps", ATTEMPT_STEPS,
                         ids=["bst", "rbt", "distinct", "sorted", "member",
                              "bst-d12"])
def test_attempt_takes_the_recorded_number_of_steps(file, query, int_bound,
                                                    depth, steps):
    prog = Program.from_source((CORPUS / file).read_text())
    prep = prepare(prog, query, int_bound=int_bound, depth=depth)
    used = []
    for seed in range(len(steps)):
        ctx = RunCtx(RandomSource(derive_seed(seed, 0)))
        try:
            attempt(prep, ctx)
        except GenFailure:
            pass
        used.append(DEFAULT_FUEL - ctx.fuel)
    assert used == steps


def run_attempt(prep, seed: int, fuel: int):
    """(values, trace, q) of one attempt, values None when it fails."""
    ctx = RunCtx(RandomSource(derive_seed(seed, 0)), fuel=fuel)
    try:
        vals = attempt(prep, ctx)
    except GenFailure:
        vals = None
    return vals, ctx.trace, ctx.q


@pytest.mark.parametrize("file,query,int_bound,depth,steps", ATTEMPT_STEPS,
                         ids=["bst", "rbt", "distinct", "sorted", "member",
                              "bst-d12"])
def test_an_attempt_fits_exactly_its_recorded_steps(file, query, int_bound,
                                                    depth, steps):
    # the last step comes last: no step is moved past the end or batched
    prog = Program.from_source((CORPUS / file).read_text())
    prep = prepare(prog, query, int_bound=int_bound, depth=depth)
    for seed, fuel in enumerate(steps):
        assert run_attempt(prep, seed, fuel) == run_attempt(prep, seed,
                                                             DEFAULT_FUEL)
        with pytest.raises(EvalTimeout):
            run_attempt(prep, seed, fuel - 1)


def test_compiled_code_refers_to_no_node_above_it():
    # each evaluator compiles every node kind here: leaves, a function,
    # a call, a comparison and a body that pushes no pattern; a node's code
    # holding the node would make a cycle only a collection frees
    f = Rec("f", "x", TInt(), Cmp("<", Var("x"), IntLit(3)), BOOL)
    g = Rec("g", "y", BOOL, Var("y"), BOOL)
    term = After(App(g, App(f, Var("u"))), Unit())
    nodes, todo = [], [term]
    while todo:
        node = todo.pop()
        nodes.append(weakref.ref(node))
        todo.extend(v for v in vars(node).values() if isinstance(v, Expr))
    cs, u = int_unknown(0, 9)
    gc.collect()
    gc.disable()
    try:
        assert not match_eval(term, TRUE, cs, ctx_with(), {"u": Unknown(u)}
                              ).failed
        assert narrow(term, cs, ctx_with(), {"u": Unknown(u)})[0] == TRUE
        assert pred_eval(term, env={"u": IntLit(1)}) == TRUE
        assert term._match and term._narrow and term._pred
        del term, f, g, node
        assert [n for n in nodes if n() is not None] == []
    finally:
        gc.enable()


# -- sampling -----------------------------------------------------------------


def test_bang_int_domain_three_ways():
    cs, u = int_unknown(1, 3)
    seen = {}
    for i in range(3):
        ctx = ctx_with(Choice(i, 3))
        v, out = narrow(Bang(Unknown(u)), cs, ctx)
        assert ctx.q == Fraction(1, 3)
        assert out.index(u) == v
        seen[i] = v
    assert list(seen.values()) == [IntLit(1), IntLit(2), IntLit(3)]


def test_bang_singleton_makes_no_choice():
    cs, u = int_unknown(7, 7)
    ctx = ctx_with()
    v, _ = narrow(Bang(Unknown(u)), cs, ctx)
    assert v == IntLit(7)
    assert ctx.trace == [] and ctx.q == Fraction(1)


def test_bang_bool_order_true_first():
    cs, (u,) = bool_unknowns(1)
    v, _ = narrow(Bang(Unknown(u)), cs, ctx_with())
    assert v == TRUE
    v, _ = narrow(Bang(Unknown(u)), cs, ctx_with(Choice(1, 2)))
    assert v == FALSE


def test_sample_value_walks_structure():
    cs = ConstraintSet()
    cs, (a, b) = cs.fresh([BOOL, TInt()])
    cs = cs.post_cmp(">=", Unknown(b), 5).post_cmp("<=", Unknown(b), 6)
    v, out = sample_value(Pair(Unknown(a), Unknown(b)), cs, ctx_with())
    assert v == Pair(TRUE, IntLit(5))
    assert out.index(a) == TRUE and out.index(b) == IntLit(5)


def test_bang_empty_domain_fails():
    cs, u = int_unknown(0, 9)
    cs = cs.post_cmp(">", Unknown(u), 9)
    assert not cs.sat()
    with pytest.raises(GenFailure):
        narrow(Bang(Unknown(u)), cs, ctx_with())


# -- comparisons and arithmetic over unknowns ---------------------------------


def test_cmp_unknown_splits_both_ways():
    cs, u = int_unknown(0, 9)
    e = Cmp("<", Unknown(u), IntLit(4))

    ctx = ctx_with()
    v, out = narrow(e, cs, ctx)
    assert v == TRUE
    assert ctx.trace == [Choice(0, 2)] and ctx.q == Fraction(1, 2)
    assert out.count_values(u) == 4  # {0,1,2,3}

    ctx = ctx_with(Choice(1, 2))
    v, out = narrow(e, cs, ctx)
    assert v == FALSE
    assert out.count_values(u) == 6  # {4..9}


def test_cmp_decided_by_domain_is_silent():
    cs, u = int_unknown(0, 9)
    cs = cs.post_cmp("<", Unknown(u), 3)
    ctx = ctx_with()
    v, _ = narrow(Cmp("<", Unknown(u), IntLit(5)), cs, ctx)
    assert v == TRUE and ctx.trace == []


def test_cmp_unknown_against_itself():
    cs, u = int_unknown(0, 9)
    ctx = ctx_with()
    v, _ = narrow(Cmp("<", Unknown(u), Unknown(u)), cs, ctx)
    assert v == FALSE and ctx.trace == []


def test_arith_shifts_unknown_symbolically():
    cs, u = int_unknown(0, 9)
    v, out = narrow(Arith("+", Unknown(u), IntLit(3)), cs, ctx_with())
    assert isinstance(v, Unknown) and v.uid != u
    dom = [val for val, _ in out.sample(v.uid)]
    assert dom == [IntLit(n) for n in range(3, 13)]


def test_arith_on_two_unknowns_unsupported():
    cs = ConstraintSet(int_bounds=(0, 3))
    cs, (a, b) = cs.fresh([TInt(), TInt()])
    with pytest.raises(ContractViolation):
        narrow(Arith("*", Unknown(a), Unknown(b)), cs, ctx_with())


# -- sequencing ---------------------------------------------------------------


def test_after_runs_hook_constraints():
    cs, u = int_unknown(1, 3)
    e = After(Unknown(u), Bang(Unknown(u)))
    ctx = ctx_with(Choice(2, 3))
    v, out = narrow(e, cs, ctx)
    assert v == Unknown(u)
    assert out.index(u) == IntLit(3)


def test_narrowing_constraint_then_sample():
    # (0 < u && u < 4) !u  with u in 0..9: constraints first, then a
    # three-way sample; no run ever fails
    def run(source):
        cs, u = int_unknown(0, 9)
        e = After(conj(Cmp("<", IntLit(0), Unknown(u)),
                       Cmp("<", Unknown(u), IntLit(4))),
                  Bang(Unknown(u)))
        ctx = RunCtx(source, local_backtracking=False)
        v, out = narrow(e, cs, ctx)
        ok = out.unify(v, TRUE).sat()
        return list(ctx.trace), (ok, ctx.q, out.index(u))

    outcomes = list(enumerate_traces(run))
    assert sum(q for _, (_, q, _) in outcomes) == 1
    good = [(t, val) for t, (ok, q, val) in outcomes
            if ok and q == Fraction(1, 12)]
    # success requires both comparisons narrowed true (1/2 * 1/2) and then
    # one of three samples; every sampled value lands in {1,2,3}
    assert sorted(val.value for _, val in good) == [1, 2, 3]
    assert all(t[-1].arity == 3 for t, _ in good)


class _FakeSpace:
    """A sample space of n integers whose `bad` indices pin inconsistently."""

    def __init__(self, n, bad):
        self.count = n
        self.bad = bad

    def at(self, i):
        return IntLit(i), SimpleNamespace(failed=i in self.bad)


def _store_of(space):
    return SimpleNamespace(sample=lambda uid: space)


def _reference_draw(space, trace):
    """The index a list of the live indices reaches on a recorded trace."""
    live = list(range(space.count))
    choices = iter(trace)
    while live:
        if len(live) == 1:
            k = 0
        else:
            c = next(choices)
            assert c.arity == len(live)
            k = c.index
        i = live.pop(k)
        if i not in space.bad:
            return i
    return None


def test_inconsistent_draws_are_replaced_from_the_remainder():
    space = _FakeSpace(6, {0, 2, 3})

    def run(source):
        ctx = RunCtx(source)
        v, _ = sample_value(Unknown(0), _store_of(space), ctx)
        return list(ctx.trace), v.value

    outcomes = list(enumerate_traces(run))
    assert len(outcomes) > space.count - len(space.bad)
    for trace, got in outcomes:
        assert got == _reference_draw(space, trace)


def test_sampling_a_huge_range_lists_none_of_it():
    n = 10 ** 40
    space = _FakeSpace(n, {0, 1, 5})
    ctx = ctx_with(Choice(0, n), Choice(0, n - 1), Choice(3, n - 2),
                   Choice(3, n - 3))
    v, _ = sample_value(Unknown(0), _store_of(space), ctx)
    # indices 0 and 1 are dropped, the third draw maps 3 past them to the
    # inconsistent 5, and the fourth maps 3 past 0, 1 and 5 to 6
    assert v == IntLit(6)
    assert ctx.q == Fraction(1, n * (n - 1) * (n - 2) * (n - 3))


def test_sampling_fails_when_no_pin_has_a_solution():
    cs, w = pigeonhole_store()
    ctx = ctx_with()
    with pytest.raises(GenFailure):
        sample_value(Unknown(w), cs, ctx)
    # both values were drawn: the first by a recorded choice, the last
    # because it was the only one left
    assert ctx.trace == [Choice(0, 2)] and ctx.q == Fraction(1, 2)


def opened_store():
    """A pair, a sum and a list unknown, each already holding its node."""
    cs, us = ConstraintSet(int_bounds=(0, 3)).fresh(
        [TProd(TInt(), BOOL), BOOL, UNIT_LIST])
    for u in us:
        cs = cs.expand(u)[0]
    return cs, us


def test_splits_read_an_existing_node_and_mint_nothing():
    cs, (p, s, lst) = opened_store()
    n = cs.next_fresh
    node = cs.bindings[p]
    v, out = narrow(CasePair(Unknown(p), "a", "b", Pair(Var("b"), Var("a")),
                             cs.type_of(p)), cs, ctx_with())
    assert v == Pair(Unknown(node.snd), Unknown(node.fst))
    assert out.next_fresh == n
    # a split reads both sides and hands back the store it was given
    left, right, out = split_sum(Unknown(s), cs)
    assert (left, right) == (Unknown(cs.bindings[s].left),
                             Unknown(cs.bindings[s].right))
    assert out is cs
    # only the chosen side's store is built, and it mints nothing
    as_left, as_right = (open_value(Unknown(s), kind, cs)[1]
                         for kind in (Inl, Inr))
    assert as_left.next_fresh == as_right.next_fresh == n
    assert (as_left.index(s), as_right.index(s)) == (TRUE, FALSE)
    # an injection value splits without the store
    assert split_sum(TRUE, cs) == (Unit(), None, cs)
    assert split_sum(FALSE, cs) == (None, Unit(), cs)
    v, out = narrow(Unfold(Unknown(lst), UNIT_LIST), cs, ctx_with())
    assert v == Unknown(cs.bindings[lst].child) and out.next_fresh == n


def test_the_kept_side_has_the_bindings_a_unification_gives():
    sum_ty = TSum(TInt(), BOOL)
    cs, (s,) = ConstraintSet(int_bounds=(0, 3)).fresh([sum_ty])
    for store in (cs.expand(s)[0], cs.materialize(s, 2)[0]):
        # split_sum writes what `expand` writes and nothing more
        left, right, split = split_sum(Unknown(s), store)
        assert split.bindings == store.expand(s)[0].bindings
        for kind, side in ((Inl, left), (Inr, right)):
            (arg,), kept = open_value(Unknown(s), kind, split)
            assert arg == side
            assert kept.bindings == split.unify(Unknown(s),
                                                kind(side, sum_ty)).bindings
            # a node that keeps one side already comes back as it is
            again = open_value(Unknown(s), kind, kept)
            assert again[0] == (arg,) and again[1] is kept
            ruled_out = Inr if kind is Inl else Inl
            assert open_value(Unknown(s), ruled_out, kept) is None


def test_a_split_of_the_wrong_node_kind_is_a_contract_violation():
    cs, (p, s, lst) = opened_store()
    for u, kind in ((p, Inl), (s, Pair), (lst, Inr), (s, Fold)):
        with pytest.raises(ContractViolation):
            open_value(Unknown(u), kind, cs)
    with pytest.raises(ContractViolation):
        split_sum(Unknown(p), cs)
