"""A bound variable takes one step in every evaluator and yields its value
as it is; matching meets a value with a pattern by one unification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luck.constraints import ConstraintSet
from luck.core import (
    Arith,
    Inl,
    Inr,
    IntLit,
    Pair,
    TInt,
    TProd,
    TSum,
    TUnit,
    Unit,
    Unknown,
    Var,
)
from luck.matching import match_eval
from luck.narrow import narrow
from luck.predsem import DEFAULT_FUEL, EvalTimeout, pred_eval
from luck.trace import RunCtx, ScriptedSource

INT_BOUNDS = (-3, 3)

# unit, integers, and products and sums of them
FLAT_TYPES = st.recursive(
    st.sampled_from([TUnit(), TInt()]),
    lambda t: st.builds(TProd, t, t) | st.builds(TSum, t, t),
    max_leaves=5)


def values_of(ty, holes=st.nothing()):
    """Values of ty; with holes=st.none(), any part may be left open
    (None)."""
    if isinstance(ty, TUnit):
        closed = st.just(Unit())
    elif isinstance(ty, TInt):
        closed = st.integers(*INT_BOUNDS).map(IntLit)
    elif isinstance(ty, TProd):
        closed = st.builds(Pair, values_of(ty.left, holes),
                           values_of(ty.right, holes))
    else:
        closed = (values_of(ty.left, holes).map(lambda v: Inl(v, ty))
                  | values_of(ty.right, holes).map(lambda v: Inr(v, ty)))
    return holes | closed


TYPED_VALUES = FLAT_TYPES.flatmap(
    lambda ty: values_of(ty).map(lambda v: (ty, v)))


def steps(ctx: RunCtx) -> int:
    return DEFAULT_FUEL - ctx.fuel


@settings(database=None, deadline=None)
@given(TYPED_VALUES)
def test_a_bound_variable_takes_one_step_in_every_evaluator(typed):
    ty, value = typed
    env = {"x": value}
    ctx = RunCtx(ScriptedSource([]))
    got, _ = narrow(Var("x"), ConstraintSet(), ctx, env)
    assert got is value and steps(ctx) == 1
    assert pred_eval(Var("x"), 1, env) is value
    with pytest.raises(EvalTimeout):
        pred_eval(Var("x"), 0, env)
    cs, (u,) = ConstraintSet(int_bounds=INT_BOUNDS).fresh([ty])
    ctx = RunCtx(ScriptedSource([]))
    out = match_eval(Var("x"), Unknown(u), cs, ctx, env)
    assert out.index(u) == value and steps(ctx) == 1


def close(v, ty, cs):
    """(cs', v with each open part an unknown of its type minted in cs)."""
    if v is None:
        cs, (u,) = cs.fresh([ty])
        return cs, Unknown(u)
    if isinstance(v, Pair):
        cs, fst = close(v.fst, ty.left, cs)
        cs, snd = close(v.snd, ty.right, cs)
        return cs, Pair(fst, snd)
    if isinstance(v, (Inl, Inr)):
        cs, arg = close(v.arg, ty.left if isinstance(v, Inl) else ty.right,
                        cs)
        return cs, type(v)(arg, ty)
    return cs, v


VALUES_AND_PATTERNS = FLAT_TYPES.flatmap(
    lambda ty: st.tuples(st.just(ty), values_of(ty, st.none()),
                         values_of(ty, st.none())))


@settings(database=None, deadline=None)
@given(VALUES_AND_PATTERNS)
def test_a_value_meets_a_pattern_by_one_unification(drawn):
    ty, value, pattern = drawn
    cs = ConstraintSet(int_bounds=INT_BOUNDS)
    cs, v = close(value, ty, cs)
    cs, p = close(pattern, ty, cs)
    want = cs.unify(v, p)
    cases = [(Var("x"), {"x": v})]
    if isinstance(v, (Unit, IntLit, Unknown)):
        cases.append((v, {}))
    for e, env in cases:
        ctx = RunCtx(ScriptedSource([]))
        out = match_eval(e, p, cs, ctx, env)
        assert out.failed == want.failed and out.bindings == want.bindings
        assert steps(ctx) == 1


def test_a_contradiction_is_a_failed_store():
    cs, (u,) = ConstraintSet(int_bounds=(0, 5)).fresh([TInt()])
    out = match_eval(IntLit(6), Unknown(u), cs, RunCtx(ScriptedSource([])))
    assert out.failed


def test_arithmetic_is_narrowed_and_unified_in_one_step():
    # one step for the sum and one for each operand
    ctx = RunCtx(ScriptedSource([]), fuel=3)
    out = match_eval(Arith("+", IntLit(1), IntLit(2)), IntLit(3),
                     ConstraintSet(), ctx)
    assert not out.failed and ctx.fuel == 0
