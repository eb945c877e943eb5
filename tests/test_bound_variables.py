"""A bound variable takes one step in every evaluator and yields its value
as it is."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luck.constraints import ConstraintSet
from luck.core import (
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


def values_of(ty):
    if isinstance(ty, TUnit):
        return st.just(Unit())
    if isinstance(ty, TInt):
        return st.integers(*INT_BOUNDS).map(IntLit)
    if isinstance(ty, TProd):
        return st.builds(Pair, values_of(ty.left), values_of(ty.right))
    return (values_of(ty.left).map(lambda v: Inl(v, ty))
            | values_of(ty.right).map(lambda v: Inr(v, ty)))


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
