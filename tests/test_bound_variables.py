"""A bound variable yields its value as it is in every evaluator and takes
no fuel; matching meets a value with a pattern by one unification."""

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
from luck.predsem import pred_eval
from luck.trace import RunCtx, ScriptedSource

from .calls import counted

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


def no_fuel() -> RunCtx:
    return RunCtx(ScriptedSource([]), fuel=0)


@settings(database=None, deadline=None)
@given(TYPED_VALUES)
def test_a_bound_variable_yields_its_value_without_fuel_in_every_evaluator(
        typed):
    # the value itself comes back, and matching unifies it with the
    # pattern once without opening it: a walk over the value would build
    # a copy or open its parts
    ty, value = typed
    env = {"x": value}
    got, _ = narrow(Var("x"), ConstraintSet(), no_fuel(), env)
    assert got is value
    assert pred_eval(Var("x"), 0, env) is value
    cs, (u,) = ConstraintSet(int_bounds=INT_BOUNDS).fresh([ty])
    with counted() as calls:
        out = match_eval(Var("x"), Unknown(u), cs, no_fuel(), env)
    assert out.index(u) == value
    assert calls == {"unify": 1, "open_value": 0}


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
        with counted() as calls:
            out = match_eval(e, p, cs, no_fuel(), env)
        assert out.failed == want.failed and out.bindings == want.bindings
        assert calls == {"unify": 1, "open_value": 0}


def test_a_contradiction_is_a_failed_store():
    cs, (u,) = ConstraintSet(int_bounds=(0, 5)).fresh([TInt()])
    out = match_eval(IntLit(6), Unknown(u), cs, RunCtx(ScriptedSource([])))
    assert out.failed


def test_arithmetic_is_narrowed_and_unified_once_without_fuel():
    # no function is applied, so no fuel is taken
    with counted() as calls:
        out = match_eval(Arith("+", IntLit(1), IntLit(2)), IntLit(3),
                         ConstraintSet(), no_fuel())
    assert not out.failed and calls == {"unify": 1, "open_value": 0}
