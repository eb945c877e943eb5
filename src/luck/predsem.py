"""Predicate semantics: the plain big-step meaning of a closed expression.

Generator annotations are interpreted transparently here: ``!e`` and
``e <- (w1, w2)`` evaluate to whatever e evaluates to (instantiation still
insists its weights are at least 0), and ``e1 ;' e2`` evaluates both sides
but returns the first.  This evaluator is the ground truth the generators
are checked against: a produced valuation is correct iff evaluating the
query under an environment binding each queried name to its value makes
this evaluator return True.  Bodies run under environments of closed
values, as in narrowing: a variable takes one step and evaluates to the
value it is bound to, as it is.
"""

from __future__ import annotations

from .core import (
    EMPTY_ENV,
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
    Env,
    Expr,
    Fold,
    Inl,
    Inr,
    Inst,
    IntLit,
    MatchFail,
    Pair,
    Rec,
    Unfold,
    Unit,
    Unknown,
    Var,
    subst,  # noqa: F401 -- unused; perfbench traces calls by this name
)

# evaluation steps one valuation may take; the driver and RunCtx default
# to the same budget
DEFAULT_FUEL = 1_000_000


class EvalFailure(Exception):
    """No evaluation rule applies (failed match, bad weight, division by 0)."""


class EvalTimeout(Exception):
    """The fuel budget ran out; distinct from failure."""


class _Fuel:
    __slots__ = ("left",)

    def __init__(self, amount: int) -> None:
        self.left = amount

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise EvalTimeout()


def pred_eval(e: Expr, fuel: int = DEFAULT_FUEL, env: Env = EMPTY_ENV) -> Expr:
    """Evaluate an expression, closed by env, to a value.

    Raises EvalFailure if the expression is stuck (this includes implicit
    failing match arms) and EvalTimeout if fuel runs out.  Python stack
    exhaustion counts as running out of fuel, not as failure.
    """
    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 50_000))
    try:
        return _eval(e, _Fuel(fuel), env)
    except RecursionError:
        raise EvalTimeout() from None
    finally:
        sys.setrecursionlimit(old)


def _eval(e: Expr, fuel: _Fuel, env: Env) -> Expr:
    fuel.tick()
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalFailure(f"unbound variable {e.name}") from None
    if isinstance(e, (Unit, IntLit, Closure)):
        return e
    if isinstance(e, Rec):
        return Closure(e, env)
    if isinstance(e, Unknown):
        raise EvalFailure(f"unknown ?{e.uid} in a closed evaluation")
    if isinstance(e, MatchFail):
        raise EvalFailure("inexhaustive match")
    if isinstance(e, Pair):
        return Pair(_eval(e.fst, fuel, env), _eval(e.snd, fuel, env))
    if isinstance(e, (Inl, Inr, Fold)):
        return type(e)(_eval(e.arg, fuel, env), e.ty)
    if isinstance(e, Unfold):
        v = _eval(e.arg, fuel, env)
        if not isinstance(v, Fold):
            raise EvalFailure(f"unfold of non-fold value {v}")
        return v.arg
    if isinstance(e, CasePair):
        v = _eval(e.scrut, fuel, env)
        if not isinstance(v, Pair):
            raise EvalFailure(f"pair case over non-pair value {v}")
        return _eval(e.body, fuel,
                     {**env, e.snd_name: v.snd, e.fst_name: v.fst})
    if isinstance(e, CaseSum):
        v = _eval(e.scrut, fuel, env)
        if isinstance(v, Inl):
            return _eval(e.left_body, fuel, {**env, e.left_name: v.arg})
        if isinstance(v, Inr):
            return _eval(e.right_body, fuel, {**env, e.right_name: v.arg})
        raise EvalFailure(f"sum case over non-injection value {v}")
    if isinstance(e, App):
        f = _eval(e.fun, fuel, env)
        if not isinstance(f, Closure):
            raise EvalFailure(f"application of non-function {f}")
        a = _eval(e.arg, fuel, env)
        return _eval(f.rec.body, fuel, f.body_env(a))
    if isinstance(e, Inst):
        wl = _eval(e.w_left, fuel, env)
        wr = _eval(e.w_right, fuel, env)
        for w in (wl, wr):
            if not isinstance(w, IntLit) or w.value < 0:
                raise EvalFailure(f"bad instantiation weight {w}")
        return _eval(e.arg, fuel, env)
    if isinstance(e, Bang):
        return _eval(e.arg, fuel, env)
    if isinstance(e, After):
        v = _eval(e.main, fuel, env)
        _eval(e.hook, fuel, env)
        return v
    if isinstance(e, Cmp):
        l = _eval(e.lhs, fuel, env)
        r = _eval(e.rhs, fuel, env)
        if not isinstance(l, IntLit) or not isinstance(r, IntLit):
            raise EvalFailure("comparison of non-integers")
        return TRUE if _compare(e.op, l.value, r.value) else FALSE
    if isinstance(e, Arith):
        l = _eval(e.lhs, fuel, env)
        r = _eval(e.rhs, fuel, env)
        if not isinstance(l, IntLit) or not isinstance(r, IntLit):
            raise EvalFailure("arithmetic on non-integers")
        return IntLit(_arith(e.op, l.value, r.value))
    raise EvalFailure(f"no rule for {e!r}")


def _compare(op: str, a: int, b: int) -> bool:
    if op == "==":
        return a == b
    if op == "/=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise EvalFailure(f"bad comparison operator {op}")


def _arith(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise EvalFailure("division by zero")
        return a // b
    raise EvalFailure(f"bad arithmetic operator {op}")
