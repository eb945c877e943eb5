"""Predicate semantics: the plain big-step meaning of a closed expression.

Generator annotations are interpreted transparently here: ``!e`` and
``e <- (w1, w2)`` evaluate to whatever e evaluates to (instantiation still
insists its weights are at least 0), and ``e1 ;' e2`` evaluates both sides
but returns the first.  This evaluator is the ground truth the generators
are checked against: a produced valuation is correct iff evaluating the
query under an environment binding each queried name to its value makes
this evaluator return True.  Bodies run under environments of closed
values, as in narrowing: a variable evaluates to the value it is bound
to, as it is.  As in narrowing, one unit of fuel is one function
application, charged by an application's code alone.

A term is compiled once, on its first evaluation, into one closure per
node that holds its children's closures and the node's fields; a
function body is compiled on its first application.  The code is kept
on the node (``Expr._pred``) and refers to no node above it, so a term
built for one check is freed with its code.  This compiler shares no
rule with narrowing or matching: case selection, comparison and
instantiation are decided here on their own, so the recheck judges the
generators independently.
"""

from __future__ import annotations

import sys
from dataclasses import replace

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
from .intdomain import eval_op

# function applications one attempt, or one recheck, may make; the driver
# and RunCtx default to the same budget
DEFAULT_FUEL = 100_000


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
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 50_000))
    try:
        return (e._pred or _compile(e))(_Fuel(fuel), env)
    except RecursionError:
        raise EvalTimeout() from None
    finally:
        sys.setrecursionlimit(old)


def _compile(e: Expr):
    """The code of e: code(fuel, env) evaluates e to a value.

    Builds the code of e's children first, except a function's body;
    the code is kept on e.
    """
    match e:
        case Var(name):
            def code(fuel, env):
                try:
                    return env[name]
                except KeyError:
                    raise EvalFailure(f"unbound variable {name}") from None
        case Unit() | IntLit():
            value = replace(e)  # a copy: the code does not refer to e

            def code(fuel, env):
                return value
        case Rec():
            rec = replace(e)

            def code(fuel, env):
                return Closure(rec, env)
        case Unknown(uid):
            def code(fuel, env):
                raise EvalFailure(f"unknown ?{uid} in a closed evaluation")
        case MatchFail():
            def code(fuel, env):
                raise EvalFailure("inexhaustive match")
        case Pair(fst, snd):
            fst, snd = _code(fst), _code(snd)

            def code(fuel, env):
                return Pair(fst(fuel, env), snd(fuel, env))
        case Inl(arg, ty) | Inr(arg, ty) | Fold(arg, ty):
            make, arg = type(e), _code(arg)

            def code(fuel, env):
                return make(arg(fuel, env), ty)
        case Unfold(arg):
            arg = _code(arg)

            def code(fuel, env):
                v = arg(fuel, env)
                if not isinstance(v, Fold):
                    raise EvalFailure(f"unfold of non-fold value {v}")
                return v.arg
        case CasePair(scrut, fst_name, snd_name, body):
            scrut, body = _code(scrut), _code(body)

            def code(fuel, env):
                v = scrut(fuel, env)
                if not isinstance(v, Pair):
                    raise EvalFailure(f"pair case over non-pair value {v}")
                return body(fuel, {**env, snd_name: v.snd, fst_name: v.fst})
        case CaseSum(scrut, left_name, left, right_name, right):
            scrut, left, right = _code(scrut), _code(left), _code(right)

            def code(fuel, env):
                v = scrut(fuel, env)
                if isinstance(v, Inl):
                    return left(fuel, {**env, left_name: v.arg})
                if isinstance(v, Inr):
                    return right(fuel, {**env, right_name: v.arg})
                raise EvalFailure(f"sum case over non-injection value {v}")
        case App(fun, arg):
            fun, arg = _code(fun), _code(arg)

            def code(fuel, env):
                fuel.tick()
                f = fun(fuel, env)
                if not isinstance(f, Closure):
                    raise EvalFailure(f"application of non-function {f}")
                a = arg(fuel, env)
                body = f.rec.body
                return (body._pred or _compile(body))(fuel, f.body_env(a))
        case Inst(arg, w_left, w_right):
            arg, w_left, w_right = _code(arg), _code(w_left), _code(w_right)

            def code(fuel, env):
                for w in (w_left(fuel, env), w_right(fuel, env)):
                    if not isinstance(w, IntLit) or w.value < 0:
                        raise EvalFailure(f"bad instantiation weight {w}")
                return arg(fuel, env)
        case Bang(arg):
            code = _code(arg)
        case After(main, hook):
            main, hook = _code(main), _code(hook)

            def code(fuel, env):
                v = main(fuel, env)
                hook(fuel, env)
                return v
        case Cmp(op, lhs, rhs):
            lhs, rhs = _code(lhs), _code(rhs)

            def code(fuel, env):
                l, r = lhs(fuel, env), rhs(fuel, env)
                if not isinstance(l, IntLit) or not isinstance(r, IntLit):
                    raise EvalFailure("comparison of non-integers")
                return TRUE if eval_op(op, l.value, r.value) else FALSE
        case Arith(op, lhs, rhs):
            lhs, rhs = _code(lhs), _code(rhs)

            def code(fuel, env):
                l, r = lhs(fuel, env), rhs(fuel, env)
                if not isinstance(l, IntLit) or not isinstance(r, IntLit):
                    raise EvalFailure("arithmetic on non-integers")
                return IntLit(_arith(op, l.value, r.value))
        case _:
            message = f"no rule for {e!r}"

            def code(fuel, env):
                raise EvalFailure(message)
    e._pred = code
    return code


def _code(e: Expr):
    return e._pred or _compile(e)


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
