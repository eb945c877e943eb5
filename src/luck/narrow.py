"""Needed-narrowing evaluation: run an expression over a constraint set.

Unknown-valued control points (case scrutinees, instantiations, primitive
comparisons) split the constraint set and commit to one branch with a
recorded random choice; ``!e`` samples the unknowns of e's value down to
concrete values.  The result of narrowing is the expression's value
together with the refined constraint set; the probability of the taken
path accumulates on the run context as an exact fraction.

Expressions run under an environment of closed values: an application
runs the function's body under its closure's environment extended with
the argument, and a case arm under the current one extended with the arm
variables.  A variable takes one step and yields the value it is bound to
as it is, whatever that value's size.

A split of an unknown reads the children of the node the store gives it
(``open_value`` and ``split_sum``, shared with matching); no split mints
unknowns of its own.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

from .constraints import ConstraintSet, ContractViolation, RFold, RPair, RSum
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
from .intdomain import eval_op, negate_op
from .predsem import EvalFailure, _arith
from .trace import RunCtx


class GenFailure(Exception):
    """The current generation attempt cannot proceed (not a timeout)."""


def narrow(e: Expr, cs: ConstraintSet, ctx: RunCtx, env: Env = EMPTY_ENV):
    """Evaluate e over cs under env; returns (value, refined store)."""
    ctx.tick()
    if isinstance(e, Var):
        try:
            return env[e.name], cs
        except KeyError:
            raise GenFailure(f"unbound variable {e.name}") from None
    if isinstance(e, (Unit, IntLit, Unknown, Closure)):
        return e, cs
    if isinstance(e, Rec):
        return Closure(e, env), cs
    if isinstance(e, MatchFail):
        raise GenFailure("inexhaustive match")
    if isinstance(e, Pair):
        f, cs = narrow(e.fst, cs, ctx, env)
        s, cs = narrow(e.snd, cs, ctx, env)
        return Pair(f, s), cs
    if isinstance(e, (Inl, Inr, Fold)):
        v, cs = narrow(e.arg, cs, ctx, env)
        return type(e)(v, e.ty), cs
    if isinstance(e, Unfold):
        v, cs = narrow(e.arg, cs, ctx, env)
        opened = open_value(v, Fold, cs)
        if opened is None:
            raise GenFailure(f"unfold of non-fold {v}")
        (arg,), cs = opened
        return arg, cs
    if isinstance(e, App):
        f, cs = narrow(e.fun, cs, ctx, env)
        if not isinstance(f, Closure):
            raise GenFailure(f"application of non-function {f}")
        a, cs = narrow(e.arg, cs, ctx, env)
        return narrow(f.rec.body, cs, ctx, f.body_env(a))
    if isinstance(e, CasePair):
        v, cs = narrow(e.scrut, cs, ctx, env)
        opened = open_value(v, Pair, cs)
        if opened is None:
            raise GenFailure(f"pair case over non-pair {v}")
        (fst, snd), cs = opened
        return narrow(e.body, cs, ctx,
                      {**env, e.snd_name: snd, e.fst_name: fst})
    if isinstance(e, CaseSum):
        v, cs = narrow(e.scrut, cs, ctx, env)
        if isinstance(v, Inl):
            return narrow(e.left_body, cs, ctx, {**env, e.left_name: v.arg})
        if isinstance(v, Inr):
            return narrow(e.right_body, cs, ctx,
                          {**env, e.right_name: v.arg})
        if isinstance(v, Unknown):
            vl, vr, left, right = split_sum(v, cs)
            side, cs3 = choose(1, left, 1, right, ctx)
            if side == 0:
                return narrow(e.left_body, cs3, ctx, {**env, e.left_name: vl})
            return narrow(e.right_body, cs3, ctx, {**env, e.right_name: vr})
        raise GenFailure(f"sum case over non-injection {v}")
    if isinstance(e, Inst):
        v, cs = narrow(e.arg, cs, ctx, env)
        n1, cs = narrow_weight(e.w_left, cs, ctx, env)
        n2, cs = narrow_weight(e.w_right, cs, ctx, env)
        if isinstance(v, (Inl, Inr)):
            return v, cs  # already decided; weights have no say
        if not isinstance(v, Unknown):
            raise GenFailure(f"instantiation of non-sum value {v}")
        _, _, left, right = split_sum(v, cs)
        return v, choose(n1, left, n2, right, ctx)[1]
    if isinstance(e, Bang):
        v, cs = narrow(e.arg, cs, ctx, env)
        return sample_value(v, cs, ctx)
    if isinstance(e, After):
        v, cs = narrow(e.main, cs, ctx, env)
        _, cs = narrow(e.hook, cs, ctx, env)
        return v, cs
    if isinstance(e, Cmp):
        l, cs = narrow(e.lhs, cs, ctx, env)
        r, cs = narrow(e.rhs, cs, ctx, env)
        return narrow_cmp(e.op, l, r, cs, ctx)
    if isinstance(e, Arith):
        l, cs = narrow(e.lhs, cs, ctx, env)
        r, cs = narrow(e.rhs, cs, ctx, env)
        return narrow_arith(e.op, l, r, cs)
    raise ContractViolation(f"cannot narrow {e!r}")


def open_value(v: Expr, kind: type, cs: ConstraintSet):
    """(parts, cs'): the parts of v as a `kind` value (``Pair``, ``Inl``,
    ``Inr`` or ``Fold``) and the store that says so, or None when v has
    another constructor.

    For an unknown, the parts are the children of the node ``expand``
    gives it; a sum node is narrowed to the asked side with ``unify``, and
    None is returned when that side is ruled out.  A node of a kind that
    does not fit raises ContractViolation.
    """
    if not isinstance(v, Unknown):
        if type(v) is not kind:
            return None
        return ((v.fst, v.snd) if kind is Pair else (v.arg,)), cs
    cs, root, node = cs.expand(v.uid)
    if kind is Pair and isinstance(node, RPair):
        return (Unknown(node.fst), Unknown(node.snd)), cs
    if kind is Fold and isinstance(node, RFold):
        return (Unknown(node.child),), cs
    if kind in (Inl, Inr) and isinstance(node, RSum):
        side = node.left if kind is Inl else node.right
        if side is None:
            return None
        return (Unknown(side),), cs.unify(v, kind(Unknown(side),
                                                  cs.utypes[root]))
    raise ContractViolation(f"{kind.__name__} split of ?{v.uid} bound to "
                            f"{node}")


def split_sum(v: Expr, cs: ConstraintSet):
    """(left, right, as_left, as_right) for the sum pattern v: its two sides,
    each None when ruled out, and the refinements of cs in which v is the
    left and the right injection (failed for a ruled-out side)."""
    if isinstance(v, Unknown):
        cs = cs.expand(v.uid)[0]  # both sides read one node
    sides = [open_value(v, kind, cs) or ((None,), cs.fail())
             for kind in (Inl, Inr)]
    ((left,), as_left), ((right,), as_right) = sides
    return left, right, as_left, as_right


def narrow_weight(e: Expr, cs: ConstraintSet, ctx: RunCtx,
                  env: Env = EMPTY_ENV):
    """Weights must come out as non-negative concrete integers.

    A zero weight is legal and marks a branch that gets no probability
    mass; choice sites treat such branches as unavailable.
    """
    v, cs = narrow(e, cs, ctx, env)
    if isinstance(v, Unknown):
        v, cs = sample_value(v, cs, ctx)
    if not isinstance(v, IntLit) or v.value < 0:
        raise GenFailure(f"bad instantiation weight {v}")
    return v.value, cs


def narrow_cmp(op: str, l: Expr, r: Expr, cs: ConstraintSet, ctx: RunCtx):
    if isinstance(l, IntLit) and isinstance(r, IntLit):
        return (TRUE if eval_op(op, l.value, r.value) else FALSE), cs
    lv = l if isinstance(l, Unknown) else l.value
    rv = r if isinstance(r, Unknown) else r.value
    yes = cs.post_cmp(op, lv, rv)
    no = cs.post_cmp(negate_op(op), lv, rv)
    side, cs2 = choose(1, yes, 1, no, ctx)
    return (TRUE if side == 0 else FALSE), cs2


def narrow_arith(op: str, l: Expr, r: Expr, cs: ConstraintSet):
    if isinstance(l, IntLit) and isinstance(r, IntLit):
        try:
            return IntLit(_arith(op, l.value, r.value)), cs
        except EvalFailure as ex:
            raise GenFailure(str(ex)) from None
    # one symbolic operand: only +/- a constant is expressible
    if isinstance(l, Unknown) and isinstance(r, IntLit) and op in ("+", "-"):
        off = r.value if op == "+" else -r.value
        cs2, w = cs.fresh_shifted(l.uid, off)
        if cs2.failed:
            raise GenFailure("arithmetic out of bounds")
        return Unknown(w), cs2
    if isinstance(l, IntLit) and isinstance(r, Unknown) and op == "+":
        cs2, w = cs.fresh_shifted(r.uid, l.value)
        if cs2.failed:
            raise GenFailure("arithmetic out of bounds")
        return Unknown(w), cs2
    raise ContractViolation(f"symbolic arithmetic {l} {op} {r} unsupported")


def choose(w_left: int, left: ConstraintSet, w_right: int,
           right: ConstraintSet, ctx: RunCtx):
    """Commit to one of two refinements, weighted when both are open.

    A branch is available when it is satisfiable and carries positive
    weight; with a single available branch the pick is silent.
    """
    ls, rs = left.sat() and w_left > 0, right.sat() and w_right > 0
    if ls and rs:
        side = ctx.pick_weighted(w_left, w_right)
        q = Fraction(w_left if side == 0 else w_right, w_left + w_right)
        ctx.record(side, 2, q)
        return side, (left if side == 0 else right)
    if ls:
        return 0, left
    if rs:
        return 1, right
    if left.sat() or right.sat():
        raise GenFailure("no weight mass on the satisfiable branches")
    raise GenFailure("both branches unsatisfiable")


def sample_value(v: Expr, cs: ConstraintSet, ctx: RunCtx):
    """Pin every unknown inside v to concrete values, uniformly at random.

    Each draw is uniform over the whole range of the unknown.  A drawn
    value whose pin fails, or leaves a store without a solution (possible
    because integer reasoning is interval-approximate), is rejected and a
    sibling drawn from the remainder, so the value returned is uniform
    over the kept values; only an exhausted range fails.  Only the
    rejected indices are kept, so memory does not grow with the range.
    """
    ctx.tick()
    if isinstance(v, (Unit, IntLit, Closure)):
        return v, cs
    if isinstance(v, Pair):
        f, cs = sample_value(v.fst, cs, ctx)
        s, cs = sample_value(v.snd, cs, ctx)
        return Pair(f, s), cs
    if isinstance(v, (Inl, Inr, Fold)):
        a, cs = sample_value(v.arg, cs, ctx)
        return type(v)(a, v.ty), cs
    if isinstance(v, Unknown):
        space = cs.sample(v.uid)
        n = space.count
        if n == 0:
            raise GenFailure(f"empty range for ?{v.uid}")
        excluded: list[int] = []  # sorted
        while len(excluded) < n:
            m = n - len(excluded)
            if m == 1:
                k = 0
            else:
                k = ctx.pick(m)
                ctx.record(k, m, Fraction(1, m))
            i = k  # the k-th index not excluded
            for x in excluded:
                if x > i:
                    break
                i += 1
            value, pinned = space.at(i)
            if not pinned.failed:
                return value, pinned
            insort(excluded, i)
        raise GenFailure(f"every value left for ?{v.uid} is inconsistent")
    raise ContractViolation(f"cannot sample {v!r}")
