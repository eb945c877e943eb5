"""Needed-narrowing evaluation: run an expression over a constraint set.

Unknown-valued control points (case scrutinees, instantiations, primitive
comparisons) split the constraint set and commit to one branch with a
recorded random choice; ``!e`` samples the unknowns of e's value down to
concrete values.  The result of narrowing is the expression's value
together with the refined constraint set; the probability of the taken
path accumulates on the run context as an exact fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .constraints import ConstraintSet, ContractViolation
from .core import (
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
    TInt,
    TProd,
    TSum,
    Unfold,
    Unit,
    Unknown,
    Var,
    subst,
)
from .intdomain import negate_op
from .trace import RunCtx


class GenFailure(Exception):
    """The current generation attempt cannot proceed (not a timeout)."""


def narrow(e: Expr, cs: ConstraintSet, ctx: RunCtx):
    """Evaluate e over cs; returns (value, refined constraint set)."""
    ctx.tick()
    if isinstance(e, (Unit, IntLit, Rec, Unknown)):
        return e, cs
    if isinstance(e, Var):
        raise GenFailure(f"unbound variable {e.name}")
    if isinstance(e, MatchFail):
        raise GenFailure("inexhaustive match")
    if isinstance(e, Pair):
        f, cs = narrow(e.fst, cs, ctx)
        s, cs = narrow(e.snd, cs, ctx)
        return Pair(f, s), cs
    if isinstance(e, Inl):
        v, cs = narrow(e.arg, cs, ctx)
        return Inl(v, e.ty), cs
    if isinstance(e, Inr):
        v, cs = narrow(e.arg, cs, ctx)
        return Inr(v, e.ty), cs
    if isinstance(e, Fold):
        v, cs = narrow(e.arg, cs, ctx)
        return Fold(v, e.ty), cs
    if isinstance(e, Unfold):
        v, cs = narrow(e.arg, cs, ctx)
        return unfold_value(v, cs)
    if isinstance(e, App):
        f, cs = narrow(e.fun, cs, ctx)
        if not isinstance(f, Rec):
            raise GenFailure(f"application of non-function {f}")
        a, cs = narrow(e.arg, cs, ctx)
        body = subst(subst(f.body, f.fun_name, f), f.arg_name, a)
        return narrow(body, cs, ctx)
    if isinstance(e, CasePair):
        v, cs = narrow(e.scrut, cs, ctx)
        if isinstance(v, Unknown):
            ty = cs.type_of(v.uid)
            if not isinstance(ty, TProd):
                raise ContractViolation(f"pair case over {ty}")
            cs, (uf, us) = cs.fresh([ty.left, ty.right])
            cs = cs.unify(v, Pair(Unknown(uf), Unknown(us)))
            if cs.failed:
                raise GenFailure("pair split failed")
            v = Pair(Unknown(uf), Unknown(us))
        if not isinstance(v, Pair):
            raise GenFailure(f"pair case over non-pair {v}")
        body = subst(subst(e.body, e.fst_name, v.fst), e.snd_name, v.snd)
        return narrow(body, cs, ctx)
    if isinstance(e, CaseSum):
        v, cs = narrow(e.scrut, cs, ctx)
        if isinstance(v, Inl):
            return narrow(subst(e.left_body, e.left_name, v.arg), cs, ctx)
        if isinstance(v, Inr):
            return narrow(subst(e.right_body, e.right_name, v.arg), cs, ctx)
        if isinstance(v, Unknown):
            ty = cs.type_of(v.uid)
            if not isinstance(ty, TSum):
                raise ContractViolation(f"sum case over {ty}")
            cs2, (ul, ur) = cs.fresh([ty.left, ty.right])
            left = cs2.unify(v, Inl(Unknown(ul), ty))
            right = cs2.unify(v, Inr(Unknown(ur), ty))
            side, cs3 = choose(1, left, 1, right, ctx)
            if side == 0:
                return narrow(subst(e.left_body, e.left_name, Unknown(ul)),
                              cs3, ctx)
            return narrow(subst(e.right_body, e.right_name, Unknown(ur)),
                          cs3, ctx)
        raise GenFailure(f"sum case over non-injection {v}")
    if isinstance(e, Inst):
        v, cs = narrow(e.arg, cs, ctx)
        n1, cs = narrow_weight(e.w_left, cs, ctx)
        n2, cs = narrow_weight(e.w_right, cs, ctx)
        if isinstance(v, (Inl, Inr)):
            return v, cs  # already decided; weights have no say
        if not isinstance(v, Unknown):
            raise GenFailure(f"instantiation of non-sum value {v}")
        ty = cs.type_of(v.uid)
        if not isinstance(ty, TSum):
            raise ContractViolation(f"instantiation over {ty}")
        cs2, (ul, ur) = cs.fresh([ty.left, ty.right])
        left = cs2.unify(v, Inl(Unknown(ul), ty))
        right = cs2.unify(v, Inr(Unknown(ur), ty))
        _, cs3 = choose(n1, left, n2, right, ctx)
        return v, cs3
    if isinstance(e, Bang):
        v, cs = narrow(e.arg, cs, ctx)
        return sample_value(v, cs, ctx)
    if isinstance(e, After):
        v, cs = narrow(e.main, cs, ctx)
        _, cs = narrow(e.hook, cs, ctx)
        return v, cs
    if isinstance(e, Cmp):
        l, cs = narrow(e.lhs, cs, ctx)
        r, cs = narrow(e.rhs, cs, ctx)
        return narrow_cmp(e.op, l, r, cs, ctx)
    if isinstance(e, Arith):
        l, cs = narrow(e.lhs, cs, ctx)
        r, cs = narrow(e.rhs, cs, ctx)
        return narrow_arith(e.op, l, r, cs)
    raise ContractViolation(f"cannot narrow {e!r}")


def unfold_value(v: Expr, cs: ConstraintSet):
    from .constraints import RFold
    from .core import TMu, unfold_mu

    if isinstance(v, Fold):
        return v.arg, cs
    if isinstance(v, Unknown):
        cs, root, b = cs.expand(v.uid)
        if isinstance(b, RFold):
            return Unknown(b.child), cs
        if b is None:
            ty = cs.utypes[root]
            if not isinstance(ty, TMu):
                raise ContractViolation(f"unfold of {ty}")
            cs2, (c,) = cs.fresh([unfold_mu(ty)])
            cs2 = cs2.unify(Unknown(root), Fold(Unknown(c), ty))
            if cs2.failed:
                raise GenFailure("unfold failed")
            return Unknown(c), cs2
        raise GenFailure(f"unfold of unknown bound to {b}")
    raise GenFailure(f"unfold of non-fold {v}")


def narrow_weight(e: Expr, cs: ConstraintSet, ctx: RunCtx):
    """Weights must come out as non-negative concrete integers.

    A zero weight is legal and marks a branch that gets no probability
    mass; choice sites treat such branches as unavailable.
    """
    v, cs = narrow(e, cs, ctx)
    if isinstance(v, Unknown):
        v, cs = sample_value(v, cs, ctx)
    if not isinstance(v, IntLit) or v.value < 0:
        raise GenFailure(f"bad instantiation weight {v}")
    return v.value, cs


def narrow_cmp(op: str, l: Expr, r: Expr, cs: ConstraintSet, ctx: RunCtx):
    from .intdomain import eval_op

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
        from .predsem import EvalFailure, _arith

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

    A drawn value whose pinning turns out inconsistent (possible because
    integer reasoning is interval-approximate) is discarded and a sibling
    drawn from the remainder; only an exhausted range fails.
    """
    ctx.tick()
    if isinstance(v, (Unit, IntLit, Rec)):
        return v, cs
    if isinstance(v, Pair):
        f, cs = sample_value(v.fst, cs, ctx)
        s, cs = sample_value(v.snd, cs, ctx)
        return Pair(f, s), cs
    if isinstance(v, Inl):
        a, cs = sample_value(v.arg, cs, ctx)
        return Inl(a, v.ty), cs
    if isinstance(v, Inr):
        a, cs = sample_value(v.arg, cs, ctx)
        return Inr(a, v.ty), cs
    if isinstance(v, Fold):
        a, cs = sample_value(v.arg, cs, ctx)
        return Fold(a, v.ty), cs
    if isinstance(v, Unknown):
        space = cs.sample(v.uid)
        n = space.count
        if n == 0:
            raise GenFailure(f"empty range for ?{v.uid}")
        live = list(range(n))
        while live:
            m = len(live)
            if m == 1:
                k = 0
            else:
                k = ctx.pick(m)
                ctx.record(k, m, Fraction(1, m))
            value, pinned = space.at(live.pop(k))
            if not pinned.failed:
                return value, pinned
        raise GenFailure(f"every value left for ?{v.uid} is inconsistent")
    raise ContractViolation(f"cannot sample {v!r}")
