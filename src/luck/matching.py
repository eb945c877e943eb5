"""Pattern-directed matching evaluation.

Where narrowing runs an expression forward and only afterwards compares
the result with the wanted value, matching pushes the wanted pattern
backwards through the expression.  Case branches whose bodies cannot
produce the pattern are pruned before any random commitment is made, so
far less generation effort is wasted on doomed attempts.

match_eval returns either a refined constraint set (the pattern can still
be realized; None means the match is semantically impossible down this
path).  A None outcome still carries meaning: its accumulated probability
is the weight of this failing derivation.  Hard errors (empty sample
spaces, bad weights) raise GenFailure instead and abort the attempt.

Like narrowing, matching runs under an environment of closed values; a
case arm's variables are bound to the unknowns its scrutinee matched.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .constraints import ConstraintSet, ContractViolation
from .constraints import rename as rename_unknowns
from .constraints import union as union_sets
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
    TSum,
    Type,
    Unfold,
    Unit,
    Unknown,
    Var,
    subst,  # noqa: F401 -- unused; perfbench traces calls by this name
    typecheck,
    unfold_mu,
)
from .intdomain import negate_op
from .narrow import (GenFailure, choose, narrow, narrow_weight, sample_value,
                     split_sum)
from .trace import RunCtx

MatchResult = Optional[ConstraintSet]


def expr_type(e: Expr, cs: ConstraintSet, env: Env = EMPTY_ENV) -> Type:
    """The type of an expression over the store's unknowns, its free
    variables typed from the values env binds them to."""
    return typecheck(e, env, cs.utypes)


def heads_clash(body: Expr, p: Expr, env: Env = EMPTY_ENV) -> bool:
    """Whether a branch body can be ruled out against a pattern statically.

    True only when both sides are built from constructors that disagree,
    so no store could ever reconcile them; anything that still needs
    evaluation or unification reports False.  Variables of body are
    looked up in env.
    """
    if isinstance(body, Var):
        body = env.get(body.name, body)
    if isinstance(body, (Inl, Inr)) and isinstance(p, (Inl, Inr)):
        return type(body) is not type(p) or heads_clash(body.arg, p.arg, env)
    if isinstance(body, Fold) and isinstance(p, Fold):
        return heads_clash(body.arg, p.arg, env)
    if isinstance(body, Pair) and isinstance(p, Pair):
        return (heads_clash(body.fst, p.fst, env)
                or heads_clash(body.snd, p.snd, env))
    if isinstance(body, IntLit) and isinstance(p, IntLit):
        return body.value != p.value
    return False


def match_eval(e: Expr, p: Expr, cs: ConstraintSet, ctx: RunCtx,
               env: Env = EMPTY_ENV) -> MatchResult:
    """Evaluate e under env demanding that its value match the pattern p."""
    if isinstance(e, Var):
        e = env.get(e.name, e)
    ctx.tick()
    if isinstance(e, (Unit, IntLit, Unknown)):
        out = cs.unify(e, p)
        return out if out.sat() else None
    if isinstance(e, Var):
        raise GenFailure(f"unbound variable {e.name}")
    if isinstance(e, MatchFail):
        raise GenFailure("inexhaustive match")
    if isinstance(e, (Rec, Closure)):
        raise ContractViolation("cannot match a function value")
    if isinstance(e, Pair):
        t1 = expr_type(e.fst, cs, env)
        t2 = expr_type(e.snd, cs, env)
        cs1, (u1, u2) = cs.fresh([t1, t2])
        cs0 = cs1.unify(Pair(Unknown(u1), Unknown(u2)), p)
        if not cs0.sat():
            return None
        first = match_eval(e.fst, Unknown(u1), cs0, ctx, env)
        if first is None:
            return None
        return match_eval(e.snd, Unknown(u2), first, ctx, env)
    if isinstance(e, (Inl, Inr, Fold)):
        arg_ty = (e.ty.left if isinstance(e, Inl) else
                  e.ty.right if isinstance(e, Inr) else unfold_mu(e.ty))
        cs1, (u,) = cs.fresh([arg_ty])
        cs2 = cs1.unify(type(e)(Unknown(u), e.ty), p)
        if not cs2.sat():
            return None
        return match_eval(e.arg, Unknown(u), cs2, ctx, env)
    if isinstance(e, Unfold):
        mu = expr_type(e.arg, cs, env)
        return match_eval(e.arg, Fold(p, mu), cs, ctx, env)
    if isinstance(e, App):
        f, cs = narrow(e.fun, cs, ctx, env)
        if not isinstance(f, Closure):
            raise GenFailure(f"application of non-function {f}")
        v, cs = narrow(e.arg, cs, ctx, env)
        return match_eval(f.rec.body, p, cs, ctx, f.body_env(v))
    if isinstance(e, CasePair):
        ty = expr_type(e.scrut, cs, env)
        cs0, (u1, u2) = cs.fresh([ty.left, ty.right])
        scrut = match_eval(e.scrut, Pair(Unknown(u1), Unknown(u2)), cs0, ctx,
                           env)
        if scrut is None:
            return None
        return match_eval(e.body, p, scrut, ctx,
                          {**env, e.snd_name: Unknown(u2),
                           e.fst_name: Unknown(u1)})
    if isinstance(e, CaseSum):
        if isinstance(e.scrut, Inst):
            return match_case_narrowed(e, p, cs, ctx, env)
        return match_case_plain(e, p, cs, ctx, env)
    if isinstance(e, Inst):
        got = match_eval(e.arg, p, cs, ctx, env)
        if got is None:
            return None
        n1, got = narrow_weight(e.w_left, got, ctx, env)
        n2, got = narrow_weight(e.w_right, got, ctx, env)
        ty = expr_type(e.arg, cs, env)
        cs0, (u1, u2) = got.fresh([ty.left, ty.right])
        left = cs0.unify(p, Inl(Unknown(u1), ty))
        right = cs0.unify(p, Inr(Unknown(u2), ty))
        return choose(n1, left, n2, right, ctx)[1]
    if isinstance(e, Cmp):
        return match_cmp(e, p, cs, ctx, env)
    if isinstance(e, Arith):
        v, cs = narrow(e, cs, ctx, env)
        out = cs.unify(v, p)
        return out if out.sat() else None
    if isinstance(e, After):
        got = match_eval(e.main, p, cs, ctx, env)
        if got is None:
            return None
        _, out = narrow(e.hook, got, ctx, env)
        return out
    if isinstance(e, Bang):
        got = match_eval(e.arg, p, cs, ctx, env)
        if got is None:
            return None
        _, out = sample_value(p, got, ctx)
        return out
    raise ContractViolation(f"cannot match {e!r}")


def match_cmp(e: Cmp, p: Expr, cs: ConstraintSet, ctx: RunCtx,
              env: Env = EMPTY_ENV) -> MatchResult:
    """A comparison matched against a boolean pattern.

    Rather than flipping a coin for an undetermined comparison (as
    narrowing must), assert the comparison on the side where the pattern
    is True and its negation where the pattern is False, and keep every
    satisfiable side.  No randomness, no failure mass.
    """
    from .intdomain import eval_op

    l, cs = narrow(e.lhs, cs, ctx, env)
    r, cs = narrow(e.rhs, cs, ctx, env)
    if isinstance(l, IntLit) and isinstance(r, IntLit):
        res = TRUE if eval_op(e.op, l.value, r.value) else FALSE
        out = cs.unify(res, p)
        return out if out.sat() else None
    lv = l if isinstance(l, Unknown) else l.value
    rv = r if isinstance(r, Unknown) else r.value
    yes = cs.unify(p, TRUE).post_cmp(e.op, lv, rv)
    no = cs.unify(p, FALSE).post_cmp(negate_op(e.op), lv, rv)
    return combine(cs,
                   yes if yes.sat() else None,
                   no if no.sat() else None)


def match_case_plain(e: CaseSum, p: Expr, cs: ConstraintSet, ctx: RunCtx,
                     env: Env = EMPTY_ENV) -> MatchResult:
    """The lookahead case: try the scrutinee against both injections.

    Both attempts start from the same store; if both are viable, both
    branch bodies are evaluated against the pattern and the surviving
    refinements are merged into one store denoting their union.  A side
    whose body is a value that cannot possibly match the pattern (say,
    False against True) has no derivation, so its scrutinee premise is
    never explored.
    """
    ty = expr_type(e.scrut, cs, env)
    if not isinstance(ty, TSum):
        raise ContractViolation(f"sum case over {ty}")
    cs0, (u1, u2) = cs.fresh([ty.left, ty.right])
    lenv = {**env, e.left_name: Unknown(u1)}
    renv = {**env, e.right_name: Unknown(u2)}
    as_inl = None if heads_clash(e.left_body, p, lenv) else \
        match_eval(e.scrut, Inl(Unknown(u1), ty), cs0, ctx, env)
    as_inr = None if heads_clash(e.right_body, p, renv) else \
        match_eval(e.scrut, Inr(Unknown(u2), ty), cs0, ctx, env)
    if as_inl is None and as_inr is None:
        return None
    if as_inr is None:
        return match_eval(e.left_body, p, as_inl, ctx, lenv)
    if as_inl is None:
        return match_eval(e.right_body, p, as_inr, ctx, renv)
    left = match_eval(e.left_body, p, as_inl, ctx, lenv)
    right = match_eval(e.right_body, p, as_inr, ctx, renv)
    return combine(cs0, left, right)


def match_case_narrowed(e: CaseSum, p: Expr, cs: ConstraintSet, ctx: RunCtx,
                        env: Env = EMPTY_ENV) -> MatchResult:
    """Weighted dispatch for a case whose scrutinee carries weights.

    The instantiated scrutinee is narrowed (committing to one branch with
    the weighted coin) and only the chosen branch body is matched.  If
    that body fails and the sibling branch was viable, the sibling is
    retried once in place of a full restart.
    """
    inst = e.scrut
    v, cs = narrow(inst.arg, cs, ctx, env)
    n1, cs = narrow_weight(inst.w_left, cs, ctx, env)
    n2, cs = narrow_weight(inst.w_right, cs, ctx, env)
    if isinstance(v, Inl):
        return match_eval(e.left_body, p, cs, ctx,
                          {**env, e.left_name: v.arg})
    if isinstance(v, Inr):
        return match_eval(e.right_body, p, cs, ctx,
                          {**env, e.right_name: v.arg})
    if not isinstance(v, Unknown):
        raise GenFailure(f"case dispatch over non-sum value {v}")
    ul, ur, left, right = split_sum(v, cs)

    def run(side: int, branch: ConstraintSet) -> MatchResult:
        if side == 0:
            return match_eval(e.left_body, p, branch, ctx,
                              {**env, e.left_name: Unknown(ul)})
        return match_eval(e.right_body, p, branch, ctx,
                          {**env, e.right_name: Unknown(ur)})

    return backtracking_choose(n1, left, n2, right, ctx, run)


def backtracking_choose(n1: int, left: ConstraintSet, n2: int,
                        right: ConstraintSet, ctx: RunCtx,
                        run: Callable[[int, ConstraintSet], MatchResult],
                        ) -> MatchResult:
    """Weighted commitment whose continuation may locally fail.

    When both sides are viable and the chosen side's continuation comes
    back empty, the sibling is tried once from the rollback point; the
    abandoned choices disappear from the trace but are counted on the
    run context.  Zero-weight sides are never entered.
    """
    ls, rs = left.sat() and n1 > 0, right.sat() and n2 > 0
    if ls and rs:
        side = ctx.pick_weighted(n1, n2)
        if not ctx.local_backtracking:
            ctx.record(side, 2, Fraction(n1 if side == 0 else n2, n1 + n2))
            return run(side, left if side == 0 else right)
        marker = ctx.mark()
        ctx.record(side, 2, Fraction(n1 if side == 0 else n2, n1 + n2))
        try:
            got = run(side, left if side == 0 else right)
        except GenFailure:
            got = None
        if got is not None:
            return got
        ctx.rollback(marker)
        ctx.local_backtracks += 1
        other = 1 - side
        ctx.record(other, 2, Fraction(n1 if other == 0 else n2, n1 + n2))
        return run(other, left if other == 0 else right)
    if ls:
        return run(0, left)
    if rs:
        return run(1, right)
    raise GenFailure("no viable case branch")


def combine(base: ConstraintSet, a: MatchResult, b: MatchResult) -> MatchResult:
    """Merge the outcomes of two branch derivations rooted at base.

    Both derivations mint fresh unknowns from the same counter, so the
    right store's newcomers are renamed out of the way before the union.
    """
    if a is None:
        return b
    if b is None:
        return a
    created = a.created_since(base)
    renamed, _ = rename_unknowns(created, b, floor=a.next_fresh)
    return union_sets(a, renamed)
