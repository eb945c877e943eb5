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

Like narrowing, matching runs under an environment of closed values.  A
variable takes one step: the value it is bound to is unified with the
pattern as it is.  A pair case or unfold whose scrutinee is an unknown,
or a variable bound to an unknown or to a value of the case's kind, opens
it in place (``narrow.open_value``): the arm variables are bound to the
value's parts or to the children of the unknown's node, and an unfold
unifies its child with the pattern.  Only a compound scrutinee
expression is matched against a pattern of fresh unknowns, to which the
arm variables are then bound.  A constructor matched against a pattern
is matched part by part against the pattern's parts
(``narrow.open_value``), and an instantiation splits the pattern with
``narrow.split_sum``; neither mints unknowns.

The fresh unknowns take their types from the node: lowering gives every
case and unfold the type of its scrutinee, so matching never calls the
typechecker.
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
    Unfold,
    Unit,
    Unknown,
    Var,
    subst,  # noqa: F401 -- unused; perfbench traces calls by this name
)
from .intdomain import eval_op, negate_op
from .narrow import (GenFailure, choose, narrow, narrow_weight, open_value,
                     sample_value, split_sum)
from .trace import RunCtx

MatchResult = Optional[ConstraintSet]


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
    ctx.tick()
    if isinstance(e, Var):
        try:
            v = env[e.name]
        except KeyError:
            raise GenFailure(f"unbound variable {e.name}") from None
        if isinstance(v, Closure):
            raise ContractViolation("cannot match a function value")
        out = cs.unify(v, p)
        return out if out.sat() else None
    if isinstance(e, (Unit, IntLit, Unknown)):
        out = cs.unify(e, p)
        return out if out.sat() else None
    if isinstance(e, MatchFail):
        raise GenFailure("inexhaustive match")
    if isinstance(e, (Rec, Closure)):
        raise ContractViolation("cannot match a function value")
    if isinstance(e, (Pair, Inl, Inr, Fold)):
        opened = open_value(p, type(e), cs)
        if opened is None:
            return None
        parts, got = opened
        subs = (e.fst, e.snd) if isinstance(e, Pair) else (e.arg,)
        for sub, part in zip(subs, parts):
            got = match_eval(sub, part, got, ctx, env)
            if got is None:
                return None
        return got
    if isinstance(e, Unfold):
        opened = open_scrutinee(e.arg, Fold, cs, ctx, env)
        if opened is None:
            return match_eval(e.arg, Fold(p, e.ty), cs, ctx, env)
        (child,), cs = opened
        out = cs.unify(child, p)
        return out if out.sat() else None
    if isinstance(e, App):
        f, cs = narrow(e.fun, cs, ctx, env)
        if not isinstance(f, Closure):
            raise GenFailure(f"application of non-function {f}")
        v, cs = narrow(e.arg, cs, ctx, env)
        return match_eval(f.rec.body, p, cs, ctx, f.body_env(v))
    if isinstance(e, CasePair):
        opened = open_scrutinee(e.scrut, Pair, cs, ctx, env)
        if opened is None:
            cs, (u1, u2) = cs.fresh([e.ty.left, e.ty.right])
            fst, snd = Unknown(u1), Unknown(u2)
            cs = match_eval(e.scrut, Pair(fst, snd), cs, ctx, env)
            if cs is None:
                return None
        else:
            (fst, snd), cs = opened
        return match_eval(e.body, p, cs, ctx,
                          {**env, e.snd_name: snd, e.fst_name: fst})
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
        _, _, left, right = split_sum(p, got)
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


def open_scrutinee(scrut: Expr, kind: type, cs: ConstraintSet, ctx: RunCtx,
                   env: Env):
    """(parts, cs'): a scrutinee that is an unknown, or a variable bound to
    an unknown or to a `kind` value, opened in place by
    ``narrow.open_value``; None for any other scrutinee.

    The opening takes the one step a variable or an unknown takes, and
    mints nothing when the unknown already has its node.
    """
    if isinstance(scrut, Var):
        scrut = env.get(scrut.name)
    elif not isinstance(scrut, Unknown):
        return None  # a compound expression: its parts are not values
    if not isinstance(scrut, (Unknown, kind)):
        return None
    ctx.tick()
    return open_value(scrut, kind, cs)


def match_cmp(e: Cmp, p: Expr, cs: ConstraintSet, ctx: RunCtx,
              env: Env = EMPTY_ENV) -> MatchResult:
    """A comparison matched against a boolean pattern.

    Rather than flipping a coin for an undetermined comparison (as
    narrowing must), assert the comparison on the side where the pattern
    is True and its negation where the pattern is False, and keep every
    satisfiable side.  No randomness, no failure mass.
    """
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
    refinements are joined into one store (``combine``).  The join
    over-approximates their union, one unknown at a time: `member 1 l`
    emits `[0]` (ROADMAP item 2).  A side whose body is a value that
    cannot possibly match the pattern (say, False against True) has no
    derivation, so its scrutinee premise is never explored.
    """
    cs0, (u1, u2) = cs.fresh([e.ty.left, e.ty.right])
    lenv = {**env, e.left_name: Unknown(u1)}
    renv = {**env, e.right_name: Unknown(u2)}
    as_inl = None if heads_clash(e.left_body, p, lenv) else \
        match_eval(e.scrut, Inl(Unknown(u1), e.ty), cs0, ctx, env)
    as_inr = None if heads_clash(e.right_body, p, renv) else \
        match_eval(e.scrut, Inr(Unknown(u2), e.ty), cs0, ctx, env)
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
    vl, vr, left, right = split_sum(v, cs)

    def run(side: int, branch: ConstraintSet) -> MatchResult:
        if side == 0:
            return match_eval(e.left_body, p, branch, ctx,
                              {**env, e.left_name: vl})
        return match_eval(e.right_body, p, branch, ctx,
                          {**env, e.right_name: vr})

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
