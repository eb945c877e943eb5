"""Pattern-directed matching evaluation.

Where narrowing runs an expression forward and only afterwards compares
the result with the wanted value, matching pushes the wanted pattern
backwards through the expression.  Case branches whose bodies cannot
produce the pattern are pruned before any random commitment is made, so
far less generation effort is wasted on doomed attempts.

Only the forms in ``PUSHES`` push the pattern into their parts: the
constructors, unfold, application, the two cases, instantiation,
comparison and the two sequencing forms.  Every other form (a variable,
a literal, an unknown, a function, arithmetic, a failing arm) is
narrowed to its value, which is unified with the pattern once; a
function value cannot match.  Values reach matching only through the
environment of closed values it runs under, as in narrowing.

match_eval returns a refined constraint set, failed when no derivation
of the pattern exists down this path; the probability accumulated on
the run context is then the weight of that failing derivation.  Hard
errors (empty sample spaces, bad weights) raise GenFailure instead and
abort the attempt.

A pair case or unfold whose scrutinee is an unknown, or a variable bound
to an unknown or to a value of the case's kind, opens it in place
(``narrow.open_value``): the arm variables are bound to the value's
parts or to the children of the unknown's node, and an unfold unifies
its child with the pattern.  Only a compound scrutinee expression is
matched against a pattern of fresh unknowns, to which the arm variables
are then bound.  A constructor matched against a pattern is matched part
by part against the pattern's parts (``narrow.open_value``), and an
instantiation splits the pattern with ``narrow.split_sum``; neither
mints unknowns.  A plain sum case binds an arm variable of unit type to
the unit value and mints only the others.  A weighted case builds the
store of the side it chooses, and its sibling's only when a retry runs.
A plain sum case, and a comparison matched against an open boolean, run
both sides and keep one store (``either``): the only live one, or one
picked by a recorded 1:1 choice.  Stores are never joined, so the kept
store is exact and every valuation it leads to satisfies the predicate.

The fresh unknowns take their types from the node: lowering gives every
case and unfold the type of its scrutinee, so matching never calls the
typechecker.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .constraints import ConstraintSet, ContractViolation
from .core import (
    EMPTY_ENV,
    FALSE,
    TRUE,
    After,
    App,
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
    Pair,
    TUnit,
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

# unused; perfbench traces calls by these names
union_sets = rename_unknowns = None


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


# the forms that push the pattern into their parts
PUSHES = (Pair, Inl, Inr, Fold, Unfold, App, CasePair, CaseSum, Inst, Cmp,
          After, Bang)


def match_eval(e: Expr, p: Expr, cs: ConstraintSet, ctx: RunCtx,
               env: Env = EMPTY_ENV) -> ConstraintSet:
    """Evaluate e under env demanding that its value match the pattern p;
    the store is failed when no derivation exists."""
    if not isinstance(e, PUSHES):
        v, cs = narrow(e, cs, ctx, env)
        if isinstance(v, Closure):
            raise ContractViolation("cannot match a function value")
        return cs.unify(v, p)
    ctx.tick()
    if isinstance(e, (Pair, Inl, Inr, Fold)):
        opened = open_value(p, type(e), cs)
        if opened is None:
            return cs.fail()
        parts, cs = opened
        subs = (e.fst, e.snd) if isinstance(e, Pair) else (e.arg,)
        for sub, part in zip(subs, parts):
            cs = match_eval(sub, part, cs, ctx, env)
            if cs.failed:
                break
        return cs
    if isinstance(e, Unfold):
        opened = open_scrutinee(e.arg, Fold, cs, ctx, env)
        if opened is None:
            return match_eval(e.arg, Fold(p, e.ty), cs, ctx, env)
        (child,), cs = opened
        return cs.unify(child, p)
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
            if cs.failed:
                return cs
        else:
            (fst, snd), cs = opened
        return match_eval(e.body, p, cs, ctx,
                          {**env, e.snd_name: snd, e.fst_name: fst})
    if isinstance(e, CaseSum):
        if isinstance(e.scrut, Inst):
            return match_case_narrowed(e, p, cs, ctx, env)
        return match_case_plain(e, p, cs, ctx, env)
    if isinstance(e, Inst):
        cs = match_eval(e.arg, p, cs, ctx, env)
        if cs.failed:
            return cs
        n1, cs = narrow_weight(e.w_left, cs, ctx, env)
        n2, cs = narrow_weight(e.w_right, cs, ctx, env)
        left, right, cs = split_sum(p, cs)
        side = choose(n1, left is not None, n2, right is not None, ctx)
        return open_value(p, (Inl, Inr)[side], cs)[1]
    if isinstance(e, Cmp):
        return match_cmp(e, p, cs, ctx, env)
    if isinstance(e, After):
        cs = match_eval(e.main, p, cs, ctx, env)
        return cs if cs.failed else narrow(e.hook, cs, ctx, env)[1]
    cs = match_eval(e.arg, p, cs, ctx, env)  # Bang, the last of PUSHES
    return cs if cs.failed else sample_value(p, cs, ctx)[1]


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
              env: Env = EMPTY_ENV) -> ConstraintSet:
    """A comparison matched against a boolean pattern.

    Assert the comparison on the side where the pattern is True and its
    negation where the pattern is False, and keep a satisfiable side
    (``either``): a coin is flipped only when both are, so no failure
    mass.
    """
    l, cs = narrow(e.lhs, cs, ctx, env)
    r, cs = narrow(e.rhs, cs, ctx, env)
    if isinstance(l, IntLit) and isinstance(r, IntLit):
        return cs.unify(TRUE if eval_op(e.op, l.value, r.value) else FALSE, p)
    lv = l if isinstance(l, Unknown) else l.value
    rv = r if isinstance(r, Unknown) else r.value
    return either(cs.unify(p, TRUE).post_cmp(e.op, lv, rv),
                  cs.unify(p, FALSE).post_cmp(negate_op(e.op), lv, rv), ctx)


def match_case_plain(e: CaseSum, p: Expr, cs: ConstraintSet, ctx: RunCtx,
                     env: Env = EMPTY_ENV) -> ConstraintSet:
    """The lookahead case: try the scrutinee against both injections.

    Both attempts start from the same store, and each side that survives
    its scrutinee match has its branch body matched against the pattern.
    Of the surviving refinements one is kept (``either``), and the store
    is failed when neither side survives.  A side whose body is a value
    that cannot possibly match the pattern (say, False against True) has
    no derivation, so its scrutinee premise is never explored.  An arm
    variable of unit type is bound to the unit value; only the others are
    minted.
    """
    sides = (e.ty.left, e.ty.right)
    mint = [t for t in sides if not isinstance(t, TUnit)]
    cs0, uids = cs.fresh(mint) if mint else (cs, [])
    minted = iter(uids)
    vl, vr = (Unit() if isinstance(t, TUnit) else Unknown(next(minted))
              for t in sides)
    lenv = {**env, e.left_name: vl}
    renv = {**env, e.right_name: vr}
    as_inl = cs0.fail() if heads_clash(e.left_body, p, lenv) else \
        match_eval(e.scrut, Inl(vl, e.ty), cs0, ctx, env)
    as_inr = cs0.fail() if heads_clash(e.right_body, p, renv) else \
        match_eval(e.scrut, Inr(vr, e.ty), cs0, ctx, env)
    left = as_inl if as_inl.failed else \
        match_eval(e.left_body, p, as_inl, ctx, lenv)
    right = as_inr if as_inr.failed else \
        match_eval(e.right_body, p, as_inr, ctx, renv)
    return either(left, right, ctx)


def either(a: ConstraintSet, b: ConstraintSet, ctx: RunCtx) -> ConstraintSet:
    """The outcome of one of two derivations: the live one, or, when both
    are live, one picked by a recorded 1:1 choice.

    Each store is exact, so the kept one denotes only valuations its
    derivation proves, and both keep positive mass.  A failed store is
    returned when both are.
    """
    if a.failed:
        return b
    if b.failed:
        return a
    return (a, b)[choose(1, True, 1, True, ctx)]


def match_case_narrowed(e: CaseSum, p: Expr, cs: ConstraintSet, ctx: RunCtx,
                        env: Env = EMPTY_ENV) -> ConstraintSet:
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
    left, right, cs = split_sum(v, cs)

    def run(side: int) -> ConstraintSet:
        (arg,), branch = open_value(v, (Inl, Inr)[side], cs)
        if side == 0:
            return match_eval(e.left_body, p, branch, ctx,
                              {**env, e.left_name: arg})
        return match_eval(e.right_body, p, branch, ctx,
                          {**env, e.right_name: arg})

    return backtracking_choose(n1, left is not None, n2, right is not None,
                               ctx, run)


def backtracking_choose(n1: int, left: bool, n2: int, right: bool,
                        ctx: RunCtx, run: Callable[[int], ConstraintSet],
                        ) -> ConstraintSet:
    """Weighted commitment whose continuation may locally fail.

    `run(side)` builds the store of a viable side and runs its
    continuation.  When both sides are viable and the chosen side's run
    comes back failed, the sibling is run once from the rollback point;
    the abandoned choices disappear from the trace but are counted on the
    run context.  Zero-weight sides are never entered.
    """
    ls, rs = left and n1 > 0, right and n2 > 0
    if ls and rs:
        side = ctx.pick_weighted(n1, n2)
        if not ctx.local_backtracking:
            ctx.record(side, 2, Fraction(n1 if side == 0 else n2, n1 + n2))
            return run(side)
        marker = ctx.mark()
        ctx.record(side, 2, Fraction(n1 if side == 0 else n2, n1 + n2))
        try:
            got = run(side)
            if not got.failed:
                return got
        except GenFailure:
            pass
        ctx.rollback(marker)
        ctx.local_backtracks += 1
        other = 1 - side
        ctx.record(other, 2, Fraction(n1 if other == 0 else n2, n1 + n2))
        return run(other)
    if ls:
        return run(0)
    if rs:
        return run(1)
    raise GenFailure("no viable case branch")
