"""Pattern-directed matching evaluation.

Where narrowing runs an expression forward and only afterwards compares
the result with the wanted value, matching pushes the wanted pattern
backwards through the expression.  Case branches whose bodies cannot
produce the pattern are pruned before any random commitment is made, so
far less generation effort is wasted on doomed attempts.

A term is compiled once, on its first match, into one closure per node,
as narrowing compiles it (see ``narrow``): a node's code holds its
children's code and the node's fields, and decides at compile time what
the interpreter decided on every visit (whether a case is weighted,
which arm variables to mint, whether a scrutinee can be opened in place
or an arm body can clash with a pattern).  The code is kept on the node
(``Expr._match``) and refers to no node above it.  Matching reaches
narrowing, weights and sampling only through the names ``narrow``,
``narrow_weight`` and ``sample_value``, on the child node they apply to.

Only the constructors, unfold, application, the two cases,
instantiation, comparison and the two sequencing forms push the pattern
into their parts.  Every other form (a variable, a literal, an unknown,
a function, arithmetic, a failing arm) is narrowed to its value, which
is unified with the pattern once; a function value cannot match.
Values reach matching only through the environment of closed values it
runs under, as in narrowing.

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

from dataclasses import replace
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


# the forms of a body that heads_clash can rule out; any other never clashes
CLASHING = (Var, Inl, Inr, Fold, Pair, IntLit)


def match_eval(e: Expr, p: Expr, cs: ConstraintSet, ctx: RunCtx,
               env: Env = EMPTY_ENV) -> ConstraintSet:
    """Evaluate e under env demanding that its value match the pattern p;
    the store is failed when no derivation exists."""
    return (e._match or _compile(e))(p, cs, ctx, env)


def _compile(e: Expr):
    """The code of e: code(p, cs, ctx, env) matches e against p, returning
    the refined store.

    Builds the code of e's children first, except a function's body;
    the code is kept on e.  Narrowing is reached through ``narrow`` on a
    child node, or on a copy of e for a form that pushes no pattern.
    """
    match e:
        case Pair() | Inl() | Inr() | Fold():
            kind = type(e)
            subs = [_code(sub) for sub in
                    ((e.fst, e.snd) if kind is Pair else (e.arg,))]

            def code(p, cs, ctx, env):
                ctx.tick()
                opened = open_value(p, kind, cs)
                if opened is None:
                    return cs.fail()
                parts, cs = opened
                for sub, part in zip(subs, parts):
                    cs = sub(part, cs, ctx, env)
                    if cs.failed:
                        break
                return cs
        case Unfold(arg, ty):
            opener, arg = _opener(arg, Fold), _code(arg)

            def code(p, cs, ctx, env):
                ctx.tick()
                opened = opener and opener(cs, ctx, env)
                if opened is None:
                    return arg(Fold(p, ty), cs, ctx, env)
                (child,), cs = opened
                return cs.unify(child, p)
        case App(fun, arg):
            def code(p, cs, ctx, env):
                ctx.tick()
                f, cs = narrow(fun, cs, ctx, env)
                if not isinstance(f, Closure):
                    raise GenFailure(f"application of non-function {f}")
                v, cs = narrow(arg, cs, ctx, env)
                body = f.rec.body
                return (body._match or _compile(body))(p, cs, ctx,
                                                       f.body_env(v))
        case CasePair(scrut, fst_name, snd_name, body, ty):
            opener, parts = _opener(scrut, Pair), (ty.left, ty.right)
            scrut, body = _code(scrut), _code(body)

            def code(p, cs, ctx, env):
                ctx.tick()
                opened = opener and opener(cs, ctx, env)
                if opened is None:
                    cs, (u1, u2) = cs.fresh(parts)
                    fst, snd = Unknown(u1), Unknown(u2)
                    cs = scrut(Pair(fst, snd), cs, ctx, env)
                    if cs.failed:
                        return cs
                else:
                    (fst, snd), cs = opened
                return body(p, cs, ctx, {**env, snd_name: snd, fst_name: fst})
        case CaseSum(Inst()):
            code = _weighted_case(e)
        case CaseSum():
            code = _plain_case(e)
        case Inst(arg, w_left, w_right):
            arg = _code(arg)

            def code(p, cs, ctx, env):
                ctx.tick()
                cs = arg(p, cs, ctx, env)
                if cs.failed:
                    return cs
                n1, cs = narrow_weight(w_left, cs, ctx, env)
                n2, cs = narrow_weight(w_right, cs, ctx, env)
                left, right, cs = split_sum(p, cs)
                side = choose(n1, left is not None, n2, right is not None,
                              ctx)
                return open_value(p, (Inl, Inr)[side], cs)[1]
        case Cmp(op, lhs, rhs):
            code = _comparison(op, lhs, rhs)
        case After(main, hook):
            main = _code(main)

            def code(p, cs, ctx, env):
                ctx.tick()
                cs = main(p, cs, ctx, env)
                return cs if cs.failed else narrow(hook, cs, ctx, env)[1]
        case Bang(arg):
            arg = _code(arg)

            def code(p, cs, ctx, env):
                ctx.tick()
                cs = arg(p, cs, ctx, env)
                return cs if cs.failed else sample_value(p, cs, ctx)[1]
        case _:
            # no pattern to push: narrow, then unify the value once
            node = replace(e)  # a copy: the code does not refer to e

            def code(p, cs, ctx, env):
                v, cs = narrow(node, cs, ctx, env)
                if isinstance(v, Closure):
                    raise ContractViolation("cannot match a function value")
                return cs.unify(v, p)
    e._match = code
    return code


def _code(e: Expr):
    return e._match or _compile(e)


def _opener(scrut: Expr, kind: type):
    """The code that opens a scrutinee that is an unknown, or a variable
    bound to an unknown or to a `kind` value, in place by
    ``narrow.open_value``: opener(cs, ctx, env) gives (parts, cs'), or None
    for any other value.  None for a compound scrutinee, whose parts are
    not values.

    The opening takes the one step a variable or an unknown takes, and
    mints nothing when the unknown already has its node.
    """
    match scrut:
        case Var(name):
            def opener(cs, ctx, env):
                v = env.get(name)
                if not isinstance(v, (Unknown, kind)):
                    return None
                ctx.tick()
                return open_value(v, kind, cs)
        case Unknown():
            def opener(cs, ctx, env):
                ctx.tick()
                return open_value(scrut, kind, cs)
        case _:
            return None
    return opener


def _comparison(op: str, lhs: Expr, rhs: Expr):
    """A comparison matched against a boolean pattern.

    Assert the comparison on the side where the pattern is True and its
    negation where the pattern is False, and keep a satisfiable side
    (``either``): a coin is flipped only when both are, so no failure
    mass.
    """
    negated = negate_op(op)

    def code(p, cs, ctx, env):
        ctx.tick()
        l, cs = narrow(lhs, cs, ctx, env)
        r, cs = narrow(rhs, cs, ctx, env)
        if isinstance(l, IntLit) and isinstance(r, IntLit):
            return cs.unify(TRUE if eval_op(op, l.value, r.value) else FALSE,
                            p)
        lv = l if isinstance(l, Unknown) else l.value
        rv = r if isinstance(r, Unknown) else r.value
        return either(cs.unify(p, TRUE).post_cmp(op, lv, rv),
                      cs.unify(p, FALSE).post_cmp(negated, lv, rv), ctx)
    return code


def _plain_case(e: CaseSum):
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
    ty, left_name, right_name = e.ty, e.left_name, e.right_name
    left_body, right_body = e.left_body, e.right_body
    scrut, left, right = _code(e.scrut), _code(left_body), _code(right_body)
    mint = [t for t in (ty.left, ty.right) if not isinstance(t, TUnit)]
    unit_left, unit_right = (isinstance(t, TUnit) for t in (ty.left, ty.right))
    lclash, rclash = (isinstance(b, CLASHING) for b in (left_body, right_body))

    def code(p, cs, ctx, env):
        ctx.tick()
        cs0, uids = cs.fresh(mint) if mint else (cs, ())
        vl = Unit() if unit_left else Unknown(uids[0])
        vr = Unit() if unit_right else Unknown(uids[-1])
        lenv = {**env, left_name: vl}
        renv = {**env, right_name: vr}
        as_inl = (cs0.fail() if lclash and heads_clash(left_body, p, lenv)
                  else scrut(Inl(vl, ty), cs0, ctx, env))
        as_inr = (cs0.fail() if rclash and heads_clash(right_body, p, renv)
                  else scrut(Inr(vr, ty), cs0, ctx, env))
        ls = as_inl if as_inl.failed else left(p, as_inl, ctx, lenv)
        rs = as_inr if as_inr.failed else right(p, as_inr, ctx, renv)
        return either(ls, rs, ctx)
    return code


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


def _weighted_case(e: CaseSum):
    """Weighted dispatch for a case whose scrutinee carries weights.

    The instantiated scrutinee is narrowed (committing to one branch with
    the weighted coin) and only the chosen branch body is matched.  If
    that body fails and the sibling branch was viable, the sibling is
    retried once in place of a full restart.
    """
    left_name, right_name = e.left_name, e.right_name
    left, right = _code(e.left_body), _code(e.right_body)
    arg, w_left, w_right = e.scrut.arg, e.scrut.w_left, e.scrut.w_right

    def code(p, cs, ctx, env):
        ctx.tick()
        v, cs = narrow(arg, cs, ctx, env)
        n1, cs = narrow_weight(w_left, cs, ctx, env)
        n2, cs = narrow_weight(w_right, cs, ctx, env)
        if isinstance(v, Inl):
            return left(p, cs, ctx, {**env, left_name: v.arg})
        if isinstance(v, Inr):
            return right(p, cs, ctx, {**env, right_name: v.arg})
        if not isinstance(v, Unknown):
            raise GenFailure(f"case dispatch over non-sum value {v}")
        ls, rs, cs = split_sum(v, cs)

        def run(side: int) -> ConstraintSet:
            (a,), branch = open_value(v, (Inl, Inr)[side], cs)
            if side == 0:
                return left(p, branch, ctx, {**env, left_name: a})
            return right(p, branch, ctx, {**env, right_name: a})

        return backtracking_choose(n1, ls is not None, n2, rs is not None,
                                   ctx, run)
    return code


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
            ctx.record(side, 2, n2 if side else n1, n1 + n2)
            return run(side)
        marker = ctx.mark()
        ctx.record(side, 2, n2 if side else n1, n1 + n2)
        try:
            got = run(side)
            if not got.failed:
                return got
        except GenFailure:
            pass
        ctx.rollback(marker)
        ctx.local_backtracks += 1
        other = 1 - side
        ctx.record(other, 2, n2 if other else n1, n1 + n2)
        return run(other)
    if ls:
        return run(0)
    if rs:
        return run(1)
    raise GenFailure("no viable case branch")
