"""Needed-narrowing evaluation: run an expression over a constraint set.

Unknown-valued control points (case scrutinees, instantiations, primitive
comparisons) split the constraint set and commit to one branch with a
recorded random choice; ``!e`` samples the unknowns of e's value down to
concrete values.  The result of narrowing is the expression's value
together with the refined constraint set; the probability of the taken
path accumulates on the run context as an exact fraction.

A term is compiled once, on its first narrowing, into one closure per
node (Feeley and Lapalme, "Using closures for code generation", 1987).
A node's closure holds its children's closures and the node's own fields
(names, types, the operator), so a visit is one call that makes no type
test on the node; a function body is compiled on its first application.
The code is kept on the node (``Expr._narrow``) and holds no reference
back to it, only to copies of a leaf's value or a function, so a term
and its code are freed together by reference counting.  ``narrow`` runs
a node's code, compiling it first when it has none.

Expressions run under an environment of closed values: an application
runs the function's body under its closure's environment extended with
the argument, and a case arm under the current one extended with the arm
variables.  A variable takes one step and yields the value it is bound to
as it is, whatever that value's size.  Every node's code takes one step
when it starts, as each visit of the node did before compilation.

A split of an unknown reads the children of the node the store gives it
(``open_value`` and ``split_sum``, shared with matching) and mints
nothing.  A sum split writes nothing either: a choice reads which sides
are viable, and only the side it keeps is written (``open_value``).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import replace

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
    return (e._narrow or _compile(e))(cs, ctx, env)


def _compile(e: Expr):
    """The code of e: code(cs, ctx, env) narrows e, returning (value, cs').

    Builds the code of e's children first, except a function's body;
    the code is kept on e.
    """
    match e:
        case Var(name):
            def code(cs, ctx, env):
                ctx.tick()
                try:
                    return env[name], cs
                except KeyError:
                    raise GenFailure(f"unbound variable {name}") from None
        case Unit() | IntLit() | Unknown():
            value = replace(e)  # a copy: the code does not refer to e

            def code(cs, ctx, env):
                ctx.tick()
                return value, cs
        case Rec():
            rec = replace(e)

            def code(cs, ctx, env):
                ctx.tick()
                return Closure(rec, env), cs
        case MatchFail():
            def code(cs, ctx, env):
                ctx.tick()
                raise GenFailure("inexhaustive match")
        case Pair(fst, snd):
            fst, snd = _code(fst), _code(snd)

            def code(cs, ctx, env):
                ctx.tick()
                f, cs = fst(cs, ctx, env)
                s, cs = snd(cs, ctx, env)
                return Pair(f, s), cs
        case Inl(arg, ty) | Inr(arg, ty) | Fold(arg, ty):
            make, arg = type(e), _code(arg)

            def code(cs, ctx, env):
                ctx.tick()
                v, cs = arg(cs, ctx, env)
                return make(v, ty), cs
        case Unfold(arg):
            arg = _code(arg)

            def code(cs, ctx, env):
                ctx.tick()
                v, cs = arg(cs, ctx, env)
                opened = open_value(v, Fold, cs)
                if opened is None:
                    raise GenFailure(f"unfold of non-fold {v}")
                (child,), cs = opened
                return child, cs
        case App(fun, arg):
            fun, arg = _code(fun), _code(arg)

            def code(cs, ctx, env):
                ctx.tick()
                f, cs = fun(cs, ctx, env)
                if not isinstance(f, Closure):
                    raise GenFailure(f"application of non-function {f}")
                a, cs = arg(cs, ctx, env)
                body = f.rec.body
                return (body._narrow or _compile(body))(cs, ctx,
                                                        f.body_env(a))
        case CasePair(scrut, fst_name, snd_name, body):
            scrut, body = _code(scrut), _code(body)

            def code(cs, ctx, env):
                ctx.tick()
                v, cs = scrut(cs, ctx, env)
                opened = open_value(v, Pair, cs)
                if opened is None:
                    raise GenFailure(f"pair case over non-pair {v}")
                (fst, snd), cs = opened
                return body(cs, ctx, {**env, snd_name: snd, fst_name: fst})
        case CaseSum(scrut, left_name, left, right_name, right):
            scrut, left, right = _code(scrut), _code(left), _code(right)

            def code(cs, ctx, env):
                ctx.tick()
                v, cs = scrut(cs, ctx, env)
                if isinstance(v, Inl):
                    return left(cs, ctx, {**env, left_name: v.arg})
                if isinstance(v, Inr):
                    return right(cs, ctx, {**env, right_name: v.arg})
                if not isinstance(v, Unknown):
                    raise GenFailure(f"sum case over non-injection {v}")
                ls, rs, cs = split_sum(v, cs)
                side = choose(1, ls is not None, 1, rs is not None, ctx)
                (arg,), cs = open_value(v, (Inl, Inr)[side], cs)
                if side == 0:
                    return left(cs, ctx, {**env, left_name: arg})
                return right(cs, ctx, {**env, right_name: arg})
        case Inst(arg, w_left, w_right):
            arg, w_left, w_right = _code(arg), _code(w_left), _code(w_right)

            def code(cs, ctx, env):
                ctx.tick()
                v, cs = arg(cs, ctx, env)
                n1, cs = _weight(*w_left(cs, ctx, env), ctx)
                n2, cs = _weight(*w_right(cs, ctx, env), ctx)
                if isinstance(v, (Inl, Inr)):
                    return v, cs  # already decided; weights have no say
                if not isinstance(v, Unknown):
                    raise GenFailure(f"instantiation of non-sum value {v}")
                left, right, cs = split_sum(v, cs)
                side = choose(n1, left is not None, n2, right is not None,
                              ctx)
                return v, open_value(v, (Inl, Inr)[side], cs)[1]
        case Bang(arg):
            arg = _code(arg)

            def code(cs, ctx, env):
                ctx.tick()
                v, cs = arg(cs, ctx, env)
                return sample_value(v, cs, ctx)
        case After(main, hook):
            main, hook = _code(main), _code(hook)

            def code(cs, ctx, env):
                ctx.tick()
                v, cs = main(cs, ctx, env)
                return v, hook(cs, ctx, env)[1]
        case Cmp(op, lhs, rhs):
            lhs, rhs = _code(lhs), _code(rhs)

            def code(cs, ctx, env):
                ctx.tick()
                l, cs = lhs(cs, ctx, env)
                r, cs = rhs(cs, ctx, env)
                return narrow_cmp(op, l, r, cs, ctx)
        case Arith(op, lhs, rhs):
            lhs, rhs = _code(lhs), _code(rhs)

            def code(cs, ctx, env):
                ctx.tick()
                l, cs = lhs(cs, ctx, env)
                r, cs = rhs(cs, ctx, env)
                return narrow_arith(op, l, r, cs)
        case _:
            message = f"cannot narrow {e!r}"

            def code(cs, ctx, env):
                ctx.tick()
                raise ContractViolation(message)
    e._narrow = code
    return code


def _code(e: Expr):
    return e._narrow or _compile(e)


def open_value(v: Expr, kind: type, cs: ConstraintSet):
    """(parts, cs'): the parts of v as a `kind` value (``Pair``, ``Inl``,
    ``Inr`` or ``Fold``) and the store that says so, or None when v has
    another constructor.

    For an unknown, the parts are the children of the node ``expand``
    gives it; a sum node keeps only the asked side, one binding write when
    it kept both, and None is returned when that side is ruled out.  A
    node of a kind that does not fit raises ContractViolation.
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
        return (Unknown(side),), cs.keep_side(root, node, kind is Inl)
    raise ContractViolation(f"{kind.__name__} split of ?{v.uid} bound to "
                            f"{node}")


def split_sum(v: Expr, cs: ConstraintSet):
    """(left, right, cs') for the sum pattern v: its two sides, each None
    when ruled out, read from the node ``expand`` gave v in cs'.  Nothing
    else is written; the caller keeps the side it chooses (``open_value``).
    """
    if not isinstance(v, Unknown):
        return (v.arg if type(v) is Inl else None,
                v.arg if type(v) is Inr else None, cs)
    cs, _, node = cs.expand(v.uid)
    if not isinstance(node, RSum):
        raise ContractViolation(f"sum split of ?{v.uid} bound to {node}")
    return (None if node.left is None else Unknown(node.left),
            None if node.right is None else Unknown(node.right), cs)


def narrow_weight(e: Expr, cs: ConstraintSet, ctx: RunCtx,
                  env: Env = EMPTY_ENV):
    """Weights must come out as non-negative concrete integers.

    A zero weight is legal and marks a branch that gets no probability
    mass; choice sites treat such branches as unavailable.
    """
    return _weight(*narrow(e, cs, ctx, env), ctx)


def _weight(v: Expr, cs: ConstraintSet, ctx: RunCtx):
    """The integer of a narrowed weight v, sampled first if unknown."""
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
    if choose(1, yes.sat(), 1, no.sat(), ctx) == 0:
        return TRUE, yes
    return FALSE, no


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


def choose(w_left: int, left: bool, w_right: int, right: bool,
           ctx: RunCtx) -> int:
    """Commit to one of two branches, weighted when both are open; returns
    the side taken, 0 for the left.

    A branch is available when it is viable (`left`, `right`) and carries
    positive weight; with a single available branch the pick is silent.
    """
    ls, rs = left and w_left > 0, right and w_right > 0
    if ls and rs:
        side = ctx.pick_weighted(w_left, w_right)
        ctx.record(side, 2, w_right if side else w_left, w_left + w_right)
        return side
    if ls:
        return 0
    if rs:
        return 1
    if left or right:
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
                ctx.record(k, m, 1, m)
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
