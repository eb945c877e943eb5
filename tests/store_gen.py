"""Randomized small constraint stores, built only through the public API.

Used by both the unit tests and the acceptance suite: every generated
store keeps its queried unknowns' joint denotation at or below 64 values
so the brute-force denotation stays cheap.
"""

import random

from luck.constraints import ConstraintSet, union
from luck.core import (
    BOOL,
    Expr,
    Fold,
    Inl,
    Inr,
    IntLit,
    Pair,
    TInt,
    TMu,
    TProd,
    TSum,
    TUnit,
    TVar,
    Type,
    Unit,
    Unknown,
    unfold_mu,
)

SMALL_INT_LO = 0
SMALL_INT_HI = 3

UNIT_LIST = TMu("X", TSum(TUnit(), TVar("X")))

TYPE_POOL: list[Type] = [
    TUnit(),
    BOOL,
    TInt(),
    TSum(BOOL, TUnit()),
    TProd(BOOL, BOOL),
    TProd(TInt(), BOOL),
    UNIT_LIST,
]


def random_value(rng: random.Random, ty: Type) -> Expr:
    """A uniformly-ish random concrete value of the given type."""
    if isinstance(ty, TUnit):
        return Unit()
    if isinstance(ty, TInt):
        return IntLit(rng.randint(SMALL_INT_LO, SMALL_INT_HI))
    if isinstance(ty, TSum):
        if rng.random() < 0.5:
            return Inl(random_value(rng, ty.left), ty)
        return Inr(random_value(rng, ty.right), ty)
    if isinstance(ty, TProd):
        return Pair(random_value(rng, ty.left), random_value(rng, ty.right))
    if isinstance(ty, TMu):
        return list_value(ty, rng.randint(0, 2))
    raise AssertionError(ty)


def list_value(ty: TMu, n: int) -> Expr:
    inner = unfold_mu(ty)
    v: Expr = Fold(Inl(Unit(), inner), ty)
    for _ in range(n):
        v = Fold(Inr(v, inner), ty)
    return v


def random_store(rng: random.Random):
    """Build a store with 1-3 queried unknowns and random constraints.

    Returns (store, queried_uids).  The store may be unsatisfiable.
    """
    cs = ConstraintSet(int_bounds=(SMALL_INT_LO, SMALL_INT_HI))
    n = rng.randint(1, 3)
    types = [rng.choice(TYPE_POOL) for _ in range(n)]
    cs, uids = cs.fresh(types)
    for u, ty in zip(uids, types):
        if isinstance(ty, TMu):
            cs, _ = cs.materialize(u, rng.randint(1, 3))
    ops = rng.randint(0, 4)
    int_uids = [u for u, t in zip(uids, types) if isinstance(t, TInt)]
    for _ in range(ops):
        kind = rng.random()
        u = rng.choice(uids)
        ty = types[uids.index(u)]
        if kind < 0.35 and not isinstance(ty, TMu):
            cs = cs.unify(Unknown(u), random_value(rng, ty))
        elif kind < 0.5 and isinstance(ty, TMu):
            cs = cs.unify(Unknown(u), list_value(ty, rng.randint(0, 2)))
        elif kind < 0.75 and int_uids:
            a = rng.choice(int_uids)
            op = rng.choice(["==", "/=", "<", "<=", ">", ">="])
            if rng.random() < 0.5 or len(int_uids) == 1:
                cs = cs.post_cmp(op, Unknown(a),
                                 rng.randint(SMALL_INT_LO, SMALL_INT_HI))
            else:
                b = rng.choice([x for x in int_uids if x != a] or int_uids)
                if a != b:
                    cs = cs.post_cmp(op, Unknown(a), Unknown(b),
                                     offset=rng.choice([0, 0, 1, -1]))
        else:
            # unify two unknowns of the same type when possible
            pairs = [(a, b) for a in uids for b in uids
                     if a < b and types[uids.index(a)] == types[uids.index(b)]]
            if pairs:
                a, b = rng.choice(pairs)
                cs = cs.unify(Unknown(a), Unknown(b))
        if cs.failed:
            break
    return cs, uids


def holed_store():
    """(store, a): a <= b <= a with b in {0, 5}, so a = 1..4 pin b into
    the hole between its two intervals; a's range is still 0..5."""
    cs, (a, b) = ConstraintSet(int_bounds=(0, 5)).fresh([TInt(), TInt()])
    cs = union(cs.post_cmp("<=", Unknown(b), 0),
               cs.post_cmp(">=", Unknown(b), 5))
    cs = cs.post_cmp("<=", Unknown(a), Unknown(b))
    return cs.post_cmp("<=", Unknown(b), Unknown(a)), a


def pigeonhole_store():
    """(store, w): w <= x and x, y, z pairwise different in {0, 1}.

    AC-3 cannot tell: x, y and z keep both values and every pin of w is
    arc-consistent, yet no assignment is a solution."""
    cs, (w, x, y, z) = ConstraintSet(int_bounds=(0, 5)).fresh([TInt()] * 4)
    for u in (x, y, z):
        cs = cs.post_cmp("<=", Unknown(u), 1)
    for u, v in ((x, y), (y, z), (x, z)):
        cs = cs.post_cmp("/=", Unknown(u), Unknown(v))
    return cs.post_cmp("<=", Unknown(w), Unknown(x)), w
