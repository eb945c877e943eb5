import hashlib
import random

import pytest

from luck.constraints import (
    ConstraintSet,
    ContractViolation,
    Deferred,
    RBoth,
    RInl,
    union,
    rename,
)
from luck.core import (
    BOOL,
    FALSE,
    TRUE,
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
    Unit,
    Unknown,
    unfold_mu,
)
from luck.intdomain import IntDomain, eval_op

from .store_gen import UNIT_LIST, list_value, random_store, random_value

TREE = TMu("X", TSum(TUnit(), TProd(TInt(), TProd(TVar("X"), TVar("X")))))


def bool_store():
    cs, (u,) = ConstraintSet().fresh([BOOL])
    cs, ok = cs.materialize(u, 1)
    assert ok
    return cs, u


# ---------------------------------------------------------------------------
# the brute-force denotation itself


def test_denote_unit():
    cs, (u,) = ConstraintSet().fresh([TUnit()])
    assert cs.denote_restricted([u]) == {(Unit(),)}


def test_denote_bool_top():
    cs, u = bool_store()
    assert cs.denote_restricted([u]) == {(TRUE,), (FALSE,)}


def test_denote_int_domain():
    cs, (u,) = ConstraintSet(int_bounds=(1, 3)).fresh([TInt()])
    assert cs.denote_restricted([u]) == {(IntLit(1),), (IntLit(2),), (IntLit(3),)}


def test_denote_pair_product():
    cs, (u,) = ConstraintSet(int_bounds=(0, 1)).fresh([TProd(TInt(), BOOL)])
    vals = cs.denote_restricted([u])
    assert len(vals) == 4


def test_denote_materialized_list_counts():
    cs, (u,) = ConstraintSet().fresh([UNIT_LIST])
    cs, ok = cs.materialize(u, 3)
    assert ok
    # [], [()], [(), ()] -- one list per length < 3
    assert len(cs.denote_restricted([u])) == 3


def test_denote_tree_depth2():
    cs, (u,) = ConstraintSet(int_bounds=(0, 2)).fresh([TREE])
    cs, ok = cs.materialize(u, 2)
    assert ok
    # Leaf, or Node(x, Leaf, Leaf) with x in {0,1,2}
    assert len(cs.denote_restricted([u])) == 4


def test_denote_respects_constraints():
    cs, uids = ConstraintSet(int_bounds=(0, 3)).fresh([TInt(), TInt()])
    a, b = uids
    cs = cs.post_cmp("<", Unknown(a), Unknown(b))
    vals = cs.denote_restricted([a, b])
    assert vals == {(IntLit(x), IntLit(y))
                    for x in range(4) for y in range(4) if x < y}


def test_denote_cap():
    cs, (u,) = ConstraintSet(int_bounds=(0, 10**6)).fresh([TInt()])
    with pytest.raises(ContractViolation):
        cs.denote_restricted([u], cap=100)


# ---------------------------------------------------------------------------
# unify


def test_unify_pins_bool():
    cs, u = bool_store()
    pinned = cs.unify(Unknown(u), TRUE)
    assert pinned.denote_restricted([u]) == {(TRUE,)}
    assert pinned.index(u) == TRUE


def test_unify_contradiction_fails_store():
    cs, u = bool_store()
    pinned = cs.unify(Unknown(u), TRUE).unify(Unknown(u), FALSE)
    assert pinned.failed
    assert not pinned.sat()
    assert pinned.denote_restricted([u]) == set()


def test_unify_never_raises_on_value_clash():
    cs = ConstraintSet()
    assert cs.unify(IntLit(3), IntLit(4)).failed
    assert not cs.unify(IntLit(3), IntLit(3)).failed


def test_unify_is_a_filter():
    # unifying two unknowns keeps exactly the diagonal
    cs, uids = ConstraintSet(int_bounds=(0, 2)).fresh([TInt(), TInt()])
    a, b = uids
    before = cs.denote_restricted([a, b])
    after = cs.unify(Unknown(a), Unknown(b)).denote_restricted([a, b])
    assert after == {t for t in before if t[0] == t[1]}


def test_unify_structured():
    cs, (u,) = ConstraintSet(int_bounds=(0, 5)).fresh([TProd(TInt(), BOOL)])
    cs = cs.unify(Unknown(u), Pair(IntLit(3), TRUE))
    assert cs.index(u) == Pair(IntLit(3), TRUE)


def test_unify_list_value():
    cs, (u,) = ConstraintSet().fresh([UNIT_LIST])
    cs, ok = cs.materialize(u, 3)
    cs2 = cs.unify(Unknown(u), list_value(UNIT_LIST, 2))
    assert cs2.sat()
    assert cs2.index(u) == list_value(UNIT_LIST, 2)
    # depth 3 admits lists of length < 3 only
    cs3 = cs.unify(Unknown(u), list_value(UNIT_LIST, 5))
    assert cs3.failed


def test_unify_aliases_share_constraints():
    cs, uids = ConstraintSet(int_bounds=(0, 9)).fresh([TInt(), TInt()])
    a, b = uids
    cs = cs.post_cmp("<", Unknown(a), 5)
    cs = cs.unify(Unknown(a), Unknown(b))
    cs = cs.post_cmp(">", Unknown(b), 3)
    assert cs.denote_restricted([a]) == {(IntLit(4),)}


# ---------------------------------------------------------------------------
# integer propagation


def test_unary_absorption():
    cs, (u,) = ConstraintSet(int_bounds=(0, 9)).fresh([TInt()])
    cs = cs.post_cmp(">", Unknown(u), 0).post_cmp("<", Unknown(u), 4)
    assert cs.denote_restricted([u]) == {(IntLit(1),), (IntLit(2),), (IntLit(3),)}


def test_lt_cycle_empties():
    cs, uids = ConstraintSet(int_bounds=(1, 3)).fresh([TInt(), TInt()])
    u, v = uids
    cs = cs.post_cmp("<", Unknown(u), Unknown(v))
    cs = cs.post_cmp("<", Unknown(v), Unknown(u))
    assert not cs.sat()


def test_le_cycle_forces_equality_support():
    cs, uids = ConstraintSet(int_bounds=(1, 3)).fresh([TInt(), TInt()])
    u, v = uids
    cs = cs.post_cmp("<=", Unknown(u), Unknown(v))
    cs = cs.post_cmp("<=", Unknown(v), Unknown(u))
    assert cs.sat()
    assert cs.denote_restricted([u, v]) == {
        (IntLit(k), IntLit(k)) for k in (1, 2, 3)
    }


def test_chain_propagation():
    cs, uids = ConstraintSet(int_bounds=(0, 10)).fresh([TInt()] * 3)
    a, b, c = uids
    cs = cs.post_cmp("<", Unknown(a), Unknown(b))
    cs = cs.post_cmp("<", Unknown(b), Unknown(c))
    cs = cs.post_cmp("==", Unknown(c), 2)
    assert cs.denote_restricted([a, b, c]) == {(IntLit(0), IntLit(1), IntLit(2))}


def test_offset_equality():
    cs, uids = ConstraintSet(int_bounds=(0, 5)).fresh([TInt(), TInt()])
    a, b = uids
    cs = cs.post_cmp("==", Unknown(a), Unknown(b), offset=2)  # a = b + 2
    cs = cs.post_cmp("==", Unknown(b), 1)
    assert cs.index(a) == IntLit(3)


def test_disequality_prunes_singletons():
    cs, uids = ConstraintSet(int_bounds=(0, 1)).fresh([TInt(), TInt()])
    a, b = uids
    cs = cs.post_cmp("/=", Unknown(a), Unknown(b))
    cs = cs.post_cmp("==", Unknown(a), 0)
    assert cs.index(b) == IntLit(1)


# ---------------------------------------------------------------------------
# index / sample / count


def test_index_none_for_wide():
    cs, u = bool_store()
    assert cs.index(u) is None


def test_count_values():
    cs, (u,) = ConstraintSet(int_bounds=(0, 2)).fresh([TREE])
    cs, _ = cs.materialize(u, 2)
    assert cs.count_values(u) == 4


def test_sample_bool_order():
    cs, u = bool_store()
    space = cs.sample(u)
    assert space.count == 2
    v0, k0 = space.at(0)
    v1, k1 = space.at(1)
    assert v0 == TRUE and v1 == FALSE  # left injection first
    assert k0.index(u) == TRUE
    assert k1.index(u) == FALSE


def test_sample_int_ascending():
    cs, (u,) = ConstraintSet(int_bounds=(0, 9)).fresh([TInt()])
    cs = cs.post_cmp(">", Unknown(u), 0).post_cmp("<", Unknown(u), 4)
    space = cs.sample(u)
    assert [v for v, _ in space] == [IntLit(1), IntLit(2), IntLit(3)]


def test_sample_partitions_denotation():
    cs, (u,) = ConstraintSet(int_bounds=(0, 2)).fresh([TREE])
    cs, _ = cs.materialize(u, 2)
    whole = cs.denote_restricted([u])
    parts = [k.denote_restricted([u]) for _, k in cs.sample(u)]
    assert set().union(*parts) == whole
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert not (parts[i] & parts[j])


def test_sample_drops_unsat_pins():
    cs, uids = ConstraintSet(int_bounds=(0, 3)).fresh([TInt(), TInt()])
    a, b = uids
    cs = cs.post_cmp("<", Unknown(a), Unknown(b))
    space = cs.sample(a)  # a in {0,1,2}: 3 is unsupported
    assert [v for v, _ in space] == [IntLit(0), IntLit(1), IntLit(2)]


def test_sample_virtual_for_huge_domains():
    cs, (u,) = ConstraintSet().fresh([TInt()])
    space = cs.sample(u)
    assert space.count == 2**63
    v, k = space.at(0)
    assert v == IntLit(-(2**62))
    assert k.index(u) == v


# ---------------------------------------------------------------------------
# union / rename


def test_union_of_int_splits_is_exact():
    cs, (u,) = ConstraintSet(int_bounds=(0, 9)).fresh([TInt()])
    lo = cs.post_cmp("<", Unknown(u), 3)
    hi = cs.post_cmp(">=", Unknown(u), 7)
    joined = union(lo, hi)
    assert joined.denote_restricted([u]) == \
        lo.denote_restricted([u]) | hi.denote_restricted([u])


def test_union_superset_in_general():
    cs, u = bool_store()
    t = cs.unify(Unknown(u), TRUE)
    f = cs.unify(Unknown(u), FALSE)
    joined = union(t, f)
    d = joined.denote_restricted([u])
    assert d >= t.denote_restricted([u]) | f.denote_restricted([u])
    assert d == {(TRUE,), (FALSE,)}


def test_union_with_failed_side():
    cs, u = bool_store()
    t = cs.unify(Unknown(u), TRUE)
    bad = cs.unify(Unknown(u), TRUE).unify(Unknown(u), FALSE)
    assert union(t, bad) is t
    assert union(bad, t) is t


def test_rename_is_consistent():
    cs, uids = ConstraintSet(int_bounds=(0, 3)).fresh([TInt(), TInt()])
    a, b = uids
    cs = cs.post_cmp("<", Unknown(a), Unknown(b))
    base = ConstraintSet(int_bounds=(0, 3))
    renamed, mapping = rename([a, b], cs)
    a2, b2 = mapping[a], mapping[b]
    assert renamed.denote_restricted([a2, b2]) == cs.denote_restricted([a, b])


# ---------------------------------------------------------------------------
# randomized agreement with the oracle


def _check_store(cs, uids):
    if not cs.sat():
        assert cs.denote_restricted(uids) == set()
        return
    whole = cs.denote_restricted(uids)
    # sat is one-sided, so a satisfiable-looking store may still be empty;
    # but a nonempty denotation must imply sat
    if whole:
        assert cs.sat()
    for u in uids:
        if isinstance(cs.type_of(u), TMu) and cs.resolve(u)[1] is None:
            continue
        single = cs.denote_restricted([u])
        parts = [k.denote_restricted([u]) for _, k in cs.sample(u)]
        got = set().union(*parts) if parts else set()
        assert got == single
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert not (parts[i] & parts[j])
        idx = cs.index(u)
        if idx is not None:
            assert single == {(idx,)}


@pytest.mark.parametrize("seed", range(120))
def test_random_stores_agree_with_oracle(seed):
    rng = random.Random(seed)
    cs, uids = random_store(rng)
    _check_store(cs, uids)


@pytest.mark.parametrize("seed", range(60))
def test_random_unify_filters(seed):
    rng = random.Random(1000 + seed)
    cs, uids = random_store(rng)
    if cs.failed:
        return
    u = rng.choice(uids)
    ty = cs.type_of(u)
    if isinstance(ty, TMu):
        v = list_value(ty, rng.randint(0, 2))
    else:
        v = random_value(rng, ty)
    before = cs.denote_restricted([u])
    after = cs.unify(Unknown(u), v).denote_restricted([u])
    assert after == {t for t in before if t == (v,)}


@pytest.mark.parametrize("seed", range(60))
def test_random_cmp_filters(seed):
    rng = random.Random(2000 + seed)
    cs, uids = random_store(rng)
    if cs.failed:
        return
    ints = [u for u in uids if isinstance(cs.type_of(u), TInt)]
    if not ints:
        return
    a = rng.choice(ints)
    op = rng.choice(["==", "/=", "<", "<=", ">", ">="])
    k = rng.randint(0, 3)
    before = cs.denote_restricted([a])
    after = cs.post_cmp(op, Unknown(a), k).denote_restricted([a])
    assert after == {t for t in before if eval_op(op, t[0].value, k)}


# ---------------------------------------------------------------------------
# deferred ranges

# (count, sha256 prefix of the values' newline-joined text in structural
# order) with int bounds 0..1.  Depths 1-4 were recorded from the ranges
# when they were still built eagerly to the depth bound.
RANGE_PINS = {
    ("UNIT_LIST", 0): (0, "e3b0c44298fc1c14"),
    ("UNIT_LIST", 1): (1, "629bd78ec0fec843"),
    ("UNIT_LIST", 2): (2, "675fe2a0814e29b3"),
    ("UNIT_LIST", 3): (3, "d66d560b178aeb0c"),
    ("UNIT_LIST", 4): (4, "9d784c714966a905"),
    ("TREE", 0): (0, "e3b0c44298fc1c14"),
    ("TREE", 1): (1, "629bd78ec0fec843"),
    ("TREE", 2): (3, "89447ea13eb479dd"),
    ("TREE", 3): (19, "2c8188008928980e"),
    ("TREE", 4): (723, "ad2cc369273970d6"),
}


@pytest.mark.parametrize("name,depth", sorted(RANGE_PINS))
def test_deferred_range_counts_and_order(name, depth):
    ty = {"UNIT_LIST": UNIT_LIST, "TREE": TREE}[name]
    cs, (u,) = ConstraintSet(int_bounds=(0, 1)).fresh([ty])
    cs, ok = cs.materialize(u, depth)
    assert ok == (depth > 0) and cs.failed == (depth == 0)
    n = cs.count_values(u)
    assert n == len(cs.denote_restricted([u]))
    text = "\n".join(str(cs._unrank(u, i)) for i in range(n))
    assert (n, hashlib.sha256(text.encode()).hexdigest()[:16]) == \
        RANGE_PINS[name, depth]


def test_materialize_builds_nothing():
    cs, (u,) = ConstraintSet(int_bounds=(0, 9)).fresh([TREE])
    cs, ok = cs.materialize(u, 14)
    assert ok and cs.bindings == {u: Deferred(14, u)}


def test_index_of_a_range_with_one_value():
    cs, (u,) = ConstraintSet().fresh([UNIT_LIST])
    one, _ = cs.materialize(u, 1)
    assert one.index(u) == list_value(UNIT_LIST, 0)
    two, _ = cs.materialize(u, 2)
    assert two.index(u) is None


def test_unfolding_follows_unification_only():
    cs, (u,) = ConstraintSet(int_bounds=(0, 1)).fresh([TREE])
    cs, _ = cs.materialize(u, 12)
    pinned = cs.unify(Unknown(u), Fold(Inl(Unit(), unfold_mu(TREE)), TREE))
    # fold, the sum node and its unit side; the Node side stays deferred
    assert len(pinned.bindings) == 4
    assert pinned.count_values(u) == 1 and pinned.index(u) is not None


def test_unifying_two_deferred_ranges_keeps_the_shallower():
    cs, (a, b) = ConstraintSet().fresh([UNIT_LIST, UNIT_LIST])
    cs, _ = cs.materialize(a, 4)
    cs, _ = cs.materialize(b, 2)
    cs = cs.unify(Unknown(a), Unknown(b))
    assert cs.denote_restricted([a]) == {
        (list_value(UNIT_LIST, n),) for n in range(2)}


def test_unifying_a_deferred_range_with_a_shaped_one_unfolds_it():
    cs, (a, b) = ConstraintSet().fresh([UNIT_LIST, UNIT_LIST])
    cs, _ = cs.materialize(a, 4)
    cs = cs.unify(Unknown(b), list_value(UNIT_LIST, 2))
    cs = cs.unify(Unknown(a), Unknown(b))
    assert cs.index(a) == list_value(UNIT_LIST, 2)
    too_long = cs.unify(Unknown(a), Unknown(b)).unify(
        Unknown(a), list_value(UNIT_LIST, 3))
    assert too_long.failed


def test_union_keeps_a_range_unfolded_in_one_branch():
    cs, (u,) = ConstraintSet().fresh([UNIT_LIST])
    cs, _ = cs.materialize(u, 3)
    one = cs.unify(Unknown(u), list_value(UNIT_LIST, 1))
    whole = cs.denote_restricted([u])
    assert union(one, cs).denote_restricted([u]) == whole
    assert union(cs, one).denote_restricted([u]) == whole


def test_union_joins_ranges_unfolded_in_both_branches():
    cs, (u,) = ConstraintSet().fresh([UNIT_LIST])
    cs, _ = cs.materialize(u, 3)
    empty = cs.unify(Unknown(u), list_value(UNIT_LIST, 0))
    longer = cs.unify(Unknown(u), list_value(UNIT_LIST, 1))
    joined = union(empty, longer).denote_restricted([u])
    assert joined >= empty.denote_restricted([u]) | \
        longer.denote_restricted([u])
    assert joined <= cs.denote_restricted([u])


@pytest.mark.parametrize("seed", range(120))
def test_sat_is_the_failed_flag(seed):
    rng = random.Random(3000 + seed)
    cs, uids = random_store(rng)
    for _ in range(3):
        u = rng.choice(uids)
        ty = cs.type_of(u)
        if isinstance(ty, TInt):
            cs = cs.post_cmp(rng.choice(["<", ">", "==", "/="]), Unknown(u),
                             rng.randint(-1, 4))
        elif isinstance(ty, TMu):
            cs = cs.unify(Unknown(u), list_value(ty, rng.randint(0, 3)))
        else:
            cs = cs.unify(Unknown(u), random_value(rng, ty))
        empty = any(isinstance(b, IntDomain) and b.is_empty()
                    for b in cs.bindings.values())
        assert cs.sat() == (not cs.failed and not empty)
