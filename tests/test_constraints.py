import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luck.constraints import (
    ConstraintSet,
    ContractViolation,
    Deferred,
    RFold,
    RPair,
    RSum,
    SampleSpace,
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

from .store_gen import (
    UNIT_LIST,
    holed_store,
    list_value,
    pigeonhole_store,
    random_store,
    random_value,
)

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


def test_a_merge_propagates_a_meet_equal_to_the_survivors_domain():
    cs, (x, y, z) = ConstraintSet(int_bounds=(0, 9)).fresh([TInt()] * 3)
    cs = cs.post_cmp(">=", Unknown(x), 1).post_cmp("<=", Unknown(x), 3)
    cs = cs.post_cmp(">=", Unknown(y), 1)
    cs = cs.post_cmp("<", Unknown(z), Unknown(y))
    # x survives with its own domain, but y's constraint on z was never
    # revised against it
    out = cs.unify(Unknown(x), Unknown(y))
    assert out.find(y) == x and out.bindings[x] == IntDomain.bounded(1, 3)
    assert out.bindings[z] == IntDomain.bounded(0, 2)


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
# sum nodes: every pair of shapes under unify

SUM = TSum(TInt(), TInt())
# "whole" is never materialized: its range is the whole type
SHAPES = ["inl", "inr", "both", "whole"]
# (left, right) child intervals of x, then of y: overlapping on both sides,
# disjoint on the left, disjoint on the right, disjoint on both
SUM_DOMAINS = [
    (((0, 1), (1, 3)), ((1, 3), (0, 2))),
    (((0, 1), (1, 3)), ((2, 3), (0, 2))),
    (((0, 1), (1, 3)), ((1, 3), (0, 0))),
    (((0, 1), (2, 3)), ((2, 3), (0, 1))),
]


def shape_sum(cs, u, shape, dom_l, dom_r):
    """Unfold the sum unknown u, bound its two children to the intervals,
    then keep the sides that `shape` names; a "whole" u is left as it is."""
    if shape == "whole":
        return cs
    cs, ok = cs.materialize(u, 1)
    assert ok
    cs, _, node = cs.expand(u)
    for child, (lo, hi) in ((node.left, dom_l), (node.right, dom_r)):
        cs = cs.post_cmp(">=", Unknown(child), lo)
        cs = cs.post_cmp("<=", Unknown(child), hi)
    if shape == "inl":
        cs = cs.unify(Unknown(u), Inl(Unknown(node.left), SUM))
    elif shape == "inr":
        cs = cs.unify(Unknown(u), Inr(Unknown(node.right), SUM))
    assert not cs.failed
    return cs


@pytest.mark.parametrize("doms", SUM_DOMAINS)
@pytest.mark.parametrize("sx", SHAPES)
@pytest.mark.parametrize("sy", SHAPES)
def test_unifying_two_sum_shapes_meets_their_denotations(sx, sy, doms):
    cs, (x, y) = ConstraintSet(int_bounds=(0, 3)).fresh([SUM, SUM])
    cs = shape_sum(cs, x, sx, *doms[0])
    cs = shape_sum(cs, y, sy, *doms[1])
    meet = cs.denote_restricted([x]) & cs.denote_restricted([y])
    out = cs.unify(Unknown(x), Unknown(y))
    assert out.failed == (not meet)
    assert out.denote_restricted([x]) == meet
    assert out.denote_restricted([y]) == meet


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
        b = cs.resolve(u)[1]
        if isinstance(b, Deferred) and b.depth is None and \
                isinstance(b.ty, TMu):
            continue  # a whole recursive range has no denotation
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


def test_random_int_stores_agree_with_oracle():
    # random_store almost never stores a binary constraint; these stores
    # do, so the oracle also checks the comparisons kept in `cons`
    with_cons = 0
    for seed in range(120):
        cs, uids = random_int_store(random.Random(seed))
        _check_store(cs, uids)
        with_cons += not cs.failed and any(cs.cons.values())
    assert with_cons >= 50


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


def test_random_binary_cmp_filters():
    rng = random.Random(5)
    posted = pinned_posts = 0
    for _ in range(800):
        cs, uids = random_int_store(rng)
        if cs.failed:
            continue
        ints = [u for u in uids if isinstance(cs.type_of(u), TInt)]
        a, b = rng.sample(ints, 2)
        if rng.random() < 0.5:
            x = rng.choice((a, b))
            v = rng.choice(list(cs.bindings[cs.find(x)].values()))
            cs = cs.unify(Unknown(x), IntLit(v))
            if cs.failed:
                continue
        op, offset = rng.choice(OPS), rng.randint(-1, 2)
        before = cs.denote_restricted([a, b])
        out = cs.post_cmp(op, Unknown(a), Unknown(b), offset=offset)
        assert out.denote_restricted([a, b]) == {
            t for t in before if eval_op(op, t[0].value, t[1].value + offset)}
        posted += 1
        if cs.index(a) is not None or cs.index(b) is not None:
            # a pinned end is read as its integer: nothing is stored
            assert out.cons == cs.cons
            pinned_posts += 1
    assert posted > 500 and pinned_posts > 250


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
    assert ok and cs.bindings == {u: Deferred(TREE, 14)}


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
    # the fold and the sum node; the unit side is never bound and the Node
    # side stays deferred
    assert len(pinned.bindings) == 3
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


def bounded_list(cs, u):
    return cs.materialize(u, 2)[0]


def shaped_list(cs, u):
    return cs.unify(Unknown(u), list_value(UNIT_LIST, 1))


@pytest.mark.parametrize("whole_first", [True, False])
@pytest.mark.parametrize("narrowing,count,value", [
    (bounded_list, 2, None), (shaped_list, 1, list_value(UNIT_LIST, 1))])
def test_a_whole_range_meets_any_binding_as_that_binding(
        whole_first, narrowing, count, value):
    # a whole recursive range has no denotation, so the meet is read
    # through count_values and index; the whole range may be either end
    cs, (a, b) = ConstraintSet().fresh([UNIT_LIST, UNIT_LIST])
    whole, other = (a, b) if whole_first else (b, a)
    cs = narrowing(cs, other)
    assert cs.bindings[whole] == Deferred(UNIT_LIST, None)
    assert cs.index(whole) is None
    for x, y in ((a, b), (b, a)):
        out = cs.unify(Unknown(x), Unknown(y))
        assert not out.failed and out.next_fresh == cs.next_fresh
        assert out.resolve(whole)[1] == cs.bindings[other]
        for u in (a, b):
            assert out.count_values(u) == count and out.index(u) == value


@pytest.mark.parametrize("seed", range(60))
def test_a_store_is_a_snapshot(seed):
    # every operation returns a new store and leaves its source as it was,
    # including those that write into a dictionary they have just copied
    rng = random.Random(4000 + seed)
    for make in (random_store, random_int_store):
        assert_unchanged_by_operations(*make(rng), rng)


def assert_unchanged_by_operations(cs, uids, rng):
    before = (dict(cs.bindings), dict(cs.cons), cs.next_fresh, cs.failed)
    cs.fresh([TInt(), BOOL, UNIT_LIST])
    for u in uids:
        ty = cs.type_of(u)
        cs.expand(u)
        cs.materialize(u, 2)
        value = (list_value(ty, 1) if isinstance(ty, TMu)
                 else random_value(rng, ty))
        cs.unify(Unknown(u), value)
        same = rng.choice([w for w in uids if cs.type_of(w) == ty])
        cs.unify(Unknown(u), Unknown(same))
        if isinstance(ty, TInt):
            cs.post_cmp("<", Unknown(u), 2)
            cs.post_cmp("<=", Unknown(u), Unknown(same))
            cs.fresh_shifted(u, 1)
        space = cs.sample(u)
        if space.count:
            space.at(0)
    assert (cs.bindings, cs.cons, cs.next_fresh, cs.failed) == before


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


# ---------------------------------------------------------------------------
# the sampler against a reference that pins and filters every value

OPS = ["==", "/=", "<", "<=", ">", ">="]


def filtered_sample(cs, u):
    """The reference: pin every value, propagate from every leaf, and keep
    the pins that survive both AC-3 and the brute-force denotation."""
    root = cs.find(u)
    leaves = []

    def walk(x):
        r, b = cs.resolve(x)
        if isinstance(b, IntDomain):
            leaves.append(r)
        kids = ((b.fst, b.snd) if isinstance(b, RPair) else
                (b.left, b.right) if isinstance(b, RSum) else
                (b.child,) if isinstance(b, RFold) else ())
        for c in kids:
            if c is not None:
                walk(c)

    walk(root)
    kept = []
    for i in range(cs.count_values(root)):
        v = cs._unrank(root, i)
        pinned = cs.unify(Unknown(root), v).propagate(leaves)
        if pinned.sat():
            try:
                if not pinned.denote_restricted([root], cap=4096):
                    continue
            except ContractViolation:
                pass
            kept.append((v, pinned))
    return kept


def random_int_store(rng):
    """2-4 integer unknowns over 0..5 under random comparisons (all six
    operators, offsets -1..2), aliasing, and disequalities that leave holes
    in domains; sometimes also a pair unknown over two of them."""
    cs, uids = ConstraintSet(int_bounds=(0, 5)).fresh(
        [TInt()] * rng.randint(2, 4))
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        a, b = rng.sample(uids, 2)
        if kind < 0.55:
            cs = cs.post_cmp(rng.choice(OPS), Unknown(a), Unknown(b),
                             offset=rng.randint(-1, 2))
        elif kind < 0.7:
            cs = cs.post_cmp(rng.choice(OPS), Unknown(a), rng.randint(0, 5))
        elif kind < 0.8:
            cs = cs.unify(Unknown(a), Unknown(b))
        else:
            lo = rng.randint(0, 3)
            for v in range(lo + 1, rng.randint(lo + 2, 5)):
                cs = cs.post_cmp("/=", Unknown(a), v)
        if cs.failed:
            return cs, uids
    reps = sorted({cs.find(u) for u in uids})
    if len(reps) >= 2 and rng.random() < 0.3:
        a, b = rng.sample(reps, 2)
        cs, (p,) = cs.fresh([TProd(TInt(), TInt())])
        cs = cs.unify(Unknown(p), Pair(Unknown(a), Unknown(b)))
        uids = uids + [p]
    return cs, uids


def test_certified_sample_equals_the_pin_and_filter_reference():
    rng = random.Random(4)
    stores = 0
    for _ in range(1500):
        cs, uids = random_int_store(rng)
        if cs.failed:
            continue
        stores += 1
        for u in uids:
            got = [(v, k.failed, k.bindings) for v, k in cs.sample(u)]
            want = [(v, k.failed, k.bindings)
                    for v, k in filtered_sample(cs, u)]
            assert got == want, (str(cs), u)
    assert stores > 900


def counted_space(cs, u):
    """The space every range took before sampling read the kind of its
    binding: a count table, the constraints linked to any unknown in it,
    and each value unranked from the table."""
    root = cs.find(u)
    if cs.failed:
        return SampleSpace(cs, root, 0, [], None)
    counts = cs._count_table(root)
    return SampleSpace(cs, root, counts[root], cs._linked(counts),
                       lambda i: cs._unrank(root, i, counts))


def space_kind(cs, u):
    r, b = cs.resolve(u)
    if cs.failed:
        return "failed"
    if not cs.cons and cs.index(r) is not None:
        return "fixed"
    return "integer" if isinstance(b, IntDomain) else "counted"


def assert_spaces_agree(cs, u):
    new, old = cs.sample(u), counted_space(cs, u)
    assert new.count == old.count
    for i in range(old.count):
        (v1, k1), (v2, k2) = new.at(i), old.at(i)
        assert (v1, k1.failed, k1.bindings) == (v2, k2.failed, k2.bindings)


def test_each_kind_of_space_matches_the_counted_path():
    rng = random.Random(11)
    kinds = {}
    for _ in range(400):
        for make in (random_store, random_int_store):
            cs, uids = make(rng)
            for u in uids:
                kind = space_kind(cs, u)
                kinds[kind] = kinds.get(kind, 0) + 1
                assert_spaces_agree(cs, u)
    assert min(kinds[k] for k in ("fixed", "integer", "counted")) > 100
    # arc-consistent pins without a solution, which random stores seldom make
    for cs, _ in (holed_store(), pigeonhole_store()):
        for u in range(cs.next_fresh):
            assert_spaces_agree(cs, u)


def test_a_fixed_tree_in_a_store_with_a_constraint_is_checked(monkeypatch):
    # the tree's integer leaf is pinned by propagation, so the constraint
    # that pinned it stays stored and linked to the tree
    cs, (t, x, b, y) = ConstraintSet(int_bounds=(0, 1)).fresh(
        [TProd(TInt(), BOOL), TInt(), BOOL, TInt()])
    cs = cs.unify(Unknown(t), Pair(Unknown(x), Unknown(b)))
    cs = cs.post_cmp("<", Unknown(x), Unknown(y))
    cs = cs.unify(Unknown(b), TRUE)
    assert cs.index(t) == Pair(IntLit(0), TRUE) and cs.cons
    assert space_kind(cs, t) == "counted"
    assert_spaces_agree(cs, t)
    calls = count_unify_calls(monkeypatch)
    space = cs.sample(t)
    assert space.count == 1 and space.linked
    value, pinned = space.at(0)
    assert value == Pair(IntLit(0), TRUE) and not pinned.failed
    assert pinned is not cs and calls[0] == (Unknown(t), value)


def test_a_fixed_range_with_a_shared_child_yields_its_value():
    # the count table refuses a range whose children share an unknown;
    # `index`, which reads a fixed range, does not look for sharing
    cs, (p, x) = ConstraintSet(int_bounds=(0, 3)).fresh(
        [TProd(TInt(), TInt()), TInt()])
    cs = cs.unify(Unknown(p), Pair(Unknown(x), Unknown(x)))
    with pytest.raises(ContractViolation, match="shared unknown"):
        cs.sample(p)
    fixed = cs.unify(Unknown(x), IntLit(2))
    with pytest.raises(ContractViolation, match="shared unknown"):
        counted_space(fixed, p)
    space = fixed.sample(p)
    assert space.count == 1 and not space.linked
    assert space.at(0) == (Pair(IntLit(2), IntLit(2)), fixed)
    assert space.at(0)[1] is fixed


def int_store(n):
    return ConstraintSet(int_bounds=(0, 5)).fresh([TInt()] * n)


def kept(cs, u):
    return [v.value for v, _ in cs.sample(u)]


def test_a_hole_forces_the_per_value_path():
    cs, (a, b) = int_store(2)
    for v in range(1, 5):
        cs = cs.post_cmp("/=", Unknown(b), v)
    cs = cs.post_cmp("<=", Unknown(a), Unknown(b))
    cs = cs.post_cmp("<=", Unknown(b), Unknown(a))
    assert str(cs.bindings[b]) == "{0, 5}"
    # the all-least and all-greatest assignments are solutions, but
    # a = 1..4 pins b into the hole
    assert kept(cs, a) == [0, 5]


def test_a_disequality_blocks_the_whole_range_certificate():
    cs, (a, b) = int_store(2)
    cs = cs.post_cmp(">=", Unknown(a), 4)
    cs = cs.post_cmp("/=", Unknown(b), Unknown(a), offset=-1)
    cs = cs.post_cmp("/=", Unknown(a), Unknown(b), offset=2)
    # b = 3 excludes both a = 4 and a = 5
    assert kept(cs, b) == [0, 1, 2, 4, 5]


def test_the_brute_force_check_decides_when_the_least_witness_fails(
        monkeypatch):
    cs, (a, b, c) = int_store(3)
    cs = cs.post_cmp("<=", Unknown(a), Unknown(b))
    cs = cs.post_cmp("/=", Unknown(b), Unknown(c))
    checks = []
    denote = ConstraintSet.denote_restricted

    def counted(self, us, cap=100_000):
        checks.append(us)
        return denote(self, us, cap)

    monkeypatch.setattr(ConstraintSet, "denote_restricted", counted)
    # pinning a = 0 leaves b = c = 0 as the least assignment, which
    # breaks b /= c; b = 0, c = 1 is a solution
    assert kept(cs, a) == [0, 1, 2, 3, 4, 5]
    assert checks


def test_an_arc_consistent_pin_without_a_solution_is_dropped():
    cs, (w, x, y, z) = int_store(4)
    for u in (x, y, z):
        cs = cs.post_cmp("<=", Unknown(u), 1)
    for u, v in ((x, y), (y, z), (x, z)):
        cs = cs.post_cmp("/=", Unknown(u), Unknown(v))
    cs = cs.post_cmp("<=", Unknown(w), Unknown(x))
    # three pairwise different values in {0, 1}: AC-3 cannot tell
    assert not cs.failed and cs.unify(Unknown(w), IntLit(0)).sat()
    assert kept(cs, w) == []


def test_a_certified_range_pins_only_the_drawn_value(monkeypatch):
    cs, (a, b, c) = int_store(3)
    cs = cs.post_cmp("<", Unknown(a), Unknown(b))
    cs = cs.post_cmp("==", Unknown(c), Unknown(b), offset=1)
    pins = []
    unify = ConstraintSet.unify

    def counted(self, x, y):
        pins.append((x, y))
        return unify(self, x, y)

    monkeypatch.setattr(ConstraintSet, "unify", counted)
    space = cs.sample(a)
    assert space.count == 4 and not pins
    value, pinned = space.at(3)
    assert value == IntLit(3) and pinned.index(b) == IntLit(4)
    assert pinned.index(c) == IntLit(5)


def count_unify_calls(monkeypatch):
    calls = []
    unify = ConstraintSet.unify

    def counted(self, x, y):
        calls.append((x, y))
        return unify(self, x, y)

    monkeypatch.setattr(ConstraintSet, "unify", counted)
    return calls


def test_sample_pins_nothing_until_a_value_is_asked_for(monkeypatch):
    cs, a = holed_store()
    calls = count_unify_calls(monkeypatch)
    space = cs.sample(a)
    assert space.count == 6 and not calls
    assert not space.at(0)[1].failed and space.at(1)[1].failed
    assert len(calls) == 2


def test_a_one_value_range_samples_to_the_store_it_came_from(monkeypatch):
    cs, (u, w) = ConstraintSet(int_bounds=(0, 3)).fresh(
        [TProd(TInt(), TUnit()), BOOL])
    cs = cs.unify(Unknown(u), Pair(IntLit(2), Unit()))
    cs = cs.unify(Unknown(w), FALSE)
    calls = count_unify_calls(monkeypatch)
    for x, value in ((u, Pair(IntLit(2), Unit())), (w, FALSE)):
        space = cs.sample(x)
        assert space.count == 1 and not space.linked
        assert space.at(0) == (value, cs) and space.at(0)[1] is cs
    assert not calls  # nothing was pinned


def test_a_one_value_range_with_a_linked_constraint_is_still_checked(
        monkeypatch):
    cs, (x, y) = ConstraintSet(int_bounds=(0, 1)).fresh([TInt(), TInt()])
    cs = cs.post_cmp("<", Unknown(x), Unknown(y))
    assert (cs.index(x), cs.index(y)) == (IntLit(0), IntLit(1)) and cs.cons
    calls = count_unify_calls(monkeypatch)
    solved_by = ConstraintSet._solved_by
    checks = []

    def counted(self, cons, pick):
        checks.append(cons)
        return solved_by(self, cons, pick)

    monkeypatch.setattr(ConstraintSet, "_solved_by", counted)
    space = cs.sample(x)
    assert space.count == 1 and space.linked
    v, pinned = space.at(0)
    assert v == IntLit(0) and pinned is not cs and not pinned.failed
    assert len(calls) == 1 and checks == [space.linked]


def test_a_pin_without_a_solution_comes_back_failed():
    cs, w = pigeonhole_store()
    space = cs.sample(w)
    assert space.count == 2
    assert space.at(0)[1].failed and space.at(1)[1].failed


def test_a_failed_store_has_no_values_to_sample():
    cs, (u,) = ConstraintSet().fresh([TInt()])
    assert cs.sample(u).count == 2**63
    assert cs.fail().sample(u).count == 0


# ---------------------------------------------------------------------------
# constraints are indexed by representative


def assert_indexed_by_representative(cs):
    for key in cs.cons:
        assert cs.find(key) == key
    for c in {c for cons in cs.cons.values() for c in cons}:
        for end in (c.lhs, c.rhs):
            assert c in cs.cons[cs.find(end)]


def test_constraint_keys_are_representatives():
    rng = random.Random(5)
    for _ in range(400):
        cs, uids = random_int_store(rng)
        assert_indexed_by_representative(cs)
        a, b = rng.sample(uids[:2], 2)
        assert_indexed_by_representative(cs.unify(Unknown(a), Unknown(b)))


@pytest.mark.parametrize("ty,node", [
    (BOOL, RSum), (TProd(TInt(), BOOL), RPair),
    (UNIT_LIST, RFold)])
def test_expand_gives_an_unbound_unknown_its_types_node(ty, node):
    cs, (u,) = ConstraintSet(int_bounds=(0, 3)).fresh([ty])
    out, root, b = cs.expand(u)
    assert root == u and isinstance(b, node) and out.bindings[u] == b
    # the node is written: looking again mints nothing
    again, _, b2 = out.expand(u)
    assert b2 == b and again.next_fresh == out.next_fresh
    if node is not RFold:  # a range with no depth bound has no count
        assert out.count_values(u) == cs.count_values(u)


def test_expand_leaves_a_unit_unknown_unbound():
    cs, (u,) = ConstraintSet().fresh([TUnit()])
    out, root, b = cs.expand(u)
    assert out is cs and root == u and b is None and u not in out.bindings
    assert out.index(u) == Unit() and out.count_values(u) == 1


def test_expand_leaves_an_integer_unknown_its_domain():
    cs, (u,) = ConstraintSet(int_bounds=(0, 3)).fresh([TInt()])
    out, root, b = cs.expand(u)
    assert out is cs and root == u and b == IntDomain.bounded(0, 3)


# -- integer domains ----------------------------------------------------------

SMALL = st.integers(-6, 6)


def normalize(pairs):
    """The reference domain: sort, drop empties, merge touching intervals."""
    out = []
    for lo, hi in sorted((lo, hi) for lo, hi in pairs if lo <= hi):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


@settings(database=None, deadline=None)
@given(SMALL, SMALL, st.lists(st.tuples(SMALL, SMALL), max_size=4), SMALL)
def test_the_direct_domain_constructors_match_normalize(lo, hi, pairs, k):
    assert IntDomain.bounded(lo, hi).intervals == normalize([(lo, hi)])
    d = IntDomain(normalize(pairs))
    assert d.restrict_le(k).intervals == normalize(
        [(a, min(b, k)) for a, b in d.intervals])
    assert d.restrict_ge(k).intervals == normalize(
        [(max(a, k), b) for a, b in d.intervals])
