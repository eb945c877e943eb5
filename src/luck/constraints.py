"""Constraint sets: orthogonal maps of ranges plus integer interval domains.

A constraint set is an immutable snapshot holding one map, ``bindings``,
from unknowns to their ranges.  Only a unit unknown is unbound: its type
gives its one value.  Every other unknown has one of four binding kinds,
and every binding but a domain and an alias carries the unknown's type:

  * a deferred range: every value of its type, or every one within a
    recursion depth, not yet built (``Deferred``; ``fresh`` gives a sum,
    product or recursive unknown its whole type, and the first
    unification or case split that looks inside unfolds it by one level),
  * a one-level range node whose children are further unknowns
    (pair / fold / sum; a sum node holds one child per injection the
    unknown can still take, so one side may be ruled out),
  * an integer interval domain (with binary comparison constraints
    attached off to the side), or
  * an alias to another unknown it has been unified with.

Every operation is functional: it returns a new constraint set, sharing
unchanged dictionaries with the old one.  Contradictions never raise; they
return a set whose store is failed.  Every write that empties an integer
domain fails the store, so ``sat`` is a flag test; this assumes non-empty
integer bounds, which the driver checks.  Binary constraints are indexed
by representative: ``cons[r]`` lists every constraint with an end whose
representative is r, and only representatives are keys.  ``post_cmp``
reads an unknown pinned to one integer as that integer, so ``cons`` only
holds constraints posted between two unpinned unknowns.  A write costs
its dictionary copies and little else: every store shares one full
domain per integer bounds (``_full``), and a deferred range unfolds from
a layout kept per (type, depth, bounds) (``_layout``).  ``type_of``
reads an unknown's type from its binding.

``sample`` reads a fixed range with ``index`` in one walk, draws an
integer from its domain and unranks any other range from a count table.
It pins one value at a time, on demand, and keeps the pin when the store
it leaves still has a solution.  One rule decides, at any range size: the
pin must not fail (its writes ran AC-3), and then either the all-least
assignment of the constraints linked to the range is a solution or
``denote_restricted``, a deliberately naive brute-force enumeration of the
store's meaning (also the ground truth in tests), finds one within a small
cap; a check that exceeds its cap keeps the pin.  A range of one value
that no binary constraint is linked to is not pinned: its store already
denotes just that value, and comes back as it is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional

from .core import (
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
    Type,
    Unit,
    Unknown,
    is_flat,
    unfold_mu,
)
from .intdomain import (
    MAX_INT,
    MIN_INT,
    IntDomain,
    eval_op,
    flip_op,
    revise,
)


class ContractViolation(Exception):
    """An engine operation was used outside its supported footprint."""


# ---------------------------------------------------------------------------
# Store bindings


@dataclass(unsafe_hash=True)
class RPair:
    fst: int
    snd: int
    ty: Type

    def __str__(self) -> str:
        return f"(?{self.fst}, ?{self.snd})"


@dataclass(unsafe_hash=True)
class RSum:
    """The injections the unknown can still take.

    Each side is the child holding that injection's argument, or None
    when the side is ruled out; at least one side is present, and a
    present side denotes at least one value.
    """

    left: Optional[int]
    right: Optional[int]
    ty: Type

    def __str__(self) -> str:
        if self.right is None:
            return f"inl ?{self.left}"
        if self.left is None:
            return f"inr ?{self.right}"
        return f"{{inl ?{self.left} | inr ?{self.right}}}"


@dataclass(unsafe_hash=True)
class RFold:
    child: int
    ty: Type

    def __str__(self) -> str:
        return f"fold ?{self.child}"


@dataclass(unsafe_hash=True)
class Alias:
    target: int

    def __str__(self) -> str:
        return f"= ?{self.target}"


@dataclass(unsafe_hash=True)
class Deferred:
    """Every value of the sum, product or recursive type `ty` that unrolls
    recursive types at most `depth` times along any path, or every value
    of `ty` when `depth` is None; never empty.

    Nothing below it is built.  Unfolding it (``ConstraintSet.expand``)
    writes the one-level node over fresh children, each with its own
    range.  A range with no depth bound has no count and no denotation
    when `ty` is recursive; ``materialize`` gives it a depth.
    """

    ty: Type
    depth: Optional[int]

    def __str__(self) -> str:
        return "<whole>" if self.depth is None else f"<depth {self.depth}>"


# Deferred ranges unfold, count and test the same few (type, depth) pairs
# over and over; each computation walks or substitutes into the type.
_CACHE_SIZE = 4096
_unfold_mu = lru_cache(maxsize=_CACHE_SIZE)(unfold_mu)


@lru_cache(maxsize=_CACHE_SIZE)
def _full(int_bounds: tuple[int, int]) -> IntDomain:
    """The one domain, shared by every store, of all integers in bounds."""
    return IntDomain.bounded(*int_bounds)


@lru_cache(maxsize=_CACHE_SIZE)
def _range(ty: Type, depth: Optional[int], int_bounds) -> Binding:
    """The binding, shared by every store, of an unknown ranging over the
    values of the flat type `ty` to `depth` (None: no depth bound): none
    for unit, the full domain for an integer, else a deferred range."""
    if not is_flat(ty):
        raise ContractViolation(f"unknown of non-flat type {ty}")
    if isinstance(ty, TUnit):
        return None
    if isinstance(ty, TInt):
        return _full(int_bounds)
    return Deferred(ty, depth)


# RPair | RSum | RFold | IntDomain | Alias | Deferred; a unit unknown has none
Binding = object
_INT, _UNIT = TInt(), TUnit()


def _children(b: Binding) -> tuple[int, ...]:
    """The child ids of a range node, left to right (none for any other
    binding)."""
    if isinstance(b, RPair):
        return (b.fst, b.snd)
    if isinstance(b, RFold):
        return (b.child,)
    if isinstance(b, RSum):
        return tuple(c for c in (b.left, b.right) if c is not None)
    return ()


@dataclass(unsafe_hash=True)
class Constraint:
    """lhs OP rhs + offset, between two integer unknowns."""

    op: str
    lhs: int
    rhs: int
    offset: int = 0

    def __str__(self) -> str:
        off = f" + {self.offset}" if self.offset else ""
        return f"?{self.lhs} {self.op} ?{self.rhs}{off}"


DENOTE_CAP = 100_000


class ConstraintSet:
    """Immutable store of unknown ranges, domains, and constraints."""

    __slots__ = ("bindings", "cons", "next_fresh", "failed", "int_bounds")

    def __init__(self, bindings=None, cons=None, next_fresh=0,
                 failed=False, int_bounds=(MIN_INT, MAX_INT)):
        self.bindings: dict[int, Binding] = bindings if bindings is not None else {}
        self.cons: dict[int, tuple[Constraint, ...]] = cons if cons is not None else {}
        self.next_fresh: int = next_fresh
        self.failed: bool = failed
        self.int_bounds: tuple[int, int] = int_bounds

    # -- plumbing -----------------------------------------------------------

    def _with(self, bindings, cons, next_fresh) -> "ConstraintSet":
        """A snapshot with this store's bounds and flag, built directly."""
        out = object.__new__(ConstraintSet)
        out.bindings, out.cons = bindings, cons
        out.next_fresh, out.failed = next_fresh, self.failed
        out.int_bounds = self.int_bounds
        return out

    def fail(self) -> "ConstraintSet":
        out = self._with(self.bindings, self.cons, self.next_fresh)
        out.failed = True
        return out

    def find(self, u: int) -> int:
        """Follow alias links to the representative unknown."""
        seen = 0
        while True:
            b = self.bindings.get(u)
            if type(b) is Alias:
                u = b.target
                seen += 1
                if seen > len(self.bindings) + 1:
                    raise ContractViolation("alias cycle")
            else:
                return u

    def resolve(self, u: int):
        """(representative, binding-or-None)."""
        r = self.find(u)
        return r, self.bindings.get(r)

    def type_of(self, u: int) -> Type:
        b = self.bindings.get(self.find(u))
        if b is None:
            return _UNIT
        return _INT if isinstance(b, IntDomain) else b.ty

    def created_since(self, older: "ConstraintSet") -> list[int]:
        return list(range(older.next_fresh, self.next_fresh))

    def __str__(self) -> str:
        if self.failed:
            return "<failed store>"
        parts = []
        for u in sorted(self.bindings):
            parts.append(f"?{u} -> {self.bindings[u]}")
        seen = set()
        for cs in self.cons.values():
            for c in cs:
                if c not in seen:
                    seen.add(c)
                    parts.append(str(c))
        return "{" + "; ".join(parts) + "}"

    # -- fresh unknowns -----------------------------------------------------

    def fresh(self, types: list[Type]):
        """Allocate unknowns of the given flat types, each ranging over its
        whole type."""
        bindings = dict(self.bindings)
        uids = []
        nxt = self.next_fresh
        for ty in types:
            b = _range(ty, None, self.int_bounds)
            if b is not None:
                bindings[nxt] = b
            uids.append(nxt)
            nxt += 1
        return self._with(bindings, self.cons, nxt), uids

    # -- materialization ----------------------------------------------------

    def materialize(self, u: int, depth: int):
        """Give the unknown the range of its type to the given recursion depth.

        Recursive types are unrolled at most `depth` times along any path;
        values that would need more are absent from the range.  Nothing is
        built: the range is one ``Deferred`` binding, unfolded on demand.
        Returns (set', nonempty); nonempty is False when no value of the
        type fits within the depth (the caller decides what that means).
        """
        root, b = self.resolve(u)
        if isinstance(b, IntDomain):
            return self, not b.is_empty()
        if not isinstance(b, Deferred) or b.depth is not None:
            return self, True  # already bounded or shaped, or unit
        out = self._set_binding(root, _range(b.ty, depth, self.int_bounds))
        if not _nonempty(b.ty, self.int_bounds, depth):
            return out.fail(), False
        return out, True

    def expand(self, u: int):
        """(set', representative, node): u's one-level range node.

        This is the one place an unknown is opened.  A deferred range is
        unfolded by one level, and the node is written to the store.  An
        integer unknown's domain, an existing node and a unit unknown's
        None come back as they are.
        """
        root, b = self.resolve(u)
        if isinstance(b, Deferred):
            out, level = self._unfold(b, holder=root)
            return out, root, level
        return self, root, b

    def _unfold(self, d: Deferred, holder: Optional[int] = None):
        """One level of the deferred range `d`: (set', binding).

        The binding is the node the range's top unknown needs, over
        children minted as ``fresh`` mints them, with their own ranges, as
        ``_layout`` lays them out.  With `holder`, the binding is also
        written there.
        """
        node, slots = _layout(d.ty, d.depth, self.int_bounds)
        bindings = dict(self.bindings)
        ids = []
        nxt = self.next_fresh
        for b in slots:
            if b is _RULED_OUT:
                ids.append(None)
                continue
            if b is not None:
                bindings[nxt] = b
            ids.append(nxt)
            nxt += 1
        level = node(*ids, d.ty)
        if holder is not None:
            bindings[holder] = level
        return self._with(bindings, self.cons, nxt), level

    # -- satisfiability -----------------------------------------------------

    def sat(self) -> bool:
        """One-sided check: False guarantees the denotation is empty."""
        return not self.failed

    # -- brute-force denotation -----------------------------------------------

    def denote_restricted(self, us: list[int], cap: int = DENOTE_CAP):
        """All value tuples for `us`, by exhaustive expansion + filtering.

        Existentially quantified over any other unknowns entangled through
        binary constraints.  Raises ContractViolation beyond `cap` candidate
        assignments or on unmaterialized recursive unknowns.
        """
        if self.failed:
            return set()

        # pull in constraint neighbours so every constraint can be checked
        seen: set[int] = set()
        ints: list[int] = []

        def reach(u: int):
            r = self.find(u)
            if r in seen:
                return
            seen.add(r)
            b = self.bindings.get(r)
            if isinstance(b, IntDomain):
                ints.append(r)
            for c in _children(b):
                reach(c)

        for u in us:
            reach(u)
        all_cons = self._linked(ints)
        for c in all_cons:
            seen.update((self.find(c.lhs), self.find(c.rhs)))

        budget = [cap]

        def assignments(targets: list[int], asg: dict):
            if not targets:
                yield asg
                return
            u, rest = targets[0], targets[1:]
            for asg2 in assign_one(u, dict(asg)):
                yield from assignments(rest, asg2)

        def assign_one(u: int, asg: dict):
            r = self.find(u)
            if r in asg:
                yield asg
                return
            b = self.bindings.get(r)
            budget[0] -= 1
            if budget[0] < 0:
                raise ContractViolation("denotation larger than cap")
            if b is None:
                a2 = dict(asg)
                a2[r] = Unit()
                yield a2
            elif isinstance(b, Deferred):
                # expand virtually without minting
                for val in _type_values(b.ty, self.int_bounds, budget,
                                        b.depth):
                    a2 = dict(asg)
                    a2[r] = val
                    yield a2
            elif isinstance(b, IntDomain):
                if b.size() > cap:
                    raise ContractViolation("integer domain larger than cap")
                for v in b.values():
                    a2 = dict(asg)
                    a2[r] = IntLit(v)
                    yield a2
            elif isinstance(b, RPair):
                for a2 in assign_one(b.fst, asg):
                    for a3 in assign_one(b.snd, a2):
                        a4 = dict(a3)
                        a4[r] = Pair(a3[self.find(b.fst)], a3[self.find(b.snd)])
                        yield a4
            elif isinstance(b, RSum):
                for inj, c in ((Inl, b.left), (Inr, b.right)):
                    if c is None:
                        continue
                    for a2 in assign_one(c, asg):
                        a3 = dict(a2)
                        a3[r] = inj(a2[self.find(c)], b.ty)
                        yield a3
            elif isinstance(b, RFold):
                for a2 in assign_one(b.child, asg):
                    a3 = dict(a2)
                    a3[r] = Fold(a2[self.find(b.child)], b.ty)
                    yield a3
            else:
                raise ContractViolation(f"bad binding {b!r}")

        out = set()
        for asg in assignments(sorted(seen), {}):
            ok = True
            for c in all_cons:
                la = asg.get(self.find(c.lhs))
                rb = asg.get(self.find(c.rhs))
                if isinstance(la, IntLit) and isinstance(rb, IntLit):
                    if not eval_op(c.op, la.value, rb.value + c.offset):
                        ok = False
                        break
            if ok:
                out.add(tuple(asg[self.find(u)] for u in us))
        return out

    # -- unification --------------------------------------------------------

    def unify(self, a: Expr, b: Expr) -> "ConstraintSet":
        """Assert two pattern values equal.  Never raises on contradiction;
        the result's store is failed instead."""
        if self.failed:
            return self
        if type(a) is Unknown:
            if type(b) is Unknown:
                return self._unify_uu(a.uid, b.uid)
            return self._unify_uv(a.uid, b)
        if type(b) is Unknown:
            return self._unify_uv(b.uid, a)
        return self._unify_vv(a, b)

    def _unify_vv(self, a: Expr, b: Expr) -> "ConstraintSet":
        ta, tb = type(a), type(b)
        if ta is not tb:
            if ta in (Inl, Inr) and tb in (Inl, Inr):
                return self.fail()
        elif ta is Unit:
            return self
        elif ta is IntLit:
            return self if a.value == b.value else self.fail()
        elif ta is Pair:
            return self.unify(a.fst, b.fst).unify(a.snd, b.snd)
        elif ta is Inl or ta is Inr or ta is Fold:
            return self.unify(a.arg, b.arg)
        raise ContractViolation(f"unify of non-values {a} ~ {b}")

    def _unify_uu(self, ua: int, ub: int) -> "ConstraintSet":
        ra, rb = self.find(ua), self.find(ub)
        small, large = (ra, rb) if ra < rb else (rb, ra)
        bs, bl = self.bindings.get(small), self.bindings.get(large)
        if ra == rb or bs is None:  # one unknown, or two unit ones
            return self

        bindings = dict(self.bindings)
        cons = dict(self.cons)
        bindings[large] = Alias(small)
        merged_cons = self.cons.get(small, ()) + self.cons.get(large, ())
        if merged_cons:
            cons[small] = merged_cons
            cons.pop(large, None)
        out = self._with(bindings, cons, self.next_fresh)
        return out._merge_bindings(small, bs, bl)

    def _merge_bindings(self, root: int, b1, b2) -> "ConstraintSet":
        """Write at root, which holds `b1`, the meet of `b1` and `b2`."""
        if isinstance(b2, Deferred) and b2.depth is None:
            return self  # a whole range meets any binding as that binding
        if isinstance(b1, Deferred) and b1.depth is None:
            return self._set_binding(root, b2)
        if isinstance(b1, Deferred) and isinstance(b2, Deferred):
            # two depth-bounded ranges of one type: the shallower is the meet
            return self._set_binding(root, b2 if b2.depth < b1.depth else b1)
        if isinstance(b1, Deferred):
            out, b1 = self._unfold(b1, holder=root)
            return out._merge_bindings(root, b1, b2)
        if isinstance(b2, Deferred):
            out, b2 = self._unfold(b2)
            return out._merge_bindings(root, b1, b2)
        if isinstance(b1, IntDomain) and isinstance(b2, IntDomain):
            return self._set_domain(root, b1.intersect(b2))
        if isinstance(b1, RPair) and isinstance(b2, RPair):
            out = self.unify(Unknown(b1.fst), Unknown(b2.fst))
            return out.unify(Unknown(b1.snd), Unknown(b2.snd))
        if isinstance(b1, RFold) and isinstance(b2, RFold):
            return self.unify(Unknown(b1.child), Unknown(b2.child))
        if isinstance(b1, RSum) and isinstance(b2, RSum):
            # side by side, left first: a side both nodes keep survives
            # when its children unify; the node keeps `b1`'s children
            out, sides = self, [None, None]
            for k, (c1, c2) in enumerate(((b1.left, b2.left),
                                          (b1.right, b2.right))):
                if c1 is not None and c2 is not None:
                    tried = out.unify(Unknown(c1), Unknown(c2))
                    if not tried.failed:
                        out, sides[k] = tried, c1
            if sides == [None, None]:
                return self.fail()
            node = RSum(*sides, b1.ty)
            return out if node == b1 else out._set_binding(root, node)
        raise ContractViolation(f"merge of incompatible bindings {b1} / {b2}")

    def keep_side(self, root: int, node: RSum, left: bool) -> "ConstraintSet":
        """The store in which root, whose node ``expand`` gave as `node`,
        takes only its left (or right) injection, a side `node` keeps."""
        kept = (RSum(node.left, None, node.ty) if left else
                RSum(None, node.right, node.ty))
        return self if kept == node else self._set_binding(root, kept)

    def _set_binding(self, u: int, b) -> "ConstraintSet":
        bindings = dict(self.bindings)
        bindings[u] = b
        return self._with(bindings, self.cons, self.next_fresh)

    def _set_domain(self, root: int, dom: IntDomain) -> "ConstraintSet":
        """Write root's integer domain: failed when it is empty, else
        propagated from root."""
        out = self._set_binding(root, dom)
        if dom.is_empty():
            return out.fail()
        return out.propagate([root])

    def _unify_uv(self, u: int, v: Expr) -> "ConstraintSet":
        cs, root, b = self.expand(u)
        return cs._unify_shaped(root, b, v)

    def _unify_shaped(self, root: int, b, v: Expr) -> "ConstraintSet":
        """Unify root, whose binding ``expand`` gave as b, with the value v."""
        if isinstance(v, IntLit):
            only = IntDomain.bounded(v.value, v.value)
            return self._set_domain(root, self._domain(root).intersect(only))
        if isinstance(v, Unit):
            return self if b is None else self.fail()
        if isinstance(v, (Inl, Inr)):
            want_left = isinstance(v, Inl)
            if not isinstance(b, RSum) or \
                    (keep := b.left if want_left else b.right) is None:
                return self.fail()
            return self.keep_side(root, b, want_left).unify(Unknown(keep),
                                                            v.arg)
        if isinstance(v, Pair):
            if isinstance(b, RPair):
                out = self.unify(Unknown(b.fst), v.fst)
                return out.unify(Unknown(b.snd), v.snd)
            return self.fail()
        if isinstance(v, Fold):
            if isinstance(b, RFold):
                return self.unify(Unknown(b.child), v.arg)
            return self.fail()
        raise ContractViolation(f"unify unknown with non-pattern {v!r}")

    # -- integer constraints -------------------------------------------------

    def post_cmp(self, op: str, lhs, rhs, offset: int = 0) -> "ConstraintSet":
        """Assert  lhs OP rhs + offset; sides are Unknown nodes or ints.

        An unknown pinned to one integer is read as that integer: against
        a constant the other side is revised once, and two constants are
        compared.  Either way nothing is stored: a revision against a
        singleton keeps exactly the values that satisfy the comparison, and
        no later write widens a domain.  So ``cons`` only holds constraints
        posted between two unpinned unknowns.
        """
        if self.failed:
            return self
        lhs, rhs = self._read(lhs), self._read(rhs)
        if not isinstance(lhs, Unknown):
            if not isinstance(rhs, Unknown):
                return self if eval_op(op, lhs, rhs + offset) else self.fail()
            op, lhs, rhs, offset = flip_op(op), rhs, lhs - offset, 0
        if not isinstance(rhs, Unknown):
            root = self.find(lhs.uid)
            pin = rhs + offset
            return self._set_domain(root, revise(
                self._domain(root), op, IntDomain.bounded(pin, pin)))
        ra, rb = self.find(lhs.uid), self.find(rhs.uid)
        if ra == rb:
            return self if eval_op(op, 0, offset) else self.fail()
        c = Constraint(op, ra, rb, offset)
        cons = dict(self.cons)
        cons[ra] = cons.get(ra, ()) + (c,)
        cons[rb] = cons.get(rb, ()) + (c,)
        out = self._with(self.bindings, cons, self.next_fresh)
        return out.propagate([ra, rb])

    def _read(self, side):
        """A side of a comparison as its integer when it is one or an
        unknown pinned to one; any other unknown as it is."""
        if isinstance(side, Unknown):
            b = self.bindings.get(self.find(side.uid))
            if isinstance(b, IntDomain) and b.is_singleton():
                return b.min()
        return side

    def fresh_shifted(self, u: int, offset: int):
        """Mint w constrained to  w == u + offset.

        The new unknown starts from the shifted image of u's current
        interval rather than the default bounds, so a shift may carry
        values past the configured range without clamping u in return.
        A pinned u gives a pinned w, and no constraint is stored.
        """
        out, (w,) = self.fresh([_INT])
        out.bindings[w] = self._domain(u).shift(offset)  # `out`'s own copy
        return out.post_cmp("==", Unknown(w), Unknown(u), offset=offset), w

    def _domain(self, u: int) -> IntDomain:
        root, b = self.resolve(u)
        if isinstance(b, IntDomain):
            return b
        return _full(self.int_bounds)

    def _linked(self, seeds) -> list[Constraint]:
        """Every constraint reachable from the seeds (an iterable of ids)
        through shared ends."""
        if not self.cons:
            return []
        out: dict[Constraint, None] = {}
        seen: set[int] = set()
        todo = [self.find(s) for s in seeds]
        while todo:
            r = todo.pop()
            if r in seen:
                continue
            seen.add(r)
            for c in self.cons.get(r, ()):
                if c not in out:
                    out[c] = None
                    todo += (self.find(c.lhs), self.find(c.rhs))
        return list(out)

    def _solved_by(self, cons: list[Constraint], pick) -> bool:
        """Whether giving every unknown pick(its domain) satisfies `cons`."""
        return all(eval_op(c.op, pick(self._domain(c.lhs)),
                           pick(self._domain(c.rhs)) + c.offset)
                   for c in cons)

    def propagate(self, seeds: list[int]) -> "ConstraintSet":
        """AC-3 over the binary constraints, starting from the seeds."""
        if self.failed or not any(self.cons.get(self.find(s))
                                  for s in seeds):
            return self
        bindings = dict(self.bindings)
        full = _full(self.int_bounds)

        def domain(root: int) -> IntDomain:
            b = bindings.get(root)
            return b if isinstance(b, IntDomain) else full

        work: deque = deque()
        queued: set = set()

        def enqueue_for(root: int):
            # a merge concatenates two lists; `queued` skips a repeated `c`
            for c in self.cons.get(root, ()):
                for target in ("lhs", "rhs"):
                    key = (c, target)
                    if key not in queued:
                        queued.add(key)
                        work.append(key)

        for s in seeds:
            enqueue_for(self.find(s))

        failed = False
        while work:
            c, side = work.popleft()
            queued.discard((c, side))
            la, rb = self.find(c.lhs), self.find(c.rhs)
            if la == rb:
                if not eval_op(c.op, 0, c.offset):
                    failed = True
                    break
                continue
            if side == "lhs":
                target, newdom = la, revise(domain(la), c.op,
                                            domain(rb).shift(c.offset))
            else:
                target, newdom = rb, revise(domain(rb), flip_op(c.op),
                                            domain(la).shift(-c.offset))
            if newdom.intervals != domain(target).intervals:
                bindings[target] = newdom
                if newdom.is_empty():
                    failed = True
                    break
                enqueue_for(target)

        out = self._with(bindings, self.cons, self.next_fresh)
        return out.fail() if failed else out

    # -- singleton resolution -------------------------------------------------

    def index(self, u: int) -> Optional[Expr]:
        """The unknown's value if its range is a single value, else None."""
        if self.failed:
            return None
        b = self.resolve(u)[1]
        if b is None:
            return Unit()
        if isinstance(b, IntDomain):
            return IntLit(b.min()) if b.is_singleton() else None
        if isinstance(b, RPair):
            f = self.index(b.fst)
            s = None if f is None else self.index(b.snd)
            return None if s is None else Pair(f, s)
        if isinstance(b, RSum):
            if b.left is not None and b.right is not None:
                return None
            inj, c = (Inl, b.left) if b.right is None else (Inr, b.right)
            v = self.index(c)
            return inj(v, b.ty) if v is not None else None
        if isinstance(b, RFold):
            v = self.index(b.child)
            return Fold(v, b.ty) if v is not None else None
        if isinstance(b, Deferred):
            # a whole range may have no count; it is never read as one value
            if b.depth is None or \
                    _type_count(b.ty, self.int_bounds, b.depth) != 1:
                return None
            return _type_unrank(b.ty, 0, self.int_bounds, b.depth)
        raise ContractViolation(f"bad binding {b!r}")

    # -- counting and sampling -------------------------------------------------

    def count_values(self, u: int) -> int:
        """Exact size of the unknown's range, ignoring binary constraints.

        Raises ContractViolation on shared sub-unknowns (the count would be
        wrong) or unmaterialized recursive unknowns.
        """
        return self._count_table(u)[u]

    def _count_table(self, u: int) -> dict[int, int]:
        """The range size of u and of every unknown below it, by the id its
        parent node holds (``count_values``'s walk)."""
        counts: dict[int, int] = {}
        self._count(u, set(), counts)
        return counts

    def _count(self, uid: int, seen: set[int], counts: dict[int, int]) -> int:
        """uid's range size, written to `counts` with every size below it
        (a method: a self-recursive closure is a reference cycle, which
        keeps the store alive until a cyclic collection)."""
        root, b = self.resolve(uid)
        if root in seen:
            raise ContractViolation("shared unknown in counted range")
        seen.add(root)
        if b is None:
            n = 1
        elif isinstance(b, Deferred):
            n = _type_count(b.ty, self.int_bounds, b.depth)
        elif isinstance(b, IntDomain):
            n = b.size()
        elif isinstance(b, RPair):
            n = self._count(b.fst, seen, counts) \
                * self._count(b.snd, seen, counts)
        elif isinstance(b, (RFold, RSum)):
            n = sum(self._count(c, seen, counts) for c in _children(b))
        else:
            raise ContractViolation(f"bad binding {b!r}")
        counts[uid] = n
        return n

    def _unrank(self, u: int, i: int,
                counts: Optional[dict[int, int]] = None) -> Expr:
        """The i-th value of the unknown's range in structural order.

        `counts` is u's ``_count_table``, built here when not given.
        """
        if counts is None:
            counts = self._count_table(u)
        b = self.resolve(u)[1]
        if b is None:
            return Unit()
        if isinstance(b, Deferred):
            return _type_unrank(b.ty, i, self.int_bounds, b.depth)
        if isinstance(b, IntDomain):
            return IntLit(b.nth(i))
        if isinstance(b, RPair):
            n2 = counts[b.snd]
            return Pair(self._unrank(b.fst, i // n2, counts),
                        self._unrank(b.snd, i % n2, counts))
        if isinstance(b, RFold):
            return Fold(self._unrank(b.child, i, counts), b.ty)
        if isinstance(b, RSum):
            nl = 0 if b.left is None else counts[b.left]
            if i < nl:
                return Inl(self._unrank(b.left, i, counts), b.ty)
            return Inr(self._unrank(b.right, i - nl, counts), b.ty)
        raise ContractViolation(f"bad binding {b!r}")

    def sample(self, u: int) -> "SampleSpace":
        """The unknown's values as a lazy space of (value, pinned store)
        pairs, in structural order (left injections first, integer
        intervals ascending): a fixed range's one value, read by ``index``
        when the store holds no binary constraint, an integer unknown's
        domain, or any other range unranked from its count table.

        Nothing is pinned here.  ``SampleSpace.at`` pins the value it is
        asked for and keeps the pin by one rule, whatever the range size:
        the pin must not fail, and then either the all-least assignment of
        the constraints linked to the range's integer leaves is a solution
        or ``denote_restricted`` finds one among at most 4,096 candidate
        assignments (a check past that cap keeps the pin).
        """
        root, b = self.resolve(u)
        if self.failed:
            return SampleSpace(self, root, 0, [], None)
        if not self.cons and (v := self.index(root)) is not None:
            return SampleSpace(self, root, 1, [], lambda i: v)
        if type(b) is IntDomain:
            return SampleSpace(self, root, b.size(), self._linked((root,)),
                               lambda i: IntLit(b.nth(i)))
        counts = self._count_table(root)
        return SampleSpace(self, root, counts[root], self._linked(counts),
                           lambda i: self._unrank(root, i, counts))


@dataclass(unsafe_hash=True)
class SampleSpace:
    """The values of one unknown, each pinned when it is asked for.

    `count` is the size of the unknown's range, ignoring binary constraints,
    and `value(i)` is its i-th value: a fixed range's one value, an integer
    domain's i-th integer, or the value unranked from the range's count
    table (0 and None for a failed store).  ``at(i)`` pins the unknown to
    value i and returns (value, pinned store); the store is failed unless
    the pin passes the rule of ``ConstraintSet.sample``, and is `cset`
    itself, with nothing pinned, for a one-value range with nothing linked.
    Iteration yields the kept pairs in order.
    """

    cset: ConstraintSet
    root: int
    count: int
    linked: list[Constraint]
    value: Optional[Callable[[int], Expr]]

    def at(self, i: int):
        v = self.value(i)
        if self.count == 1 and not self.linked:
            return v, self.cset  # the store already denotes just v
        # unify has run AC-3 from every leaf it wrote
        pinned = self.cset.unify(Unknown(self.root), v)
        if pinned.failed or pinned._solved_by(self.linked, IntDomain.min):
            return v, pinned
        # a pin may be arc-consistent yet globally empty
        try:
            if not pinned.denote_restricted([self.root], cap=4096):
                return v, pinned.fail()
        except ContractViolation:
            pass
        return v, pinned

    def __iter__(self) -> Iterator:
        for i in range(self.count):
            v, pinned = self.at(i)
            if not pinned.failed:
                yield v, pinned


# ---------------------------------------------------------------------------
# Deferred ranges
#
# `depth` bounds the unrollings of recursive types as in ``Deferred``; a
# range with no depth bound (None) has no count under a recursive type.
# Values come in structural order: left injections first, pairs
# first-component-major, integers ascending.


@lru_cache(maxsize=_CACHE_SIZE)
def _nonempty(ty: Type, int_bounds, depth: int) -> bool:
    if isinstance(ty, TUnit):
        return True
    if isinstance(ty, TInt):
        return int_bounds[0] <= int_bounds[1]
    if isinstance(ty, TSum):
        return (_nonempty(ty.left, int_bounds, depth)
                or _nonempty(ty.right, int_bounds, depth))
    if isinstance(ty, TProd):
        return (_nonempty(ty.left, int_bounds, depth)
                and _nonempty(ty.right, int_bounds, depth))
    if isinstance(ty, TMu):
        return depth > 0 and _nonempty(_unfold_mu(ty), int_bounds, depth - 1)
    raise ContractViolation(f"cannot materialize type {ty}")


_RULED_OUT = object()


@lru_cache(maxsize=_CACHE_SIZE)
def _layout(ty: Type, depth: Optional[int], int_bounds):
    """How a deferred range of `ty` to `depth` unfolds: (node class, slots).

    A slot is ``_RULED_OUT`` for a ruled-out sum side (none is with no
    depth bound), else the child's binding as ``_range`` gives it, whose
    depth drops by one only across a fold.
    """
    if isinstance(ty, TMu):
        node, parts = RFold, [(_unfold_mu(ty),
                               None if depth is None else depth - 1)]
    elif isinstance(ty, TProd):
        node, parts = RPair, [(ty.left, depth), (ty.right, depth)]
    elif isinstance(ty, TSum):
        node, parts = RSum, [(t, depth) if depth is None
                             or _nonempty(t, int_bounds, depth)
                             else None for t in (ty.left, ty.right)]
    else:
        raise ContractViolation(f"cannot unfold a range of type {ty}")
    return node, tuple(_RULED_OUT if p is None else _range(*p, int_bounds)
                       for p in parts)


@lru_cache(maxsize=_CACHE_SIZE)
def _type_count(ty: Type, int_bounds, depth: Optional[int]) -> int:
    if isinstance(ty, TUnit):
        return 1
    if isinstance(ty, TInt):
        return _full(int_bounds).size()
    if isinstance(ty, TSum):
        return (_type_count(ty.left, int_bounds, depth)
                + _type_count(ty.right, int_bounds, depth))
    if isinstance(ty, TProd):
        return (_type_count(ty.left, int_bounds, depth)
                * _type_count(ty.right, int_bounds, depth))
    if isinstance(ty, TMu) and depth is not None:
        if depth <= 0:
            return 0
        return _type_count(_unfold_mu(ty), int_bounds, depth - 1)
    raise ContractViolation(f"cannot count values of type {ty}")


def _type_unrank(ty: Type, i: int, int_bounds, depth: Optional[int]) -> Expr:
    if isinstance(ty, TUnit):
        if i != 0:
            raise IndexError(i)
        return Unit()
    if isinstance(ty, TInt):
        return IntLit(_full(int_bounds).nth(i))
    if isinstance(ty, TSum):
        nl = _type_count(ty.left, int_bounds, depth)
        if i < nl:
            return Inl(_type_unrank(ty.left, i, int_bounds, depth), ty)
        return Inr(_type_unrank(ty.right, i - nl, int_bounds, depth), ty)
    if isinstance(ty, TProd):
        n2 = _type_count(ty.right, int_bounds, depth)
        return Pair(_type_unrank(ty.left, i // n2, int_bounds, depth),
                    _type_unrank(ty.right, i % n2, int_bounds, depth))
    if isinstance(ty, TMu) and depth is not None:
        if depth <= 0:
            raise IndexError(i)
        return Fold(_type_unrank(_unfold_mu(ty), i, int_bounds, depth - 1),
                    ty)
    raise ContractViolation(f"cannot enumerate type {ty}")


def _type_values(ty: Type, int_bounds, budget, depth: Optional[int]):
    n = _type_count(ty, int_bounds, depth)
    for i in range(n):
        budget[0] -= 1
        if budget[0] < 0:
            raise ContractViolation("denotation larger than cap")
        yield _type_unrank(ty, i, int_bounds, depth)
