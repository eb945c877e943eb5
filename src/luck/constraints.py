"""Constraint sets: orthogonal maps of ranges plus integer interval domains.

A constraint set is an immutable snapshot holding, for every unknown, its
flat type and one of:

  * nothing (the unknown ranges over its whole type),
  * a deferred range: every value of its type within a recursion depth,
    not yet built (``Deferred``; the first unification or case split that
    looks inside unfolds it by one level),
  * a one-level range node whose children are further unknowns
    (unit / pair / fold / inl / inr / or a two-sided {inl, inr} node),
  * an integer interval domain (with binary comparison constraints
    attached off to the side), or
  * an alias to another unknown it has been unified with.

Every operation is functional: it returns a new constraint set, sharing
unchanged dictionaries with the old one.  Contradictions never raise; they
return a set whose store is failed.  Every write that empties an integer
domain fails the store, so ``sat`` is a flag test; this assumes non-empty
integer bounds, which the driver checks.  ``denote_restricted`` is a
deliberately naive brute-force enumeration of the store's meaning: the
ground truth in tests, and the last filter ``sample`` applies to small
ranges entangled with other unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

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


@dataclass(frozen=True)
class RUnit:
    """The unknown is the unit value."""

    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class RPair:
    fst: int
    snd: int

    def __str__(self) -> str:
        return f"(?{self.fst}, ?{self.snd})"


@dataclass(frozen=True)
class RInl:
    child: int

    def __str__(self) -> str:
        return f"inl ?{self.child}"


@dataclass(frozen=True)
class RInr:
    child: int

    def __str__(self) -> str:
        return f"inr ?{self.child}"


@dataclass(frozen=True)
class RBoth:
    """Either injection; both sides denote at least one value."""

    left: int
    right: int

    def __str__(self) -> str:
        return f"{{inl ?{self.left} | inr ?{self.right}}}"


@dataclass(frozen=True)
class RFold:
    child: int

    def __str__(self) -> str:
        return f"fold ?{self.child}"


@dataclass(frozen=True)
class Alias:
    target: int

    def __str__(self) -> str:
        return f"= ?{self.target}"


@dataclass(frozen=True)
class Deferred:
    """Every value of the unknown's type that unrolls recursive types at
    most `depth` times along any path; never empty.

    Nothing below it is built.  Unfolding it (``ConstraintSet.expand``)
    writes the one-level node and gives its children ids derived from
    `key`, so two branches that unfold the same range agree on the ids and
    ``union`` can join them id by id.
    """

    depth: int
    key: int

    def __str__(self) -> str:
        return f"<depth {self.depth}>"


# Deferred ranges unfold, count and test the same few (type, depth) pairs
# over and over; each computation walks or substitutes into the type.
_CACHE_SIZE = 4096
_unfold_mu = lru_cache(maxsize=_CACHE_SIZE)(unfold_mu)


def _child_id(key: int, slot: int) -> int:
    """The id of child `slot` (0 or 1) when the range `key` is unfolded.

    Negative, so it never meets an id minted by ``fresh``, and distinct for
    every (key, slot).
    """
    n = 2 * key if key >= 0 else -2 * key - 1
    return -(2 * n + slot + 1)


Binding = object  # RUnit | RPair | RInl | RInr | RBoth | RFold | IntDomain
#                   | Alias | Deferred


@dataclass(frozen=True)
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
SAMPLE_FILTER_CAP = 100_000


class ConstraintSet:
    """Immutable store of unknown types, ranges, domains, and constraints."""

    __slots__ = ("utypes", "bindings", "cons", "next_fresh", "failed",
                 "int_bounds")

    def __init__(self, utypes=None, bindings=None, cons=None, next_fresh=0,
                 failed=False, int_bounds=(MIN_INT, MAX_INT)):
        self.utypes: dict[int, Type] = utypes if utypes is not None else {}
        self.bindings: dict[int, Binding] = bindings if bindings is not None else {}
        self.cons: dict[int, tuple[Constraint, ...]] = cons if cons is not None else {}
        self.next_fresh: int = next_fresh
        self.failed: bool = failed
        self.int_bounds: tuple[int, int] = int_bounds

    # -- plumbing -----------------------------------------------------------

    def _copy(self, **kw) -> "ConstraintSet":
        return ConstraintSet(
            utypes=kw.get("utypes", self.utypes),
            bindings=kw.get("bindings", self.bindings),
            cons=kw.get("cons", self.cons),
            next_fresh=kw.get("next_fresh", self.next_fresh),
            failed=kw.get("failed", self.failed),
            int_bounds=kw.get("int_bounds", self.int_bounds),
        )

    def fail(self) -> "ConstraintSet":
        return self._copy(failed=True)

    def find(self, u: int) -> int:
        """Follow alias links to the representative unknown."""
        seen = 0
        while True:
            b = self.bindings.get(u)
            if isinstance(b, Alias):
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
        return self.utypes[self.find(u)]

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
        """Allocate unconstrained unknowns of the given flat types."""
        utypes = dict(self.utypes)
        bindings = dict(self.bindings)
        uids = []
        nxt = self.next_fresh
        for ty in types:
            if not is_flat(ty):
                raise ContractViolation(f"unknown of non-flat type {ty}")
            utypes[nxt] = ty
            if isinstance(ty, TInt):
                bindings[nxt] = IntDomain.bounded(*self.int_bounds)
            uids.append(nxt)
            nxt += 1
        return self._copy(utypes=utypes, bindings=bindings, next_fresh=nxt), uids

    def _mint(self, utypes, bindings, ty: Type, nxt: int,
              int_dom: Optional[IntDomain] = None):
        utypes[nxt] = ty
        if isinstance(ty, TInt):
            bindings[nxt] = int_dom if int_dom is not None \
                else IntDomain.bounded(*self.int_bounds)
        return nxt, nxt + 1

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
        if b is not None:
            return self, True  # already shaped; leave as is
        ty = self.utypes[root]
        out = self._set_binding(root, self._range_of(ty, depth, root))
        if not _nonempty(ty, self.int_bounds, depth):
            return out.fail(), False
        return out, True

    def _range_of(self, ty: Type, depth: int, key: int):
        """The binding of an unknown ranging over `ty` to `depth`."""
        if isinstance(ty, TUnit):
            return RUnit()
        if isinstance(ty, TInt):
            return IntDomain.bounded(*self.int_bounds)
        return Deferred(depth, key)

    def expand(self, u: int):
        """(set', representative, binding), a deferred range unfolded.

        Any other binding comes back as it is.
        """
        root, b = self.resolve(u)
        if not isinstance(b, Deferred):
            return self, root, b
        out, level = self._unfold(b, self.utypes[root], holder=root)
        return out, root, level

    def _unfold(self, d: Deferred, ty: Type, holder: Optional[int] = None):
        """One level of the deferred range `d` over `ty`: (set', binding).

        The binding is the node the range's top unknown needs, over
        children minted with their own ranges; the depth drops by one only
        across a fold.  With `holder`, the binding is also written there.
        """
        utypes = dict(self.utypes)
        bindings = dict(self.bindings)

        def child(slot: int, cty: Type, depth: int) -> int:
            c = _child_id(d.key, slot)
            utypes[c] = cty
            bindings[c] = self._range_of(cty, depth, c)
            return c

        if isinstance(ty, TMu):
            level = RFold(child(0, _unfold_mu(ty), d.depth - 1))
        elif isinstance(ty, TProd):
            level = RPair(child(0, ty.left, d.depth),
                          child(1, ty.right, d.depth))
        elif isinstance(ty, TSum):
            okl = _nonempty(ty.left, self.int_bounds, d.depth)
            okr = _nonempty(ty.right, self.int_bounds, d.depth)
            if okl and okr:
                level = RBoth(child(0, ty.left, d.depth),
                              child(1, ty.right, d.depth))
            elif okl:
                level = RInl(child(0, ty.left, d.depth))
            else:
                level = RInr(child(1, ty.right, d.depth))
        else:
            raise ContractViolation(f"cannot unfold a range of type {ty}")
        if holder is not None:
            bindings[holder] = level
        return self._copy(utypes=utypes, bindings=bindings), level

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

        def reach(u: int):
            r = self.find(u)
            if r in seen:
                return
            seen.add(r)
            b = self.bindings.get(r)
            if isinstance(b, (RPair, RBoth)):
                reach(b.fst if isinstance(b, RPair) else b.left)
                reach(b.snd if isinstance(b, RPair) else b.right)
            elif isinstance(b, (RInl, RInr, RFold)):
                reach(b.child)
            elif isinstance(b, IntDomain):
                for c in self.cons.get(r, ()) + tuple(
                        c for key, cs in self.cons.items()
                        if self.find(key) == r for c in cs):
                    reach(c.lhs)
                    reach(c.rhs)

        for u in us:
            reach(u)
        # adjacency keys may be stale ids; second pass closes over them
        changed = True
        while changed:
            changed = False
            for key, cs in self.cons.items():
                for c in cs:
                    if self.find(c.lhs) in seen or self.find(c.rhs) in seen:
                        for end in (c.lhs, c.rhs):
                            if self.find(end) not in seen:
                                reach(end)
                                changed = True

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
                yield from assign_top(r, self.utypes[r], asg, None)
            elif isinstance(b, Deferred):
                yield from assign_top(r, self.utypes[r], asg, b.depth)
            elif isinstance(b, RUnit):
                a2 = dict(asg)
                a2[r] = Unit()
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
            elif isinstance(b, (RInl, RInr)):
                ty = self.utypes[r]
                for a2 in assign_one(b.child, asg):
                    a3 = dict(a2)
                    inj = Inl if isinstance(b, RInl) else Inr
                    a3[r] = inj(a2[self.find(b.child)], ty)
                    yield a3
            elif isinstance(b, RBoth):
                ty = self.utypes[r]
                for a2 in assign_one(b.left, asg):
                    a3 = dict(a2)
                    a3[r] = Inl(a2[self.find(b.left)], ty)
                    yield a3
                for a2 in assign_one(b.right, asg):
                    a3 = dict(a2)
                    a3[r] = Inr(a2[self.find(b.right)], ty)
                    yield a3
            elif isinstance(b, RFold):
                ty = self.utypes[r]
                for a2 in assign_one(b.child, asg):
                    a3 = dict(a2)
                    a3[r] = Fold(a2[self.find(b.child)], ty)
                    yield a3
            else:
                raise ContractViolation(f"bad binding {b!r}")

        def assign_top(r: int, ty: Type, asg: dict, depth: Optional[int]):
            if isinstance(ty, TUnit):
                a2 = dict(asg)
                a2[r] = Unit()
                yield a2
            elif isinstance(ty, TInt):
                raise AssertionError("int unknowns always carry a domain")
            elif isinstance(ty, TMu) and depth is None:
                raise ContractViolation(
                    "denotation of unmaterialized recursive unknown")
            elif isinstance(ty, (TSum, TProd, TMu)):
                # expand virtually without minting
                for val in _type_values(ty, self.int_bounds, budget, depth):
                    a2 = dict(asg)
                    a2[r] = val
                    yield a2
            else:
                raise ContractViolation(f"cannot enumerate type {ty}")

        all_cons = []
        for key, cs in self.cons.items():
            for c in cs:
                if c not in all_cons:
                    all_cons.append(c)

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
        if isinstance(a, Unknown) and isinstance(b, Unknown):
            return self._unify_uu(a.uid, b.uid)
        if isinstance(a, Unknown):
            return self._unify_uv(a.uid, b)
        if isinstance(b, Unknown):
            return self._unify_uv(b.uid, a)
        return self._unify_vv(a, b)

    def _unify_vv(self, a: Expr, b: Expr) -> "ConstraintSet":
        if isinstance(a, Unit) and isinstance(b, Unit):
            return self
        if isinstance(a, IntLit) and isinstance(b, IntLit):
            return self if a.value == b.value else self.fail()
        if isinstance(a, Pair) and isinstance(b, Pair):
            out = self.unify(a.fst, b.fst)
            return out.unify(a.snd, b.snd)
        if isinstance(a, Inl) and isinstance(b, Inl):
            return self.unify(a.arg, b.arg)
        if isinstance(a, Inr) and isinstance(b, Inr):
            return self.unify(a.arg, b.arg)
        if isinstance(a, Fold) and isinstance(b, Fold):
            return self.unify(a.arg, b.arg)
        if (isinstance(a, (Inl, Inr)) and isinstance(b, (Inl, Inr))):
            return self.fail()
        raise ContractViolation(f"unify of non-values {a} ~ {b}")

    def _unify_uu(self, ua: int, ub: int) -> "ConstraintSet":
        ra, rb = self.find(ua), self.find(ub)
        if ra == rb:
            return self
        small, large = (ra, rb) if ra < rb else (rb, ra)
        bs, bl = self.bindings.get(small), self.bindings.get(large)

        bindings = dict(self.bindings)
        cons = dict(self.cons)
        bindings[large] = Alias(small)
        if bs is None and bl is not None:
            bindings[small] = bl
        merged_cons = self.cons.get(small, ()) + self.cons.get(large, ())
        if merged_cons:
            cons[small] = merged_cons
            cons.pop(large, None)
        out = self._copy(bindings=bindings, cons=cons)

        if bl is None or bs is None:
            return out._propagate_ok(small)
        return out._merge_bindings(small, bs, bl)

    def _merge_bindings(self, root: int, b1, b2) -> "ConstraintSet":
        if isinstance(b1, Deferred) and isinstance(b2, Deferred):
            # two whole ranges of one type: the shallower is their meet
            return self._set_binding(root, b2 if b2.depth < b1.depth else b1)
        if isinstance(b1, Deferred):
            out, b1 = self._unfold(b1, self.utypes[root], holder=root)
            return out._merge_bindings(root, b1, b2)
        if isinstance(b2, Deferred):
            out, b2 = self._unfold(b2, self.utypes[root])
            return out._merge_bindings(root, b1, b2)
        if isinstance(b1, IntDomain) and isinstance(b2, IntDomain):
            dom = b1.intersect(b2)
            out = self._set_binding(root, dom)
            if dom.is_empty():
                return out.fail()
            return out.propagate([root])
        if isinstance(b1, RUnit) and isinstance(b2, RUnit):
            return self
        if isinstance(b1, RPair) and isinstance(b2, RPair):
            out = self.unify(Unknown(b1.fst), Unknown(b2.fst))
            return out.unify(Unknown(b1.snd), Unknown(b2.snd))
        if isinstance(b1, RFold) and isinstance(b2, RFold):
            return self.unify(Unknown(b1.child), Unknown(b2.child))
        if isinstance(b1, RInl) and isinstance(b2, RInl):
            return self.unify(Unknown(b1.child), Unknown(b2.child))
        if isinstance(b1, RInr) and isinstance(b2, RInr):
            return self.unify(Unknown(b1.child), Unknown(b2.child))
        if isinstance(b1, RInl) and isinstance(b2, RInr):
            return self.fail()
        if isinstance(b1, RInr) and isinstance(b2, RInl):
            return self.fail()
        if isinstance(b1, RBoth) and isinstance(b2, (RInl, RInr)):
            side = b2.child
            keep = b1.left if isinstance(b2, RInl) else b1.right
            out = self._set_binding(root, type(b2)(keep))
            return out.unify(Unknown(keep), Unknown(side))
        if isinstance(b2, RBoth) and isinstance(b1, (RInl, RInr)):
            keep = b2.left if isinstance(b1, RInl) else b2.right
            out = self._set_binding(root, type(b1)(b1.child))
            return out.unify(Unknown(b1.child), Unknown(keep))
        if isinstance(b1, RBoth) and isinstance(b2, RBoth):
            tryl = self.unify(Unknown(b1.left), Unknown(b2.left))
            if not tryl.failed:
                both = tryl.unify(Unknown(b1.right), Unknown(b2.right))
                if not both.failed:
                    return both._set_binding(root, b1)
                return tryl._set_binding(root, RInl(b1.left))
            tryr = self.unify(Unknown(b1.right), Unknown(b2.right))
            if not tryr.failed:
                return tryr._set_binding(root, RInr(b1.right))
            return self.fail()
        raise ContractViolation(f"merge of incompatible bindings {b1} / {b2}")

    def _set_binding(self, u: int, b) -> "ConstraintSet":
        bindings = dict(self.bindings)
        bindings[u] = b
        return self._copy(bindings=bindings)

    def _unify_uv(self, u: int, v: Expr) -> "ConstraintSet":
        cs, root, b = self.expand(u)
        return cs._unify_shaped(root, b, v)

    def _unify_shaped(self, root: int, b, v: Expr) -> "ConstraintSet":
        if isinstance(v, IntLit):
            dom = b if isinstance(b, IntDomain) \
                else IntDomain.bounded(*self.int_bounds)
            dom = dom.intersect(IntDomain.of_values([v.value]))
            out = self._set_binding(root, dom)
            if dom.is_empty():
                return out.fail()
            return out.propagate([root])
        if isinstance(v, Unit):
            if b is None:
                return self._set_binding(root, RUnit())
            return self if isinstance(b, RUnit) else self.fail()
        if isinstance(v, (Inl, Inr)):
            want_left = isinstance(v, Inl)
            if b is None:
                ty = self.utypes[root]
                if not isinstance(ty, TSum):
                    return self.fail()
                side_ty = ty.left if want_left else ty.right
                utypes = dict(self.utypes)
                bindings = dict(self.bindings)
                child, nxt = self._mint(utypes, bindings, side_ty,
                                        self.next_fresh)
                bindings[root] = RInl(child) if want_left else RInr(child)
                out = self._copy(utypes=utypes, bindings=bindings,
                                 next_fresh=nxt)
                return out.unify(Unknown(child), v.arg)
            if isinstance(b, RBoth):
                keep = b.left if want_left else b.right
                out = self._set_binding(root,
                                        RInl(keep) if want_left else RInr(keep))
                return out.unify(Unknown(keep), v.arg)
            if isinstance(b, RInl) and want_left:
                return self.unify(Unknown(b.child), v.arg)
            if isinstance(b, RInr) and not want_left:
                return self.unify(Unknown(b.child), v.arg)
            return self.fail()
        if isinstance(v, Pair):
            if b is None:
                ty = self.utypes[root]
                if not isinstance(ty, TProd):
                    return self.fail()
                utypes = dict(self.utypes)
                bindings = dict(self.bindings)
                fu, nxt = self._mint(utypes, bindings, ty.left, self.next_fresh)
                su, nxt = self._mint(utypes, bindings, ty.right, nxt)
                bindings[root] = RPair(fu, su)
                out = self._copy(utypes=utypes, bindings=bindings,
                                 next_fresh=nxt)
                return out.unify(Unknown(fu), v.fst).unify(Unknown(su), v.snd)
            if isinstance(b, RPair):
                out = self.unify(Unknown(b.fst), v.fst)
                return out.unify(Unknown(b.snd), v.snd)
            return self.fail()
        if isinstance(v, Fold):
            if b is None:
                ty = self.utypes[root]
                if not isinstance(ty, TMu):
                    return self.fail()
                utypes = dict(self.utypes)
                bindings = dict(self.bindings)
                cu, nxt = self._mint(utypes, bindings, unfold_mu(ty),
                                     self.next_fresh)
                bindings[root] = RFold(cu)
                out = self._copy(utypes=utypes, bindings=bindings,
                                 next_fresh=nxt)
                return out.unify(Unknown(cu), v.arg)
            if isinstance(b, RFold):
                return self.unify(Unknown(b.child), v.arg)
            return self.fail()
        raise ContractViolation(f"unify unknown with non-pattern {v!r}")

    # -- integer constraints -------------------------------------------------

    def post_cmp(self, op: str, lhs, rhs, offset: int = 0) -> "ConstraintSet":
        """Assert  lhs OP rhs + offset; sides are Unknown nodes or ints."""
        if self.failed:
            return self
        if not isinstance(lhs, Unknown) and not isinstance(rhs, Unknown):
            return self if eval_op(op, lhs, rhs + offset) else self.fail()
        if isinstance(lhs, Unknown) and not isinstance(rhs, Unknown):
            root, b = self.resolve(lhs.uid)
            dom = b if isinstance(b, IntDomain) \
                else IntDomain.bounded(*self.int_bounds)
            dom = dom.restrict_op_const(op, rhs + offset)
            out = self._set_binding(root, dom)
            if dom.is_empty():
                return out.fail()
            return out.propagate([root])
        if not isinstance(lhs, Unknown) and isinstance(rhs, Unknown):
            return self.post_cmp(flip_op(op), rhs, lhs - offset)
        ra, rb = self.find(lhs.uid), self.find(rhs.uid)
        if ra == rb:
            return self if eval_op(op, 0, offset) else self.fail()
        c = Constraint(op, ra, rb, offset)
        cons = dict(self.cons)
        cons[ra] = cons.get(ra, ()) + (c,)
        cons[rb] = cons.get(rb, ()) + (c,)
        return self._copy(cons=cons).propagate([ra, rb])

    def fresh_shifted(self, u: int, offset: int):
        """Mint w constrained to  w == u + offset.

        The new unknown starts from the shifted image of u's current
        interval rather than the default bounds, so a shift may carry
        values past the configured range without clamping u in return.
        """
        utypes = dict(self.utypes)
        bindings = dict(self.bindings)
        dom = self._domain(u).shift(offset)
        w, nxt = self._mint(utypes, bindings, TInt(), self.next_fresh,
                            int_dom=dom)
        out = self._copy(utypes=utypes, bindings=bindings, next_fresh=nxt)
        return out.post_cmp("==", Unknown(w), Unknown(u), offset=offset), w

    def _domain(self, u: int) -> IntDomain:
        root, b = self.resolve(u)
        if isinstance(b, IntDomain):
            return b
        return IntDomain.bounded(*self.int_bounds)

    def _constraints_of(self, root: int) -> list[Constraint]:
        out = []
        for key, cs in self.cons.items():
            if self.find(key) == root:
                for c in cs:
                    if c not in out:
                        out.append(c)
        return out

    def propagate(self, seeds: list[int]) -> "ConstraintSet":
        """AC-3 over the binary constraints, starting from the seeds."""
        if self.failed:
            return self
        from collections import deque

        bindings = dict(self.bindings)

        def domain(root: int) -> IntDomain:
            b = bindings.get(root)
            if isinstance(b, IntDomain):
                return b
            return IntDomain.bounded(*self.int_bounds)

        work: deque = deque()
        queued: set = set()

        def enqueue_for(root: int):
            for c in self._constraints_of(root):
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

        out = self._copy(bindings=bindings)
        return out.fail() if failed else out

    def _propagate_ok(self, root: int) -> "ConstraintSet":
        b = self.bindings.get(root)
        if isinstance(b, IntDomain):
            if b.is_empty():
                return self.fail()
            return self.propagate([root])
        return self

    # -- singleton resolution -------------------------------------------------

    def index(self, u: int) -> Optional[Expr]:
        """The unknown's value if its range is a single value, else None."""
        if self.failed:
            return None
        root, b = self.resolve(u)
        if b is None:
            return Unit() if isinstance(self.utypes[root], TUnit) else None
        if isinstance(b, RUnit):
            return Unit()
        if isinstance(b, IntDomain):
            return IntLit(b.min()) if b.is_singleton() else None
        if isinstance(b, RPair):
            f = self.index(b.fst)
            s = self.index(b.snd)
            return Pair(f, s) if f is not None and s is not None else None
        if isinstance(b, RInl):
            v = self.index(b.child)
            return Inl(v, self.utypes[root]) if v is not None else None
        if isinstance(b, RInr):
            v = self.index(b.child)
            return Inr(v, self.utypes[root]) if v is not None else None
        if isinstance(b, RFold):
            v = self.index(b.child)
            return Fold(v, self.utypes[root]) if v is not None else None
        if isinstance(b, RBoth):
            return None
        if isinstance(b, Deferred):
            ty = self.utypes[root]
            if _type_count(ty, self.int_bounds, b.depth) != 1:
                return None
            return _type_unrank(ty, 0, self.int_bounds, b.depth)
        raise ContractViolation(f"bad binding {b!r}")

    # -- counting and sampling -------------------------------------------------

    def count_values(self, u: int) -> int:
        """Exact size of the unknown's range, ignoring binary constraints.

        Raises ContractViolation on shared sub-unknowns (the count would be
        wrong) or unmaterialized recursive unknowns.
        """
        seen: set[int] = set()

        def go(uid: int) -> int:
            root, b = self.resolve(uid)
            if root in seen:
                raise ContractViolation("shared unknown in counted range")
            seen.add(root)
            if b is None:
                return _type_count(self.utypes[root], self.int_bounds, None)
            if isinstance(b, Deferred):
                return _type_count(self.utypes[root], self.int_bounds,
                                   b.depth)
            if isinstance(b, RUnit):
                return 1
            if isinstance(b, IntDomain):
                return b.size()
            if isinstance(b, RPair):
                return go(b.fst) * go(b.snd)
            if isinstance(b, RInl) or isinstance(b, RInr) \
                    or isinstance(b, RFold):
                return go(b.child)
            if isinstance(b, RBoth):
                return go(b.left) + go(b.right)
            raise ContractViolation(f"bad binding {b!r}")

        return go(u)

    def _unrank(self, u: int, i: int) -> Expr:
        """The i-th value of the unknown's range in structural order."""
        root, b = self.resolve(u)
        ty = self.utypes[root]
        if b is None:
            return _type_unrank(ty, i, self.int_bounds, None)
        if isinstance(b, Deferred):
            return _type_unrank(ty, i, self.int_bounds, b.depth)
        if isinstance(b, RUnit):
            if i != 0:
                raise IndexError(i)
            return Unit()
        if isinstance(b, IntDomain):
            return IntLit(b.nth(i))
        if isinstance(b, RPair):
            n2 = self.count_values(b.snd)
            return Pair(self._unrank(b.fst, i // n2),
                        self._unrank(b.snd, i % n2))
        if isinstance(b, RInl):
            return Inl(self._unrank(b.child, i), ty)
        if isinstance(b, RInr):
            return Inr(self._unrank(b.child, i), ty)
        if isinstance(b, RFold):
            return Fold(self._unrank(b.child, i), ty)
        if isinstance(b, RBoth):
            nl = self.count_values(b.left)
            if i < nl:
                return Inl(self._unrank(b.left, i), ty)
            return Inr(self._unrank(b.right, i - nl), ty)
        raise ContractViolation(f"bad binding {b!r}")

    def _range_leaves(self, u: int, acc: list[int]) -> None:
        root, b = self.resolve(u)
        if isinstance(b, IntDomain):
            acc.append(root)
        elif isinstance(b, RPair):
            self._range_leaves(b.fst, acc)
            self._range_leaves(b.snd, acc)
        elif isinstance(b, (RInl, RInr, RFold)):
            self._range_leaves(b.child, acc)
        elif isinstance(b, RBoth):
            self._range_leaves(b.left, acc)
            self._range_leaves(b.right, acc)

    def sample(self, u: int) -> "SampleSpace":
        """Split the store into one branch per value of the unknown.

        Values come out in structural order (left injections first, integer
        intervals ascending).  Small spaces whose integer leaves carry
        binary constraints are materialized and filtered for
        satisfiability.  The others are virtual: when no leaf is
        constrained every value pins consistently, and large spaces assume
        the unknown's integer leaves are not entangled with other live
        unknowns.
        """
        root = self.find(u)
        total = self.count_values(root)
        if total > SAMPLE_FILTER_CAP:
            return SampleSpace(virtual=(self, root, total))
        leaves: list[int] = []
        self._range_leaves(root, leaves)
        if not self.failed and not any(self._constraints_of(lf)
                                       for lf in leaves):
            return SampleSpace(virtual=(self, root, total))
        sets = []
        for i in range(total):
            v = self._unrank(root, i)
            pinned = self.unify(Unknown(root), v).propagate(leaves)
            if pinned.sat():
                # a pin may be arc-consistent yet globally empty
                try:
                    if not pinned.denote_restricted([root], cap=4096):
                        continue
                except ContractViolation:
                    pass
                sets.append((v, pinned))
        return SampleSpace(sets=sets)


class SampleSpace:
    """The result of sample(): a sequence of (value, pinned-store) pairs."""

    def __init__(self, sets=None, virtual=None):
        self._sets = sets
        self._virtual = virtual

    @property
    def count(self) -> int:
        if self._sets is not None:
            return len(self._sets)
        return self._virtual[2]

    def at(self, i: int):
        if self._sets is not None:
            return self._sets[i]
        cset, root, _ = self._virtual
        v = cset._unrank(root, i)
        leaves: list[int] = []
        cset._range_leaves(root, leaves)
        return v, cset.unify(Unknown(root), v).propagate(leaves)

    def __iter__(self) -> Iterator:
        for i in range(self.count):
            yield self.at(i)


# ---------------------------------------------------------------------------
# Whole-type ranges: unknowns never given a shaped range, and deferred ones
#
# `depth` bounds the unrollings of recursive types as in ``Deferred``; None
# (an unknown without a range) admits no recursive type at all.  Values come in structural order: left
# injections first, pairs first-component-major, integers ascending.


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


@lru_cache(maxsize=_CACHE_SIZE)
def _type_count(ty: Type, int_bounds, depth: Optional[int]) -> int:
    if isinstance(ty, TUnit):
        return 1
    if isinstance(ty, TInt):
        return IntDomain.bounded(*int_bounds).size()
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
        return IntLit(IntDomain.bounded(*int_bounds).nth(i))
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


# ---------------------------------------------------------------------------
# Union and renaming


def union(a: ConstraintSet, b: ConstraintSet) -> ConstraintSet:
    """A store whose denotation contains both arguments' denotations.

    Exact when the two stores differ only in integer domains, injection
    pinnings and unfoldings of deferred ranges over the same unknowns (the
    comparison-matching footprint); anything else widens the differing
    unknown to its whole type.
    """
    if a.failed:
        return b
    if b.failed:
        return a
    utypes = dict(b.utypes)
    utypes.update(a.utypes)
    bindings: dict[int, Binding] = {}
    uids = set(a.bindings) | set(b.bindings)
    dropped: set[int] = set()
    for u in sorted(uids):
        b1 = a.bindings.get(u)
        b2 = b.bindings.get(u)
        if b1 == b2:
            if b1 is not None:
                bindings[u] = b1
            continue
        if b1 is None or b2 is None:
            # one side unconstrained: widen to the whole type
            dropped.add(u)
            continue
        if isinstance(b1, IntDomain) and isinstance(b2, IntDomain):
            bindings[u] = b1.union(b2)
        elif isinstance(b1, RInl) and isinstance(b2, RInr):
            bindings[u] = RBoth(b1.child, b2.child)
        elif isinstance(b1, RInr) and isinstance(b2, RInl):
            bindings[u] = RBoth(b2.child, b1.child)
        elif isinstance(b1, RInl) and isinstance(b2, RBoth) \
                and b1.child == b2.left:
            bindings[u] = b2
        elif isinstance(b1, RInr) and isinstance(b2, RBoth) \
                and b1.child == b2.right:
            bindings[u] = b2
        elif isinstance(b2, RInl) and isinstance(b1, RBoth) \
                and b2.child == b1.left:
            bindings[u] = b1
        elif isinstance(b2, RInr) and isinstance(b1, RBoth) \
                and b2.child == b1.right:
            bindings[u] = b1
        elif (joined := _join_deferred(b1, b2)) is not None:
            bindings[u] = joined
        else:
            if not isinstance(utypes.get(u), TMu):
                dropped.add(u)
            else:
                raise ContractViolation(
                    f"union cannot join recursive bindings for ?{u}")
    cons: dict[int, tuple[Constraint, ...]] = {}
    for u in set(a.cons) | set(b.cons):
        common = tuple(c for c in a.cons.get(u, ()) if c in b.cons.get(u, ()))
        live = tuple(c for c in common
                     if c.lhs not in dropped and c.rhs not in dropped)
        if live:
            cons[u] = live
    return ConstraintSet(
        utypes=utypes,
        bindings=bindings,
        cons=cons,
        next_fresh=max(a.next_fresh, b.next_fresh),
        failed=False,
        int_bounds=a.int_bounds,
    )


def _join_deferred(b1, b2):
    """The union of two bindings of one unknown when one is a deferred range
    covering the other, else None.

    Two deferred ranges of one type join to the deeper one.  A deferred
    range covers every node unfolded from it, however refined below: an
    unfolding made in only one branch is not widened to the whole type.
    """
    if isinstance(b1, Deferred) and isinstance(b2, Deferred):
        return b1 if b1.depth >= b2.depth else b2
    d, node = (b1, b2) if isinstance(b1, Deferred) else (b2, b1)
    if not isinstance(d, Deferred):
        return None
    if isinstance(node, (RFold, RInl, RInr)):
        children = {node.child}
    elif isinstance(node, RPair):
        children = {node.fst, node.snd}
    elif isinstance(node, RBoth):
        children = {node.left, node.right}
    else:
        return None
    if children <= {_child_id(d.key, 0), _child_id(d.key, 1)}:
        return d
    return None


def rename(uids: list[int], cset: ConstraintSet, floor: int = 0):
    """Rename the given unknowns to fresh ids; returns (set', mapping).

    The new ids start at max(cset.next_fresh, floor), so a caller merging
    the result into another store can keep the two id spaces disjoint.
    """
    mapping: dict[int, int] = {}
    nxt = max(cset.next_fresh, floor)
    for u in uids:
        mapping[u] = nxt
        nxt += 1

    def m(u: int) -> int:
        return mapping.get(u, u)

    def mb(b):
        if isinstance(b, RPair):
            return RPair(m(b.fst), m(b.snd))
        if isinstance(b, RInl):
            return RInl(m(b.child))
        if isinstance(b, RInr):
            return RInr(m(b.child))
        if isinstance(b, RFold):
            return RFold(m(b.child))
        if isinstance(b, RBoth):
            return RBoth(m(b.left), m(b.right))
        if isinstance(b, Alias):
            return Alias(m(b.target))
        return b

    utypes = {m(u): t for u, t in cset.utypes.items()}
    bindings = {m(u): mb(b) for u, b in cset.bindings.items()}
    cons = {}
    for u, cs in cset.cons.items():
        cons[m(u)] = tuple(
            Constraint(c.op, m(c.lhs), m(c.rhs), c.offset) for c in cs)
    out = ConstraintSet(utypes=utypes, bindings=bindings, cons=cons,
                        next_fresh=nxt, failed=cset.failed,
                        int_bounds=cset.int_bounds)
    return out, mapping
