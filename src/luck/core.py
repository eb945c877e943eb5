"""Core calculus: types, expressions, values, and the typechecker.

The core language is a small call-by-value lambda calculus over unit,
integers, binary sums, binary products, and iso-recursive types, extended
with three generator annotations: instantiation ``e <- (w1, w2)`` which
biases the two sides of a sum, sampling ``!e`` which forces an unknown to
a concrete value, and sequencing ``e1 ;' e2`` which evaluates e2 for its
constraint effects only.  Unknowns (logic variables) may appear anywhere a
value of flat (function-free) type is expected.

Nodes that take a value apart carry its type, as injections and ``fold``
carry the type they build: ``CaseSum`` a sum, ``CasePair`` a product and
``Unfold`` a recursive type.  Lowering fixes these once, so evaluators
that open a scrutinee into fresh unknowns read their types off the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping


class TypeCheckError(Exception):
    """Raised when an expression does not typecheck."""


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Type:
    """A type hashes its fields on first use and keeps the hash, which the
    store's caches would otherwise recompute down the whole type; pickles
    leave it out, since strings hash differently in another process."""

    _hash = None  # not a field: the instance's own copy is set once

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls.__hash__ = Type.__hash__  # set before @dataclass, which keeps it

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple(map(self.__getattribute__,
                               self.__dataclass_fields__)))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


@dataclass(frozen=True)
class TVar(Type):
    """A recursion variable bound by an enclosing mu."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TUnit(Type):
    """The one-value type."""

    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True)
class TInt(Type):
    """Primitive machine-width integers."""

    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class TSum(Type):
    """Binary sum T1 + T2."""

    left: Type
    right: Type

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class TProd(Type):
    """Binary product T1 * T2."""

    left: Type
    right: Type

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class TMu(Type):
    """Iso-recursive type mu X. T."""

    var: str
    body: Type

    def __str__(self) -> str:
        return f"(mu {self.var}. {self.body})"


@dataclass(frozen=True)
class TFun(Type):
    """Function type T1 -> T2; excluded from unknowns and samples."""

    arg: Type
    res: Type

    def __str__(self) -> str:
        return f"({self.arg} -> {self.res})"


BOOL = TSum(TUnit(), TUnit())


def is_flat(ty: Type) -> bool:
    """Flat types contain no arrows; only they may hold unknowns."""
    if isinstance(ty, (TUnit, TInt, TVar)):
        return True
    if isinstance(ty, (TSum, TProd)):
        return is_flat(ty.left) and is_flat(ty.right)
    if isinstance(ty, TMu):
        return is_flat(ty.body)
    return False


def type_eq(a: Type, b: Type) -> bool:
    """Structural equality up to renaming of mu-bound variables."""
    return _type_eq(a, b, {}, {})


def _type_eq(a: Type, b: Type, la: dict, lb: dict) -> bool:
    if isinstance(a, TVar) and isinstance(b, TVar):
        return la.get(a.name, a.name) == lb.get(b.name, b.name)
    if type(a) is not type(b):
        return False
    if isinstance(a, (TUnit, TInt)):
        return True
    if isinstance(a, (TSum, TProd)):
        return _type_eq(a.left, b.left, la, lb) and _type_eq(a.right, b.right, la, lb)
    if isinstance(a, TFun):
        return _type_eq(a.arg, b.arg, la, lb) and _type_eq(a.res, b.res, la, lb)
    if isinstance(a, TMu):
        mark = f"#{len(la)}"
        return _type_eq(
            a.body, b.body, {**la, a.var: mark}, {**lb, b.var: mark}
        )
    raise AssertionError(f"unhandled type {a!r}")


def subst_type(ty: Type, name: str, replacement: Type) -> Type:
    """Substitute a mu variable inside a type."""
    if isinstance(ty, TVar):
        return replacement if ty.name == name else ty
    if isinstance(ty, (TUnit, TInt)):
        return ty
    if isinstance(ty, TSum):
        return TSum(subst_type(ty.left, name, replacement),
                    subst_type(ty.right, name, replacement))
    if isinstance(ty, TProd):
        return TProd(subst_type(ty.left, name, replacement),
                     subst_type(ty.right, name, replacement))
    if isinstance(ty, TFun):
        return TFun(subst_type(ty.arg, name, replacement),
                    subst_type(ty.res, name, replacement))
    if isinstance(ty, TMu):
        if ty.var == name:
            return ty
        return TMu(ty.var, subst_type(ty.body, name, replacement))
    raise AssertionError(f"unhandled type {ty!r}")


def unfold_mu(ty: Type) -> Type:
    """One unrolling of mu X. T, i.e. T[X := mu X. T]."""
    if not isinstance(ty, TMu):
        raise TypeCheckError(f"unfold of non-recursive type {ty}")
    return subst_type(ty.body, ty.var, ty)


# ---------------------------------------------------------------------------
# Expressions


@dataclass(unsafe_hash=True)
class Expr:
    """A core node.  Nodes are immutable by convention: nothing assigns a
    field after construction, and equality and hashing read the fields.
    Narrowing, matching and the predicate semantics each compile a node
    once, on its first evaluation, and keep the code on the node by plain
    assignment to these attributes; they are not fields, so equality,
    hashing and printing ignore them."""

    _narrow = _match = _pred = None


@dataclass(unsafe_hash=True)
class Var(Expr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(unsafe_hash=True)
class Unit(Expr):
    def __str__(self) -> str:
        return "()"


@dataclass(unsafe_hash=True)
class IntLit(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(unsafe_hash=True)
class Pair(Expr):
    fst: Expr
    snd: Expr

    def __str__(self) -> str:
        return f"({self.fst}, {self.snd})"


@dataclass(unsafe_hash=True)
class CasePair(Expr):
    """case e of (x, y) -> body; ty is the product type of e."""

    scrut: Expr
    fst_name: str
    snd_name: str
    body: Expr
    ty: Type

    def __str__(self) -> str:
        return (f"case {self.scrut} of ({self.fst_name}, {self.snd_name})"
                f" -> {self.body}")


@dataclass(unsafe_hash=True)
class Inl(Expr):
    """Left injection annotated with the full sum type."""

    arg: Expr
    ty: Type

    def __str__(self) -> str:
        return f"inl {self.arg}"


@dataclass(unsafe_hash=True)
class Inr(Expr):
    arg: Expr
    ty: Type

    def __str__(self) -> str:
        return f"inr {self.arg}"


@dataclass(unsafe_hash=True)
class CaseSum(Expr):
    """case e of inl xl -> el | inr xr -> er; ty is the sum type of e."""

    scrut: Expr
    left_name: str
    left_body: Expr
    right_name: str
    right_body: Expr
    ty: Type

    def __str__(self) -> str:
        return (f"case {self.scrut} of inl {self.left_name} -> {self.left_body}"
                f" | inr {self.right_name} -> {self.right_body}")


@dataclass(unsafe_hash=True)
class Fold(Expr):
    """Roll a value into a recursive type; annotated with the mu type."""

    arg: Expr
    ty: Type

    def __str__(self) -> str:
        return f"fold {self.arg}"


@dataclass(unsafe_hash=True)
class Unfold(Expr):
    """Unroll a value of a recursive type; ty is that mu type."""

    arg: Expr
    ty: Type

    def __str__(self) -> str:
        return f"unfold {self.arg}"


@dataclass(unsafe_hash=True)
class Rec(Expr):
    """Recursive function value: rec f x. body."""

    fun_name: str
    arg_name: str
    arg_ty: Type
    body: Expr
    res_ty: Type

    def __str__(self) -> str:
        return f"(rec {self.fun_name} {self.arg_name}. {self.body})"


@dataclass(unsafe_hash=True)
class App(Expr):
    fun: Expr
    arg: Expr

    def __str__(self) -> str:
        return f"({self.fun} {self.arg})"


@dataclass(unsafe_hash=True)
class Unknown(Expr):
    """A logic variable, identified by a small integer."""

    uid: int

    def __str__(self) -> str:
        return f"?{self.uid}"


@dataclass(unsafe_hash=True)
class Inst(Expr):
    """e <- (w1, w2): bias the sum underneath e by integer weights."""

    arg: Expr
    w_left: Expr
    w_right: Expr

    def __str__(self) -> str:
        return f"({self.arg} <- ({self.w_left}, {self.w_right}))"


@dataclass(unsafe_hash=True)
class Bang(Expr):
    """!e: narrow e, then sample its unknowns to a single concrete value."""

    arg: Expr

    def __str__(self) -> str:
        return f"!{self.arg}"


@dataclass(unsafe_hash=True)
class After(Expr):
    """e1 ;' e2: the value of e1, after e2's constraints take effect."""

    main: Expr
    hook: Expr

    def __str__(self) -> str:
        return f"({self.main} ;' {self.hook})"


CMP_OPS = ("==", "/=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*", "/")


@dataclass(unsafe_hash=True)
class Cmp(Expr):
    """Integer comparison producing a boolean."""

    op: str
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(unsafe_hash=True)
class Arith(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(unsafe_hash=True)
class MatchFail(Expr):
    """The body of an implicit, always-failing match arm."""

    ty: Type

    def __str__(self) -> str:
        return "FAIL"


TRUE = Inl(Unit(), BOOL)
FALSE = Inr(Unit(), BOOL)


# An evaluation environment maps variable names to closed values.
# Evaluators extend it by copying ({**env, x: v}) and never mutate it.
Env = Mapping[str, Expr]
EMPTY_ENV: Env = MappingProxyType({})


@dataclass(unsafe_hash=True)
class Closure(Expr):
    """The value of a ``rec`` evaluated under an environment."""

    rec: Rec
    env: Env

    def body_env(self, arg: Expr) -> Env:
        """The environment the body runs under when applied to arg.

        The argument is bound last, so it shadows the function name, as it
        does in lowering and in `typecheck`.
        """
        return {**self.env, self.rec.fun_name: self,
                self.rec.arg_name: arg}

    def __str__(self) -> str:
        return str(self.rec)


def subst(e: Expr, name: str, value: Expr) -> Expr:
    """Substitute a closed value for a variable.

    Only closed values are ever substituted (call-by-value), so no capture
    can occur and no renaming is needed.
    """
    if isinstance(e, Var):
        return value if e.name == name else e
    if isinstance(e, (Unit, IntLit, Unknown, MatchFail)):
        return e
    if isinstance(e, Pair):
        return Pair(subst(e.fst, name, value), subst(e.snd, name, value))
    if isinstance(e, Inl):
        return Inl(subst(e.arg, name, value), e.ty)
    if isinstance(e, Inr):
        return Inr(subst(e.arg, name, value), e.ty)
    if isinstance(e, Fold):
        return Fold(subst(e.arg, name, value), e.ty)
    if isinstance(e, Unfold):
        return Unfold(subst(e.arg, name, value), e.ty)
    if isinstance(e, CasePair):
        body = e.body
        if name not in (e.fst_name, e.snd_name):
            body = subst(body, name, value)
        return CasePair(subst(e.scrut, name, value), e.fst_name, e.snd_name,
                        body, e.ty)
    if isinstance(e, CaseSum):
        lb = e.left_body if name == e.left_name else subst(e.left_body, name, value)
        rb = e.right_body if name == e.right_name else subst(e.right_body, name, value)
        return CaseSum(subst(e.scrut, name, value), e.left_name, lb,
                       e.right_name, rb, e.ty)
    if isinstance(e, Rec):
        if name in (e.fun_name, e.arg_name):
            return e
        return Rec(e.fun_name, e.arg_name, e.arg_ty,
                   subst(e.body, name, value), e.res_ty)
    if isinstance(e, App):
        return App(subst(e.fun, name, value), subst(e.arg, name, value))
    if isinstance(e, Inst):
        return Inst(subst(e.arg, name, value),
                    subst(e.w_left, name, value),
                    subst(e.w_right, name, value))
    if isinstance(e, Bang):
        return Bang(subst(e.arg, name, value))
    if isinstance(e, After):
        return After(subst(e.main, name, value), subst(e.hook, name, value))
    if isinstance(e, Cmp):
        return Cmp(e.op, subst(e.lhs, name, value), subst(e.rhs, name, value))
    if isinstance(e, Arith):
        return Arith(e.op, subst(e.lhs, name, value), subst(e.rhs, name, value))
    raise AssertionError(f"unhandled expression {e!r}")


# ---------------------------------------------------------------------------
# Typechecking


def typecheck(e: Expr, env: dict[str, Type] | None = None,
              utypes: dict[int, Type] | None = None) -> Type:
    """Infer the type of a lowered term or raise TypeCheckError.

    env maps bound variables to their types and utypes maps unknowns,
    which must be flat.  The type a ``CaseSum``, ``CasePair`` or
    ``Unfold`` carries must be the one inferred for its scrutinee.  No
    evaluator calls this: they trust those annotations, and tests check
    them here.
    """
    return _tc(e, env or {}, utypes or {})


def _expect(got: Type, want: Type, where: str) -> None:
    if not type_eq(got, want):
        raise TypeCheckError(f"{where}: expected {want}, got {got}")


def _annotated(e: Expr, kind: type, got: Type, where: str) -> Type:
    """The type e carries, checked to be a `kind` equal to the one got."""
    if not isinstance(e.ty, kind):
        raise TypeCheckError(f"{where} annotated with {e.ty}")
    _expect(got, e.ty, where)
    return e.ty


def _tc(e: Expr, env: dict[str, Type], utypes: dict[int, Type]) -> Type:
    if isinstance(e, Var):
        if e.name not in env:
            raise TypeCheckError(f"unbound variable {e.name}")
        return env[e.name]
    if isinstance(e, Unit):
        return TUnit()
    if isinstance(e, IntLit):
        return TInt()
    if isinstance(e, Unknown):
        if e.uid not in utypes:
            raise TypeCheckError(f"unknown ?{e.uid} has no declared type")
        ty = utypes[e.uid]
        if not is_flat(ty):
            raise TypeCheckError(f"unknown ?{e.uid} has non-flat type {ty}")
        return ty
    if isinstance(e, Pair):
        return TProd(_tc(e.fst, env, utypes), _tc(e.snd, env, utypes))
    if isinstance(e, CasePair):
        sty = _annotated(e, TProd, _tc(e.scrut, env, utypes), "pair case")
        return _tc(e.body, {**env, e.fst_name: sty.left,
                            e.snd_name: sty.right}, utypes)
    if isinstance(e, Inl):
        if not isinstance(e.ty, TSum):
            raise TypeCheckError(f"inl annotated with non-sum {e.ty}")
        _expect(_tc(e.arg, env, utypes), e.ty.left, "inl")
        return e.ty
    if isinstance(e, Inr):
        if not isinstance(e.ty, TSum):
            raise TypeCheckError(f"inr annotated with non-sum {e.ty}")
        _expect(_tc(e.arg, env, utypes), e.ty.right, "inr")
        return e.ty
    if isinstance(e, CaseSum):
        sty = _annotated(e, TSum, _tc(e.scrut, env, utypes), "sum case")
        lt = _tc(e.left_body, {**env, e.left_name: sty.left}, utypes)
        rt = _tc(e.right_body, {**env, e.right_name: sty.right}, utypes)
        _expect(rt, lt, "case arms")
        return lt
    if isinstance(e, Fold):
        if not isinstance(e.ty, TMu):
            raise TypeCheckError(f"fold annotated with non-mu {e.ty}")
        _expect(_tc(e.arg, env, utypes), unfold_mu(e.ty), "fold")
        return e.ty
    if isinstance(e, Unfold):
        return unfold_mu(_annotated(e, TMu, _tc(e.arg, env, utypes),
                                    "unfold"))
    if isinstance(e, Rec):
        fty = TFun(e.arg_ty, e.res_ty)
        inner = {**env, e.fun_name: fty, e.arg_name: e.arg_ty}
        _expect(_tc(e.body, inner, utypes), e.res_ty, "rec body")
        return fty
    if isinstance(e, App):
        fty = _tc(e.fun, env, utypes)
        if not isinstance(fty, TFun):
            raise TypeCheckError(f"application of non-function {fty}")
        _expect(_tc(e.arg, env, utypes), fty.arg, "argument")
        return fty.res
    if isinstance(e, Inst):
        ty = _tc(e.arg, env, utypes)
        if not isinstance(ty, TSum):
            raise TypeCheckError(f"instantiation of non-sum {ty}")
        _expect(_tc(e.w_left, env, utypes), TInt(), "left weight")
        _expect(_tc(e.w_right, env, utypes), TInt(), "right weight")
        return ty
    if isinstance(e, Bang):
        ty = _tc(e.arg, env, utypes)
        if not is_flat(ty):
            raise TypeCheckError(f"sample of non-flat type {ty}")
        return ty
    if isinstance(e, After):
        ty = _tc(e.main, env, utypes)
        _tc(e.hook, env, utypes)
        return ty
    if isinstance(e, Cmp):
        if e.op not in CMP_OPS:
            raise TypeCheckError(f"bad comparison {e.op}")
        _expect(_tc(e.lhs, env, utypes), TInt(), "comparison lhs")
        _expect(_tc(e.rhs, env, utypes), TInt(), "comparison rhs")
        return BOOL
    if isinstance(e, Arith):
        if e.op not in ARITH_OPS:
            raise TypeCheckError(f"bad operator {e.op}")
        _expect(_tc(e.lhs, env, utypes), TInt(), "operand")
        _expect(_tc(e.rhs, env, utypes), TInt(), "operand")
        return TInt()
    if isinstance(e, MatchFail):
        return e.ty
    raise AssertionError(f"unhandled expression {e!r}")


# ---------------------------------------------------------------------------
# Annotation erasure


def erase(e: Expr) -> Expr:
    """Strip generator annotations, leaving the plain boolean predicate.

    ``!e`` becomes e, ``e <- (w1,w2)`` becomes e, ``e1 ;' e2`` becomes e1.
    """
    if isinstance(e, (Var, Unit, IntLit, Unknown, MatchFail)):
        return e
    if isinstance(e, Pair):
        return Pair(erase(e.fst), erase(e.snd))
    if isinstance(e, Inl):
        return Inl(erase(e.arg), e.ty)
    if isinstance(e, Inr):
        return Inr(erase(e.arg), e.ty)
    if isinstance(e, Fold):
        return Fold(erase(e.arg), e.ty)
    if isinstance(e, Unfold):
        return Unfold(erase(e.arg), e.ty)
    if isinstance(e, CasePair):
        return CasePair(erase(e.scrut), e.fst_name, e.snd_name, erase(e.body),
                        e.ty)
    if isinstance(e, CaseSum):
        return CaseSum(erase(e.scrut), e.left_name, erase(e.left_body),
                       e.right_name, erase(e.right_body), e.ty)
    if isinstance(e, Rec):
        return Rec(e.fun_name, e.arg_name, e.arg_ty, erase(e.body), e.res_ty)
    if isinstance(e, App):
        return App(erase(e.fun), erase(e.arg))
    if isinstance(e, Inst):
        return erase(e.arg)
    if isinstance(e, Bang):
        return erase(e.arg)
    if isinstance(e, After):
        return erase(e.main)
    if isinstance(e, Cmp):
        return Cmp(e.op, erase(e.lhs), erase(e.rhs))
    if isinstance(e, Arith):
        return Arith(e.op, erase(e.lhs), erase(e.rhs))
    raise AssertionError(f"unhandled expression {e!r}")
