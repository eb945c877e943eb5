"""Surface-to-core lowering.

The core has only sums, products and iso-recursive types, so every
tuple and datatype value has one layout:
- the k-th of n constructors sits under k `Inr`s, with an `Inl` on top
  unless it is the last;
- its fields are right-nested pairs, or unit when it has none;
- the whole value is a fold when the datatype mentions itself.
A tuple is the one constructor, named "", of its type, and Bool and
List are datatypes of `surface.PRELUDE`, which the parser has already
turned list syntax into.
`Program._data_type` lays out the types; `Program.construct` builds a
value, `Program.destruct` reads one back, and `_Lower.dispatch` takes
one apart along its sum spine.

Lowering is the one checker of names and declarations.  `Program`
rejects a repeated constructor and lays out every datatype at Int, which
rejects an unknown type, a wrong arity and a type variable that is not a
parameter.  It then lowers the functions in declaration order, so a body
names only itself and the functions above it.  A name that does not
resolve and a type mismatch are reported with their own line, a
declaration error with that of the declaration that writes it.

Pattern matches become cascades of weighted binary choices, boolean
connectives and structural equality turn into plain sum cases, and
polymorphic functions are specialized to the concrete types of each use.

Lowering is two-phase: walking an expression type-checks it against
a set of mutable type metavariables and returns a *builder* closure;
running the builder after unification has finished emits core syntax
with every type annotation fully resolved.  Metavariables that are
still unconstrained at emission default to Int.  The builder of a call
resolves the callee's type arguments the same way and emits the
callee's closed core, lowering it on first use, so every core is
closed once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Sequence

from .core import (
    App,
    After,
    Arith,
    BOOL,
    Bang,
    CasePair,
    CaseSum,
    Cmp,
    Expr,
    FALSE,
    Fold,
    Inl,
    Inr,
    Inst,
    IntLit,
    MatchFail,
    Pair,
    Rec,
    TRUE,
    TFun,
    TInt,
    TMu,
    TProd,
    TSum,
    TUnit,
    TVar,
    Type,
    Unfold,
    Unit,
    Var,
    is_flat,
    unfold_mu,
)
from .patterns import (
    CaseNode,
    Child,
    ExpandError,
    Fail,
    Leaf,
    Tree,
    expand_case,
)
from .surface import (
    PCon,
    PInt,
    PRELUDE,
    PTuple,
    PVar,
    PWild,
    SApp,
    SBang,
    SBin,
    SCase,
    SCon,
    SData,
    SExpr,
    SFun,
    SIf,
    SInt,
    SPat,
    STCon,
    STFun,
    STTuple,
    STVar,
    STupleE,
    STy,
    SVar,
    SurfaceProgram,
    parse_program,
    parse_query,
)


class LuckTypeError(Exception):
    """A program that parses but cannot be lowered to the core."""


check_scopes = None  # unused; perfbench traces calls by this name


@dataclass(unsafe_hash=True)
class SMeta(STy):
    """A unification metavariable for type inference."""

    uid: int

    def __str__(self) -> str:
        return "_"  # unsolved: the type is not yet known


_INT = STCon("Int")
_BOOL = STCon("Bool")

_PRELUDE_CTORS = {c.name: (d.name, i) for d in PRELUDE.values()
                  for i, c in enumerate(d.ctors)}

# a constructor with the types of its fields
Ctor = tuple[str, list[STy]]
# the fields of one constructor arm, each a binder name with its type
Fields = Sequence[tuple[str, STy]]

# A builder: call after unification to emit the core expression.
Mk = Callable[[], Expr]


@dataclass(unsafe_hash=True)
class CompiledQuery:
    """A query lowered to a closed core term over named free variables."""

    target: Expr
    unknowns: dict[str, Type]
    expect_true: bool
    source: str
    surface_types: dict[str, STy]


def tyvars_of(t: STy) -> list[str]:
    """Type variable names in order of first appearance."""
    out: list[str] = []

    def walk(t: STy) -> None:
        if isinstance(t, STVar):
            if t.name not in out:
                out.append(t.name)
        elif isinstance(t, STCon):
            for a in t.args:
                walk(a)
        elif isinstance(t, STTuple):
            for a in t.items:
                walk(a)
        elif isinstance(t, STFun):
            walk(t.arg)
            walk(t.res)

    walk(t)
    return out


def sub_ty(t: STy, m: dict[str, STy]) -> STy:
    """Substitute type variables by name; m holds every one of them."""
    if isinstance(t, STVar):
        return m[t.name]
    if isinstance(t, STCon):
        return STCon(t.name, tuple(sub_ty(a, m) for a in t.args))
    if isinstance(t, STTuple):
        return STTuple(tuple(sub_ty(a, m) for a in t.items))
    if isinstance(t, STFun):
        return STFun(sub_ty(t.arg, m), sub_ty(t.res, m))
    return t


def _located(what: str, where: str) -> str:
    """"line N: what in rest" for where "line N: rest", else what in where."""
    line, _, rest = where.partition(": ")
    return f"{line}: {what} in {rest}" if rest else f"{what} in {where}"


def _mangle(name: str, tyargs: tuple[STy, ...]) -> str:
    if not tyargs:
        return name
    return name + "@" + ",".join(str(a) for a in tyargs)


class Program:
    """A checked surface program ready to compile queries against."""

    def __init__(self, surface: SurfaceProgram):
        self.surface = surface
        self.datas: dict[str, SData] = dict(PRELUDE)
        self.ctors: dict[str, tuple[str, int]] = dict(_PRELUDE_CTORS)
        self.funs: dict[str, SFun] = {}
        self._sol: dict[int, STy] = {}
        self._meta_n = 0
        self._fresh_n = 0
        # Bool's layout is the core's own BOOL, shared by every program
        self._ctype_memo: dict[STy, Type] = {_BOOL: BOOL}
        self._ctype_building: dict[STCon, bool] = {}
        self._ctors_memo: dict[STCon, list[Ctor]] = {}
        self._levels_memo: dict[tuple[Type, int], list[Type]] = {}
        # datatypes `_data_type` found to mention themselves and wrapped
        # in a mu type; see `folds`
        self._folded: set[str] = set()
        # mangled name -> closed core, its callees' cores linked in
        self.cores: dict[str, Expr] = {}
        self._fun_stack: list[tuple[str, tuple[STy, ...]]] = []
        self._line = 0  # the line of the declaration being checked
        self._install()
        self._check_all()

    @classmethod
    def from_source(cls, text: str) -> "Program":
        return cls(parse_program(text))

    # -- declaration tables ---------------------------------------------

    def _install(self) -> None:
        for d in self.surface.data_decls:
            if d.name == "Int" or d.name in self.datas:
                raise LuckTypeError(
                    f"line {d.line}: type name {d.name} is reserved")
            self.datas[d.name] = d
            for i, c in enumerate(d.ctors):
                if c.name in self.ctors:
                    raise LuckTypeError(
                        f"line {d.line}: duplicate constructor {c.name}")
                self.ctors[c.name] = (d.name, i)

    def _check_all(self) -> None:
        """Lay out every datatype and lower every function once, at Int
        instantiations; a function joins `funs` just before its body."""
        for d in self.surface.data_decls:
            self._line = d.line
            self.core_type(STCon(d.name, (_INT,) * len(d.params)))
        for f in self.surface.fun_decls:
            self._line = f.line
            if f.sig is None:
                raise LuckTypeError(f"line {f.line}: function {f.name} "
                                    "needs a sig")
            if len(set(f.params)) != len(f.params):
                raise LuckTypeError(f"line {f.line}: function {f.name} "
                                    "repeats a parameter")
            self.funs[f.name] = f
            self.lower_fun(f.name, (_INT,) * len(tyvars_of(f.sig)))

    def folds(self, t: STy) -> bool:
        """Whether the values of the resolved type t are folds: t is a
        datatype that mentions itself.  Read after t's core type is built.
        """
        return isinstance(t, STCon) and t.name in self._folded

    def constructors(self, t: STy) -> Optional[list[Ctor]]:
        """The constructors of the resolved tuple or datatype type t, with
        their field types at its arguments; None for any other type."""
        if isinstance(t, STTuple):
            return [("", list(t.items))]
        if not isinstance(t, STCon) or t.name == "Int":
            return None
        out = self._ctors_memo.get(t)
        if out is None:
            d = self.datas.get(t.name)
            if d is None or len(t.args) != len(d.params):
                raise LuckTypeError(f"line {self._line_naming(t.name)}: " + (
                    f"unknown type {t.name}" if d is None else
                    f"type {t.name} expects {len(d.params)} arguments, "
                    f"got {len(t.args)}"))
            m = dict(zip(d.params, t.args))
            try:
                out = [(c.name, [sub_ty(a, m) for a in c.args])
                       for c in d.ctors]
            except KeyError as ex:
                raise LuckTypeError(
                    f"line {d.line}: type variable {ex.args[0]} is not "
                    f"a parameter of {t.name}") from None
            self._ctors_memo[t] = out
        return out

    def _line_naming(self, name: str) -> int:
        """The line of the declaration that writes the type name."""
        for t in reversed(self._ctype_building):
            d = self.datas[t.name]
            if any(_names(a, name) for c in d.ctors for a in c.args):
                return d.line
        return self._line

    def sum_levels(self, t: STy) -> tuple[Type, list[Type]]:
        """The core type of a tuple or datatype type and the sums along
        its spine: level i holds constructor i on its left and the
        constructors after it on its right.  Kept per core type, since
        unfolding a mu type substitutes through all of it."""
        full = self.core_type(t)
        n = len(self.datas[t.name].ctors) if isinstance(t, STCon) else 1
        levels = self._levels_memo.get((full, n))
        if levels is None:
            level = unfold_mu(full) if isinstance(full, TMu) else full
            levels = []
            for _ in range(n - 1):
                levels.append(level)
                level = level.right
            self._levels_memo[full, n] = levels
        return full, levels

    def unfolded(self, v: Expr, t: STy) -> Expr:
        """A value of type t with its fold, if it has one, taken off."""
        return Unfold(v, self.core_type(t)) if self.folds(t) else v

    def construct(self, t: STy, pos: int, fields: list[Expr]) -> Expr:
        """Constructor pos of the tuple or datatype t over its fields."""
        v = fields[-1] if fields else Unit()
        for x in reversed(fields[:-1]):
            v = Pair(x, v)
        full, levels = self.sum_levels(t)
        if pos < len(levels):
            v = Inl(v, levels[pos])
        for level in reversed(levels[:pos]):
            v = Inr(v, level)
        return Fold(v, full) if self.folds(t) else v

    def destruct(self, v: Expr, t: STy) -> tuple[str, list[STy], list[Expr]]:
        """A value of the tuple or datatype t read back: the name of its
        constructor and the types and values of its fields."""
        ctors = self.constructors(t)
        if self.folds(t):
            v = v.arg
        n = len(ctors)
        pos = 0
        while pos < n - 1 and isinstance(v, Inr):
            pos += 1
            v = v.arg
        if pos < n - 1:
            v = v.arg
        name, tys = ctors[pos]
        vals = []
        for _ in tys[1:]:
            vals.append(v.fst)
            v = v.snd
        if tys:
            vals.append(v)
        return name, tys, vals

    def show_value(self, v: Expr, t: STy) -> str:
        """Render a core value as a surface term of the given type."""
        return self._show(v, t, 0)

    def _show(self, v: Expr, t: STy, level: int) -> str:
        t = self.resolve(t)
        if isinstance(t, STCon) and t.name == "Int":
            if v.value < 0 and level > 0:
                return f"({v.value})"
            return str(v.value)
        name, tys, vals = self.destruct(v, t)
        if name in ("Nil", "Cons"):
            elems = []
            while name == "Cons":
                elems.append(self._show(vals[0], tys[0], 0))
                name, tys, vals = self.destruct(vals[1], t)
            return "[" + ", ".join(elems) + "]"
        parts = [self._show(x, ty, 1 if name else 0)
                 for x, ty in zip(vals, tys)]
        if not name:
            return "(" + ", ".join(parts) + ")"
        text = " ".join([name] + parts)
        return f"({text})" if level > 0 and parts else text

    # -- functions, linking, queries --------------------------------------

    def lower_fun(self, fname: str, tyargs: tuple[STy, ...]) -> str:
        """Specialize a function to concrete type arguments.

        Returns the mangled name; the closed core lands in self.cores.
        """
        mangled = _mangle(fname, tyargs)
        if mangled in self.cores:
            return mangled
        f = self.funs[fname]
        if any(g == fname for g, _ in self._fun_stack):
            raise LuckTypeError(f"line {f.line}: polymorphic recursion in "
                                f"{fname} is unsupported")
        inst = sub_ty(f.sig, dict(zip(tyvars_of(f.sig), tyargs)))
        param_tys, result_ty = _split_sig(inst, f)
        self._fun_stack.append((fname, tyargs))
        try:
            lw = _Lower(self)
            env = {p: (t, Var(p)) for p, t in zip(f.params, param_tys)}
            (bmk, bty) = lw.des(f.body, env)
            self.unify(bty, result_ty, f"line {f.line}: body of {fname}")
            body = bmk()
            core_params = [self.core_type(t) for t in param_tys]
            core_res = self.core_type(result_ty)
            res_tys = [core_res]
            for ct in reversed(core_params[1:]):
                res_tys.insert(0, TFun(ct, res_tys[0]))
            out = body
            for i in range(len(f.params) - 1, 0, -1):
                out = Rec(self.fresh("f"), f.params[i], core_params[i], out,
                          res_tys[i])
            if f.params:
                out = Rec(mangled, f.params[0], core_params[0], out,
                          res_tys[0])
            self.cores[mangled] = out
            return mangled
        finally:
            self._fun_stack.pop()

    def compile_query(self, text: str) -> CompiledQuery:
        """Lower a query to a closed core term over named unknowns."""
        call, expect_true = parse_query(text)
        names: list[str] = []
        _free_vars_of_call(self, call, names)
        lw = _Lower(self)
        metas = {u: self.meta() for u in names}
        env = {u: (metas[u], Var(u)) for u in names}
        (mk, ty) = lw.des(call, env)
        self.unify(ty, _BOOL, "query result")
        target = mk()
        unknowns: dict[str, Type] = {}
        surface: dict[str, STy] = {}
        for u in names:
            st = self.resolve_deep(metas[u], default=True)
            ct = self.core_type(st)
            if not is_flat(ct):
                raise LuckTypeError(f"unknown {u} has type {st}, which "
                                    "cannot be generated")
            unknowns[u] = ct
            surface[u] = st
        return CompiledQuery(target, unknowns, expect_true, text, surface)

    # -- unification ------------------------------------------------------

    def meta(self) -> SMeta:
        self._meta_n += 1
        return SMeta(self._meta_n)

    def fresh(self, prefix: str) -> str:
        self._fresh_n += 1
        return f"%{prefix}{self._fresh_n}"

    def resolve(self, t: STy) -> STy:
        """Follow solved metavariables."""
        while isinstance(t, SMeta) and t.uid in self._sol:
            t = self._sol[t.uid]
        return t

    def resolve_deep(self, t: STy, default: bool = False) -> STy:
        t = self.resolve(t)
        if isinstance(t, SMeta):
            return _INT if default else t
        if isinstance(t, STCon):
            return STCon(t.name, tuple(self.resolve_deep(a, default)
                                       for a in t.args))
        if isinstance(t, STTuple):
            return STTuple(tuple(self.resolve_deep(a, default)
                                 for a in t.items))
        if isinstance(t, STFun):
            return STFun(self.resolve_deep(t.arg, default),
                         self.resolve_deep(t.res, default))
        return t

    def _occurs(self, uid: int, t: STy) -> bool:
        t = self.resolve(t)
        if isinstance(t, SMeta):
            return t.uid == uid
        if isinstance(t, STCon):
            return any(self._occurs(uid, a) for a in t.args)
        if isinstance(t, STTuple):
            return any(self._occurs(uid, a) for a in t.items)
        if isinstance(t, STFun):
            return self._occurs(uid, t.arg) or self._occurs(uid, t.res)
        return False

    def unify(self, a: STy, b: STy, where: str) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, SMeta) or isinstance(b, SMeta):
            m, t = (a, b) if isinstance(a, SMeta) else (b, a)
            if self._occurs(m.uid, t):
                raise LuckTypeError(_located("infinite type", where))
            self._sol[m.uid] = t
            return
        if (isinstance(a, STCon) and isinstance(b, STCon)
                and a.name == b.name and len(a.args) == len(b.args)):
            for x, y in zip(a.args, b.args):
                self.unify(x, y, where)
            return
        if (isinstance(a, STTuple) and isinstance(b, STTuple)
                and len(a.items) == len(b.items)):
            for x, y in zip(a.items, b.items):
                self.unify(x, y, where)
            return
        if isinstance(a, STFun) and isinstance(b, STFun):
            self.unify(a.arg, b.arg, where)
            self.unify(a.res, b.res, where)
            return
        raise LuckTypeError(_located("type mismatch", where) + f": {a} vs {b}")

    # -- core types -------------------------------------------------------

    def core_type(self, t: STy) -> Type:
        """The core encoding of a fully-determined surface type."""
        if t in self._ctype_memo:  # keys hold no metavariables to resolve
            return self._ctype_memo[t]
        return self._core_type(self.resolve_deep(t, default=True))

    def _core_type(self, t: STy) -> Type:
        if t in self._ctype_memo:
            return self._ctype_memo[t]
        if isinstance(t, STFun):
            out = TFun(self._core_type(t.arg), self._core_type(t.res))
        elif isinstance(t, STCon) and t.name == "Int":
            out = TInt()
        else:
            out = self._data_type(t)
        if not self._ctype_building:
            # while a datatype is built, its recursive uses are open TVars
            self._ctype_memo[t] = out
        return out

    def _data_type(self, t: STy) -> Type:
        """The layout of a tuple or datatype: a sum spine over its
        constructors' payloads, behind a mu type when a datatype mentions
        itself (a tuple never does)."""
        ctors = self.constructors(t)
        if ctors is None:
            raise LuckTypeError(f"cannot lower type {t}")
        nominal = isinstance(t, STCon)
        if nominal:
            if t in self._ctype_building:
                self._ctype_building[t] = True
                return TVar(str(t))
            self._ctype_building[t] = False
        payloads = []
        for _, tys in ctors:
            parts = [self._core_type(a) for a in tys]
            payload = parts[-1] if parts else TUnit()
            for part in reversed(parts[:-1]):
                payload = TProd(part, payload)
            payloads.append(payload)
        spine = payloads[-1]
        for p in reversed(payloads[:-1]):
            spine = TSum(p, spine)
        if not nominal:
            return spine
        used = self._ctype_building.pop(t)
        others = {str(k) for k in self._ctype_building}
        if others and _tvar_names(spine) & others:
            raise LuckTypeError(
                f"line {self.datas[t.name].line}: datatype {t.name} is "
                "recursive through another type; only direct recursion is "
                "supported")
        if not used:
            return spine
        self._folded.add(t.name)
        return TMu(str(t), spine)


def _names(t: STy, name: str) -> bool:
    """Whether the surface type t is written with the type name."""
    if isinstance(t, STCon):
        return t.name == name or any(_names(a, name) for a in t.args)
    if isinstance(t, STTuple):
        return any(_names(a, name) for a in t.items)
    return isinstance(t, STFun) and (_names(t.arg, name)
                                     or _names(t.res, name))


def _tvar_names(t: Type) -> set[str]:
    if isinstance(t, TVar):
        return {t.name}
    out: set[str] = set()
    for f in getattr(t, "__dataclass_fields__", {}):
        v = getattr(t, f)
        if isinstance(v, Type):
            out |= _tvar_names(v)
    return out


# ---------------------------------------------------------------------------
# Expression lowering


class _Lower:
    """One lowering unit: a function body or a query call."""

    def __init__(self, p: Program):
        self.p = p

    # -- helpers ----------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        return self.p.fresh(prefix)

    def unify(self, a: STy, b: STy, where: str) -> None:
        self.p.unify(a, b, where)

    def oracle(self, t: STy) -> list[Ctor]:
        """The constructors of t, which `unify_pat` has made a tuple or
        datatype type wherever a pattern splits it."""
        return self.p.constructors(self.p.resolve(t))

    # -- entry ------------------------------------------------------------

    def des(self, e: SExpr, env: dict) -> tuple[Mk, STy]:
        """Check the expression and return its core builder and type."""
        if isinstance(e, SInt):
            v = e.value
            return (lambda: IntLit(v)), _INT
        if isinstance(e, SVar):
            if e.name in env:
                ty, c = env[e.name]
                return (lambda: c), ty
            return self.fun_use(e.name, f"line {e.line}")
        if isinstance(e, SCon):
            return self.ctor(e.name, [], f"line {e.line}")
        if isinstance(e, SApp):
            return self.app(e, env)
        if isinstance(e, SBin):
            return self.binop(e, env)
        if isinstance(e, SIf):
            (cmk, cty) = self.des(e.cond, env)
            self.unify(cty, _BOOL, f"line {e.line}: if condition")
            (tmk, tty) = self.des(e.then, env)
            (emk, ety) = self.des(e.els, env)
            self.unify(tty, ety, f"line {e.line}: if branches")
            return (lambda: CaseSum(cmk(), "_", tmk(), "_", emk(), BOOL)), tty
        if isinstance(e, SBang):
            (mk, ty) = self.des(e.expr, env)
            if e.var not in env:
                raise LuckTypeError(f"line {e.line}: unbound variable {e.var}")
            target = env[e.var][1]
            return (lambda: After(mk(), Bang(target))), ty
        if isinstance(e, STupleE):
            parts = [self.des(x, env) for x in e.items]
            mks = [mk for mk, _ in parts]
            ty = STTuple(tuple(t for _, t in parts))
            return (lambda: self.p.construct(ty, 0, [m() for m in mks])), ty
        if isinstance(e, SCase):
            return self.lower_case(e, env)
        raise LuckTypeError(f"cannot lower expression {e!r}")

    # -- functions and constructors ----------------------------------------

    def fun_use(self, name: str, where: str) -> tuple[Mk, STy]:
        if name == "not":
            raise LuckTypeError(f"{where}: not must be applied "
                                "to one argument")
        if name not in self.p.funs:
            if any(f.name == name for f in self.p.surface.fun_decls):
                raise LuckTypeError(f"{where}: {name} is used before its "
                                    "declaration; a body names only itself "
                                    "and the functions above it")
            raise LuckTypeError(f"{where}: unbound variable {name}")
        sig = self.p.funs[name].sig
        tvs = tyvars_of(sig)
        metas = [self.p.meta() for _ in tvs]
        inst = sub_ty(sig, dict(zip(tvs, metas)))

        def mk() -> Expr:
            args = tuple(self.p.resolve_deep(m, default=True) for m in metas)
            mangled = _mangle(name, args)
            stack = self.p._fun_stack
            if not stack or _mangle(*stack[-1]) != mangled:
                return self.p.cores[self.p.lower_fun(name, args)]
            # a self-call names the Rec that lower_fun wraps the body in
            if not self.p.funs[name].params:
                raise LuckTypeError(f"{where}: {name} recurses without "
                                    "parameters")
            return Var(mangled)

        return mk, inst

    def instance(self, cname: str, nargs: int,
                 where: str) -> tuple[STy, int, list[STy]]:
        """A fresh instance of a constructor's type, with its position and
        field types; "" is the tuple constructor of nargs fields."""
        if not cname:
            metas = [self.p.meta() for _ in range(nargs)]
            return STTuple(tuple(metas)), 0, metas
        if cname not in self.p.ctors:
            raise LuckTypeError(f"{where}: undeclared constructor {cname}")
        dname, pos = self.p.ctors[cname]
        d = self.p.datas[dname]
        metas = [self.p.meta() for _ in d.params]
        m = dict(zip(d.params, metas))
        fields = [sub_ty(a, m) for a in d.ctors[pos].args]
        if len(fields) != nargs:
            raise LuckTypeError(f"{where}: constructor {cname} takes "
                                f"{len(fields)} arguments, got {nargs}")
        return STCon(dname, tuple(metas)), pos, fields

    def ctor(self, cname: str, args: list[tuple[Mk, STy]],
             where: str) -> tuple[Mk, STy]:
        dty, pos, fields = self.instance(cname, len(args), where)
        for (_, got), want in zip(args, fields):
            self.unify(got, want, f"{where}: argument of {cname}")
        mks = [mk for mk, _ in args]
        return (lambda: self.p.construct(dty, pos, [m() for m in mks])), dty

    def app(self, e: SApp, env: dict) -> tuple[Mk, STy]:
        head, spine = _spine(e)
        where = f"line {e.line}"
        if isinstance(head, SCon):
            args = [self.des(a, env) for a in spine]
            return self.ctor(head.name, args, where)
        if (isinstance(head, SVar) and head.name == "not"
                and head.name not in env):
            if len(spine) != 1:
                raise LuckTypeError(f"{where}: not takes one argument")
            (amk, aty) = self.des(spine[0], env)
            self.unify(aty, _BOOL, f"{where}: argument of not")
            return (lambda: CaseSum(amk(), "_", FALSE, "_", TRUE, BOOL)), _BOOL
        fmk, fty = self.des(head, env)
        for arg in spine:
            (amk, aty) = self.des(arg, env)
            res = self.p.meta()
            self.unify(fty, STFun(aty, res), f"{where}: application")
            fmk = (lambda f=fmk, a=amk: App(f(), a()))
            fty = res
        return fmk, fty

    # -- operators ---------------------------------------------------------

    def binop(self, e: SBin, env: dict) -> tuple[Mk, STy]:
        where = f"line {e.line}: {e.op}"
        (lmk, lt) = self.des(e.lhs, env)
        (rmk, rt) = self.des(e.rhs, env)
        if e.op in ("+", "-", "*", "/"):
            self.unify(lt, _INT, where)
            self.unify(rt, _INT, where)
            op = e.op
            return (lambda: Arith(op, lmk(), rmk())), _INT
        if e.op in ("<", "<=", ">", ">="):
            self.unify(lt, _INT, where)
            self.unify(rt, _INT, where)
            op = e.op
            return (lambda: Cmp(op, lmk(), rmk())), _BOOL
        if e.op == "&&":
            self.unify(lt, _BOOL, where)
            self.unify(rt, _BOOL, where)
            return (lambda: CaseSum(lmk(), "_", rmk(), "_", FALSE,
                                    BOOL)), _BOOL
        if e.op == "||":
            self.unify(lt, _BOOL, where)
            self.unify(rt, _BOOL, where)
            return (lambda: CaseSum(lmk(), "_", TRUE, "_", rmk(), BOOL)), _BOOL
        if e.op in ("==", "/="):
            self.unify(lt, rt, where)
            mk = self.equality(e, (lmk, lt), (rmk, rt), env, where)
            if e.op == "/=":
                inner = mk
                mk = lambda: CaseSum(inner(), "_", FALSE, "_", TRUE, BOOL)
            return mk, _BOOL
        raise LuckTypeError(f"{where}: unsupported operator")

    # -- structural equality -------------------------------------------------

    def equality(self, e: SBin, lhs: tuple[Mk, STy], rhs: tuple[Mk, STy],
                 env: dict, where: str) -> Mk:
        t = self.p.resolve(lhs[1])
        if t == _INT:
            lmk, rmk = lhs[0], rhs[0]
            return lambda: Cmp("==", lmk(), rmk())
        if t == _BOOL:
            lmk, rmk = lhs[0], rhs[0]
            return lambda: CaseSum(
                lmk(), "_", rmk(),
                "_", CaseSum(rmk(), "_", FALSE, "_", TRUE, BOOL), BOOL)
        if _closed(e.rhs):
            return self.match_term(lhs[0], e.rhs, t, env, where)
        if _closed(e.lhs):
            return self.match_term(rhs[0], e.lhs, t, env, where)
        raise LuckTypeError(
            f"{where}: structural equality needs a constructor term "
            "on one side")

    def match_term(self, occ: Mk, term: SExpr, t: STy, env: dict,
                   where: str) -> Mk:
        """A matcher for  occ == term  with term built from constructors;
        lowering has unified the two sides' types, so the term fits t."""
        t = self.p.resolve(t)
        if t == _INT:
            (tmk, tty) = self.des(term, env)
            self.unify(tty, _INT, where)
            return lambda: Cmp("==", occ(), tmk())
        if t == _BOOL:  # x == True is x, and x == False is not x
            if term == SCon("True"):
                return occ
            return lambda: CaseSum(occ(), "_", FALSE, "_", TRUE, BOOL)
        ctors = self.p.constructors(t)
        cname, args = _ctor_spine(term)
        pos = [c for c, _ in ctors].index(cname)
        tys = ctors[pos][1]
        if len(ctors) == 1 and len(tys) == 1:
            # the lone field of a lone constructor is the value itself
            return self.match_term(lambda: self.p.unfolded(occ(), t),
                                   args[0], tys[0], env, where)
        names = [self.fresh("e") for _ in tys]
        eq = _conj([self.match_term((lambda nm=nm: Var(nm)), a, ty, env,
                                    where)
                    for nm, a, ty in zip(names, args, tys)])
        fields = list(zip(names, tys))
        dead = [((), FALSE)] * pos
        return lambda: self.dispatch(occ(), t, dead + [(fields, eq())],
                                     blank=lambda: self.fresh("e"))

    # -- case lowering -------------------------------------------------------

    def lower_case(self, e: SCase, env: dict) -> tuple[Mk, STy]:
        (smk, sty) = self.des(e.scrut, env)
        where = f"line {e.line}: case"
        for arm in e.arms:
            self.unify_pat(arm.pat, sty, where)
        if isinstance(e.scrut, SVar) and e.scrut.name in env:
            occ: SExpr = e.scrut
            env0 = env
            let: Optional[tuple[str, STy]] = None
        else:
            nm = self.fresh("s")
            occ = SVar(nm)
            env0 = {**env, nm: (sty, Var(nm))}
            let = (nm, sty)
        try:
            tree = expand_case((occ, sty), list(e.arms), self.oracle,
                               self.fresh)
        except ExpandError as ex:
            raise LuckTypeError(f"{where}: {ex}") from None
        if isinstance(tree, Leaf) and e.arms[0].weight is not None:
            # a lone catch-all arm splits nothing, so no node lowers its
            # weight
            (_, wty) = self.des(e.arms[0].weight, env)
            self.unify(wty, _INT, f"{where} arm weight")
        # only the root needs mass: an inner split whose literal weights
        # are all 0 lies under a child its parent gives weight 0
        if isinstance(tree, CaseNode) and all(
                isinstance(c.weight, Fraction) for c in tree.children) \
                and sum(c.weight for c in tree.children) == 0:
            raise LuckTypeError(f"{where}: no weight mass")
        rmeta = self.p.meta()
        body = self.lower_tree(tree, env0, rmeta)
        if let is None:
            return body, rmeta
        nm, ssty = let
        letf = self.fresh("let")

        def mk() -> Expr:
            return App(Rec(letf, nm, self.p.core_type(ssty), body(),
                           self.p.core_type(rmeta)), smk())

        return mk, rmeta

    def unify_pat(self, p: SPat, t: STy, where: str) -> None:
        if isinstance(p, (PWild, PVar)):
            return
        if isinstance(p, PInt):
            raise LuckTypeError(f"{where}: integer literal patterns are not "
                                "supported")
        cname, subs = _ctor_spine(p)
        pty, _, fields = self.instance(cname, len(subs), where)
        self.unify(t, pty, where)
        for sub, ft in zip(subs, fields):
            self.unify_pat(sub, ft, where)

    def lower_tree(self, node: Tree, env: dict, rmeta: STy) -> Mk:
        if isinstance(node, Leaf):
            env2 = dict(env)
            for pv, occ in node.bindings:
                env2[pv] = env[occ.name]
            (bmk, bty) = self.des(node.body, env2)
            self.unify(bty, rmeta, f"line {node.body.line}: case arm result")
            return bmk
        if isinstance(node, Fail):
            return lambda: MatchFail(self.p.core_type(rmeta))
        return self.lower_node(node, env, rmeta)

    def lower_node(self, node: CaseNode, env: dict, rmeta: STy) -> Mk:
        t = self.p.resolve(node.ty)
        occ = env[node.occ.name][1]
        kids = node.children
        wmks = self._weights(kids, env)
        if len(kids) == 1 and len(kids[0].argvars) == 1:
            # the lone field of a lone constructor is the value itself,
            # bound in place, so its type is read before unification ends
            ((nm, ty),) = kids[0].argvars
            return self.lower_tree(
                kids[0].sub, {**env, nm: (ty, self.p.unfolded(occ, t))},
                rmeta)
        arms = []
        for kid in kids:
            env2 = dict(env)
            for nm, ty in kid.argvars:
                env2[nm] = (ty, Var(nm))
            arms.append((kid.argvars, self.lower_tree(kid.sub, env2, rmeta)))
        return lambda: self.dispatch(
            occ, t, [(fields, body()) for fields, body in arms], wmks)

    def dispatch(self, cur: Expr, t: STy, arms: list[tuple[Fields, Expr]],
                 weights: Optional[list[Mk]] = None,
                 blank: Callable[[], str] = lambda: "_") -> Expr:
        """Take cur, a value of the tuple or datatype t, apart along its
        sum spine.  arms[i] = (fields, body) is constructor i's arm, whose
        body reads each field under its name; past the last arm given,
        the spine's rest is FALSE.  With weights, one per constructor,
        each level is an instantiation weighted by its left constructor
        against all the constructors after it.  A binder no body reads
        comes from blank.  A lone field arrives under its own name, or is
        cur itself when t has one constructor, bound in place by the
        caller."""
        full, levels = self.p.sum_levels(t)
        cur = Unfold(cur, full) if self.p.folds(t) else cur
        if not levels:
            return self._unpack(*arms[0], cur)
        lefts = []
        for fields, body in arms:
            if not fields:
                left = blank()
            elif len(fields) == 1:
                left = fields[0][0]
            else:
                left = self.fresh("p")
                body = self._unpack(fields, body, Var(left))
            lefts.append((left, body))
        if len(arms) > len(levels):
            # the last constructor is the right side of the last level
            right, out = lefts.pop()
        else:
            right, out = blank(), FALSE
        rights = [self.fresh("r") for _ in lefts[1:]] + [right]
        for i in range(len(lefts) - 1, -1, -1):
            scrut = cur if i == 0 else Var(rights[i - 1])
            if weights is not None:
                rest = weights[-1]()
                for w in reversed(weights[i + 1:-1]):
                    rest = _add(w(), rest)
                scrut = Inst(scrut, weights[i](), rest)
            out = CaseSum(scrut, *lefts[i], rights[i], out, levels[i])
        return out

    def _unpack(self, fields: Fields, body: Expr, top: Expr) -> Expr:
        """body with the fields bound to the parts of top, a payload of two
        or more fields; a lone field is the payload itself."""
        if len(fields) < 2:
            return body
        names = [nm for nm, _ in fields]
        return _case_pairs(body, top, names,
                           [self.fresh("t") for _ in names[2:]],
                           self.p.core_type(STTuple(tuple(
                               ty for _, ty in fields))))

    def _weights(self, kids: list[Child], env: dict) -> list[Mk]:
        ws = [c.weight for c in kids]
        if all(isinstance(w, Fraction) for w in ws):
            denom = 1
            for w in ws:
                denom = denom * w.denominator // gcd(denom, w.denominator)
            ints = [int(w * denom) for w in ws]
            return [(lambda v=v: IntLit(v)) for v in ints]
        out = []
        for w in ws:
            assert isinstance(w, SExpr)
            (mk, ty) = self.des(w, env)
            self.unify(ty, _INT, f"line {w.line}: case arm weight")
            out.append(mk)
        return out


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, IntLit) and isinstance(b, IntLit):
        return IntLit(a.value + b.value)
    return Arith("+", a, b)


def _conj(parts: list[Mk]) -> Mk:
    """The conjunction of boolean builders, empty conjunction being true."""
    if not parts:
        return lambda: TRUE

    def mk() -> Expr:
        out = parts[-1]()
        for p in reversed(parts[:-1]):
            out = CaseSum(p(), "_", out, "_", FALSE, BOOL)
        return out

    return mk


def _closed(e: SExpr) -> bool:
    """Whether e is built only from constructors and literals."""
    if isinstance(e, (SCon, SInt)):
        return True
    if isinstance(e, SApp):
        head, spine = _spine(e)
        return isinstance(head, SCon) and all(_closed(a) for a in spine)
    return isinstance(e, STupleE) and all(_closed(x) for x in e.items)


def _spine(e: SExpr) -> tuple[SExpr, list[SExpr]]:
    """The head of an application chain and its arguments, in order."""
    args = []
    while isinstance(e, SApp):
        args.append(e.arg)
        e = e.fun
    args.reverse()
    return e, args


def _ctor_spine(x) -> tuple[str, list]:
    """The constructor and arguments of a constructor term or pattern; a
    tuple's constructor is ""."""
    if isinstance(x, (STupleE, PTuple)):
        return "", list(x.items)
    if isinstance(x, PCon):
        return x.name, list(x.args)
    head, args = _spine(x)
    return head.name, args


def _case_pairs(body: Expr, top: Expr, names: list[str],
                rests: list[str], ty: Type) -> Expr:
    """`body` under CasePairs binding names[0..k-1] (k >= 2) to the
    components of the right-nested tuple `top` of product type `ty`;
    rests[i] names the tuple of the components after names[i]."""
    if len(names) == 2:
        return CasePair(top, names[0], names[1], body, ty)
    inner = _case_pairs(body, Var(rests[0]), names[1:], rests[1:], ty.right)
    return CasePair(top, names[0], rests[0], inner, ty)


# ---------------------------------------------------------------------------
# Function lowering, linking, and query compilation


def _split_sig(sig: STy, f: SFun) -> tuple[list[STy], STy]:
    params = []
    t = sig
    for _ in f.params:
        if not isinstance(t, STFun):
            raise LuckTypeError(f"line {f.line}: function {f.name} has more "
                                "parameters than its sig has arrows")
        params.append(t.arg)
        t = t.res
    return params, t


def _free_vars_of_call(p: Program, e: SExpr, out: list[str]) -> None:
    if isinstance(e, SVar):
        if e.name not in p.funs and e.name != "not" and e.name not in out:
            out.append(e.name)
    elif isinstance(e, SApp):
        _free_vars_of_call(p, e.fun, out)
        _free_vars_of_call(p, e.arg, out)
    elif isinstance(e, SBin):
        _free_vars_of_call(p, e.lhs, out)
        _free_vars_of_call(p, e.rhs, out)
    elif isinstance(e, SBang):
        _free_vars_of_call(p, e.expr, out)
        if e.var not in p.funs and e.var not in out:
            out.append(e.var)
    elif isinstance(e, SIf):
        for sub in (e.cond, e.then, e.els):
            _free_vars_of_call(p, sub, out)
    elif isinstance(e, STupleE):
        for sub in e.items:
            _free_vars_of_call(p, sub, out)
    elif isinstance(e, SCase):
        _free_vars_of_call(p, e.scrut, out)
