"""Surface-to-core lowering.

Datatypes become sums of products (recursive ones behind a fold/unfold
isomorphism), pattern matches become cascades of weighted binary
choices, boolean connectives and structural equality turn into plain
sum cases, and polymorphic functions are specialized to the concrete
types of each use.

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
from typing import Callable, Optional

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
    subst,
    unfold_mu,
)
from .patterns import (
    ATOM,
    CaseNode,
    Child,
    DATA,
    ExpandError,
    Fail,
    Leaf,
    Tree,
    expand_case,
    leaf_masses,
    normalize_pat,
)
from .surface import (
    PCon,
    PTuple,
    PVar,
    PWild,
    SApp,
    SBang,
    SBin,
    SCase,
    SCon,
    SCtor,
    SData,
    SExpr,
    SFun,
    SIf,
    SInt,
    SListE,
    SPat,
    STCon,
    STFun,
    STList,
    STTuple,
    STVar,
    STupleE,
    STy,
    SVar,
    SurfaceProgram,
    check_scopes,
    parse_program,
    parse_query,
)


class LuckTypeError(Exception):
    """A program that parses but cannot be lowered to the core."""


@dataclass(unsafe_hash=True)
class SMeta(STy):
    """A unification metavariable for type inference."""

    uid: int

    def __str__(self) -> str:
        return f"?{self.uid}"


_INT = STCon("Int")
_BOOL = STCon("Bool")

_LIST_DECL = SData("List", ("a",),
                   (SCtor("Nil"),
                    SCtor("Cons", (STVar("a"), STList(STVar("a"))))))

_RESERVED_TYPES = {"Int", "Bool"}

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
        elif isinstance(t, STList):
            walk(t.elem)
        elif isinstance(t, STTuple):
            for a in t.items:
                walk(a)
        elif isinstance(t, STFun):
            walk(t.arg)
            walk(t.res)

    walk(t)
    return out


def sub_ty(t: STy, m: dict[str, STy]) -> STy:
    """Substitute type variables by name."""
    if isinstance(t, STVar):
        return m.get(t.name, t)
    if isinstance(t, STCon):
        return STCon(t.name, tuple(sub_ty(a, m) for a in t.args))
    if isinstance(t, STList):
        return STList(sub_ty(t.elem, m))
    if isinstance(t, STTuple):
        return STTuple(tuple(sub_ty(a, m) for a in t.items))
    if isinstance(t, STFun):
        return STFun(sub_ty(t.arg, m), sub_ty(t.res, m))
    return t


def _mangle(name: str, tyargs: tuple[STy, ...]) -> str:
    if not tyargs:
        return name
    return name + "@" + ",".join(str(a) for a in tyargs)


class Program:
    """A checked surface program ready to compile queries against."""

    def __init__(self, surface: SurfaceProgram):
        self.surface = surface
        self.datas: dict[str, SData] = {"List": _LIST_DECL}
        self.ctors: dict[str, tuple[str, int]] = {
            "Nil": ("List", 0), "Cons": ("List", 1)}
        self.funs: dict[str, SFun] = {}
        self._sol: dict[int, STy] = {}
        self._meta_n = 0
        self._fresh_n = 0
        self._ctype_memo: dict[STy, Type] = {}
        self._ctype_building: dict[tuple[str, tuple[STy, ...]], bool] = {}
        # datatypes `_data_type` found to mention themselves and wrapped
        # in a mu type; see `folds`
        self._folded: set[str] = set()
        # mangled name -> closed core, its callees' cores linked in
        self.cores: dict[str, Expr] = {}
        self._fun_stack: list[tuple[str, tuple[STy, ...]]] = []
        self._install()
        self._check_all()

    @classmethod
    def from_source(cls, text: str) -> "Program":
        prog = parse_program(text)
        check_scopes(prog)
        return cls(prog)

    # -- declaration tables ---------------------------------------------

    def _install(self) -> None:
        for d in self.surface.data_decls:
            if d.name in _RESERVED_TYPES or d.name in self.datas:
                raise LuckTypeError(f"type name {d.name} is reserved")
            self.datas[d.name] = d
        for d in self.surface.data_decls:
            for i, c in enumerate(d.ctors):
                if c.name in self.ctors:
                    raise LuckTypeError(f"constructor {c.name} is reserved")
                self.ctors[c.name] = (d.name, i)
            for c in d.ctors:
                for a in c.args:
                    self._check_decl_ty(a, d)
        for f in self.surface.fun_decls:
            if f.sig is None:
                raise LuckTypeError(f"function {f.name} needs a sig")
            if len(set(f.params)) != len(f.params):
                raise LuckTypeError(f"function {f.name} repeats a parameter")
            self.funs[f.name] = f

    def _check_decl_ty(self, t: STy, d: SData) -> None:
        if isinstance(t, STVar):
            if t.name not in d.params:
                raise LuckTypeError(
                    f"type variable {t.name} is not a parameter of {d.name}")
        elif isinstance(t, STCon):
            if t.name in _RESERVED_TYPES:
                arity = 0
            elif t.name in self.datas:
                arity = len(self.datas[t.name].params)
            else:
                raise LuckTypeError(f"unknown type {t.name} in data {d.name}")
            if len(t.args) != arity:
                raise LuckTypeError(
                    f"type {t.name} expects {arity} arguments")
            for a in t.args:
                self._check_decl_ty(a, d)
        elif isinstance(t, STList):
            self._check_decl_ty(t.elem, d)
        elif isinstance(t, (STTuple, STFun)):
            parts = t.items if isinstance(t, STTuple) else (t.arg, t.res)
            for a in parts:
                self._check_decl_ty(a, d)

    def _check_all(self) -> None:
        """Lower every datatype and function once, at Int instantiations."""
        for name, d in self.datas.items():
            if name == "List":
                continue
            self.core_type(STCon(name, (_INT,) * len(d.params)))
        for name, f in self.funs.items():
            tyargs = (_INT,) * len(tyvars_of(f.sig))
            self.lower_fun(name, tyargs)

    def folds(self, t: STy) -> bool:
        """Whether the values of the resolved type t are folds: t is a
        datatype that mentions itself.  Read after t's core type is built.
        """
        return isinstance(t, STCon) and t.name in self._folded

    def ctor_arg_tys(self, cname: str, t: STCon) -> list[STy]:
        """The field types of a constructor at a concrete instantiation."""
        dname, pos = self.ctors[cname]
        d = self.datas[dname]
        m = dict(zip(d.params, t.args))
        return [sub_ty(a, m) for a in d.ctors[pos].args]

    def show_value(self, v: Expr, t: STy) -> str:
        """Render a core value as a surface term of the given type."""
        return self._show(v, t, 0)

    def _show(self, v: Expr, t: STy, level: int) -> str:
        t = self.resolve(t)
        if isinstance(t, STCon) and t.name == "Int":
            if v.value < 0 and level > 0:
                return f"({v.value})"
            return str(v.value)
        if isinstance(t, STCon) and t.name == "Bool":
            return "True" if isinstance(v, Inl) else "False"
        if isinstance(t, STTuple):
            parts = []
            cur = v
            for it in t.items[:-1]:
                parts.append(self._show(cur.fst, it, 0))
                cur = cur.snd
            parts.append(self._show(cur, t.items[-1], 0))
            return "(" + ", ".join(parts) + ")"
        if isinstance(t, STCon) and t.name == "List":
            elems = []
            cur = v
            while True:
                node = cur.arg  # unwrap the fold
                if isinstance(node, Inl):
                    break
                pay = node.arg
                elems.append(self._show(pay.fst, t.args[0], 0))
                cur = pay.snd
            return "[" + ", ".join(elems) + "]"
        if isinstance(t, STCon) and t.name in self.datas:
            d = self.datas[t.name]
            node = v.arg if self.folds(t) else v
            k = len(d.ctors)
            idx = 0
            while idx < k - 1 and isinstance(node, Inr):
                idx += 1
                node = node.arg
            if idx < k - 1:
                node = node.arg
            cname = d.ctors[idx].name
            arg_tys = self.ctor_arg_tys(cname, t)
            if not arg_tys:
                return cname
            args = []
            cur = node
            for at in arg_tys[:-1]:
                args.append(self._show(cur.fst, at, 1))
                cur = cur.snd
            args.append(self._show(cur, arg_tys[-1], 1))
            text = " ".join([cname] + args)
            return f"({text})" if level > 0 else text
        raise LuckTypeError(f"cannot display a value of type {t}")

    # -- functions, linking, queries --------------------------------------

    def lower_fun(self, fname: str, tyargs: tuple[STy, ...]) -> str:
        """Specialize a function to concrete type arguments.

        Returns the mangled name; the closed core lands in self.cores.
        """
        mangled = _mangle(fname, tyargs)
        if mangled in self.cores:
            return mangled
        if (fname, tyargs) in self._fun_stack:
            other = self._fun_stack[-1][0]
            raise LuckTypeError(f"mutual recursion between {other} and "
                                f"{fname} is unsupported")
        if any(g == fname for g, _ in self._fun_stack):
            raise LuckTypeError(f"polymorphic recursion in {fname} is "
                                "unsupported")
        f = self.funs.get(fname)
        if f is None:
            raise LuckTypeError(f"unknown function {fname}")
        tvs = tyvars_of(f.sig)
        if len(tyargs) != len(tvs):
            raise LuckTypeError(f"function {fname} takes {len(tvs)} type "
                                f"arguments, got {len(tyargs)}")
        inst = sub_ty(f.sig, dict(zip(tvs, tyargs)))
        param_tys, result_ty = _split_sig(inst, len(f.params), fname)
        self._fun_stack.append((fname, tyargs))
        try:
            lw = _Lower(self)
            env = {p: (t, Var(p)) for p, t in zip(f.params, param_tys)}
            (bmk, bty) = lw.des(f.body, env)
            self.unify(bty, result_ty, f"body of {fname}")
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

    def expand_fun_case(self, fname: str) -> Tree:
        """The expansion tree of a function whose body is one case."""
        f = self.funs.get(fname)
        if f is None:
            raise LuckTypeError(f"unknown function {fname}")
        tvs = tyvars_of(f.sig)
        inst = sub_ty(f.sig, {v: _INT for v in tvs})
        param_tys, _ = _split_sig(inst, len(f.params), fname)
        if not (isinstance(f.body, SCase) and isinstance(f.body.scrut, SVar)
                and f.body.scrut.name in f.params):
            raise LuckTypeError(f"{fname} is not a single case on a "
                                "parameter")
        lw = _Lower(self)
        sty = param_tys[f.params.index(f.body.scrut.name)]
        for arm in f.body.arms:
            lw.unify_pat(normalize_pat(arm.pat), sty, fname)
        return expand_case((f.body.scrut, sty), list(f.body.arms),
                           lw.oracle, self.fresh)

    def fun_case_masses(self, fname: str):
        """Exact per-leaf probabilities of a function's top-level case."""
        return leaf_masses(self.expand_fun_case(fname))

    # -- unification ------------------------------------------------------

    def meta(self) -> SMeta:
        self._meta_n += 1
        return SMeta(self._meta_n)

    def fresh(self, prefix: str) -> str:
        self._fresh_n += 1
        return f"%{prefix}{self._fresh_n}"

    def resolve(self, t: STy) -> STy:
        """Follow solved metavariables; canonicalize list sugar."""
        while isinstance(t, SMeta) and t.uid in self._sol:
            t = self._sol[t.uid]
        if isinstance(t, STList):
            return STCon("List", (t.elem,))
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
                raise LuckTypeError(f"infinite type in {where}")
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
        raise LuckTypeError(f"type mismatch in {where}: {a} vs {b}")

    # -- core types -------------------------------------------------------

    def core_type(self, t: STy) -> Type:
        """The core encoding of a fully-determined surface type."""
        if t in self._ctype_memo:  # keys hold no metavariables to resolve
            return self._ctype_memo[t]
        return self._core_type(self.resolve_deep(t, default=True))

    def _core_type(self, t: STy) -> Type:
        if isinstance(t, STList):
            t = STCon("List", (t.elem,))
        if t in self._ctype_memo:
            return self._ctype_memo[t]
        if isinstance(t, STVar):
            raise LuckTypeError(f"uninstantiated type variable {t.name}")
        if isinstance(t, STTuple):
            out = self._prod([self._core_type(a) for a in t.items])
        elif isinstance(t, STFun):
            out = TFun(self._core_type(t.arg), self._core_type(t.res))
        elif isinstance(t, STCon) and t.name == "Int":
            out = TInt()
        elif isinstance(t, STCon) and t.name == "Bool":
            out = BOOL
        elif isinstance(t, STCon):
            out = self._data_type(t)
        else:
            raise LuckTypeError(f"cannot lower type {t}")
        if not self._ctype_building:
            # while a datatype is built, its recursive uses are open TVars
            self._ctype_memo[t] = out
        return out

    def _prod(self, parts: list[Type]) -> Type:
        if not parts:
            return TUnit()
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = TProd(p, out)
        return out

    def _data_type(self, t: STCon) -> Type:
        if t.name not in self.datas:
            raise LuckTypeError(f"unknown type {t.name}")
        d = self.datas[t.name]
        if len(t.args) != len(d.params):
            raise LuckTypeError(f"type {t.name} expects {len(d.params)} "
                                f"arguments, got {len(t.args)}")
        key = (t.name, t.args)
        if key in self._ctype_building:
            self._ctype_building[key] = True
            return TVar(str(t))
        self._ctype_building[key] = False
        m = dict(zip(d.params, t.args))
        payloads = [self._prod([self._core_type(sub_ty(a, m))
                                for a in c.args]) for c in d.ctors]
        spine = payloads[-1]
        for p in reversed(payloads[:-1]):
            spine = TSum(p, spine)
        used = self._ctype_building.pop(key)
        others = {str(STCon(n, a)) for n, a in self._ctype_building}
        loose = _tvar_names(spine) & others
        if loose:
            raise LuckTypeError(
                f"datatype {t.name} is recursive through another type; "
                "only direct recursion is supported")
        if not used:
            return spine
        self._folded.add(t.name)
        return TMu(str(t), spine)


def _sum_levels(full: Type, n: int) -> list[Type]:
    """The n - 1 sums along the spine of a type of n constructors whose
    core type is full: level i holds constructor i on its left and the
    constructors after it on its right."""
    level = unfold_mu(full) if isinstance(full, TMu) else full
    levels = []
    for _ in range(n - 1):
        levels.append(level)
        level = level.right
    return levels


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

    def oracle(self, t: STy):
        t = self.p.resolve(t)
        if t == _BOOL:
            return DATA, [("True", []), ("False", [])]
        if t == _INT:
            return ATOM, None
        if isinstance(t, STTuple):
            return DATA, [("", list(t.items))]
        if isinstance(t, STCon) and t.name in self.p.datas:
            d = self.p.datas[t.name]
            m = dict(zip(d.params, t.args))
            return DATA, [(c.name, [sub_ty(a, m) for a in c.args])
                          for c in d.ctors]
        raise ExpandError(f"cannot match on a value of type {t}")

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
                raise LuckTypeError(f"line {e.line}: cannot sample unbound "
                                    f"variable {e.var}")
            target = env[e.var][1]
            return (lambda: After(mk(), Bang(target))), ty
        if isinstance(e, STupleE):
            parts = [self.des(x, env) for x in e.items]
            mks = [mk for mk, _ in parts]

            def mk_tuple() -> Expr:
                vals = [m() for m in mks]
                out = vals[-1]
                for v in reversed(vals[:-1]):
                    out = Pair(v, out)
                return out

            return mk_tuple, STTuple(tuple(t for _, t in parts))
        if isinstance(e, SListE):
            elem = self.p.meta()
            where = f"line {e.line}: list element"
            out_mk, out_ty = self.ctor("Nil", [], where)
            self.unify(out_ty, STCon("List", (elem,)), where)
            for item in reversed(e.items):
                (imk, ity) = self.des(item, env)
                self.unify(ity, elem, where)
                out_mk, out_ty = self.ctor(
                    "Cons", [(imk, ity), (out_mk, out_ty)], where)
            return out_mk, out_ty
        if isinstance(e, SCase):
            return self.lower_case(e, env)
        raise LuckTypeError(f"cannot lower expression {e!r}")

    # -- functions and constructors ----------------------------------------

    def fun_use(self, name: str, where: str) -> tuple[Mk, STy]:
        if name == "not":
            raise LuckTypeError(f"{where}: not must be applied "
                                "to one argument")
        if name not in self.p.funs:
            raise LuckTypeError(f"{where}: unknown function {name}")
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

    def ctor(self, cname: str, args: list[tuple[Mk, STy]],
             where: str) -> tuple[Mk, STy]:
        if cname in ("True", "False"):
            if args:
                raise LuckTypeError(f"{where}: {cname} takes no arguments")
            v = TRUE if cname == "True" else FALSE
            return (lambda: v), _BOOL
        if cname not in self.p.ctors:
            raise LuckTypeError(f"{where}: unknown constructor {cname}")
        dname, pos = self.p.ctors[cname]
        d = self.p.datas[dname]
        arity = len(d.ctors[pos].args)
        if len(args) != arity:
            raise LuckTypeError(f"{where}: constructor {cname} takes "
                                f"{arity} arguments, got {len(args)}")
        metas = [self.p.meta() for _ in d.params]
        dty = STCon(dname, tuple(metas))
        m = dict(zip(d.params, metas))
        for (_, got), want in zip(args, d.ctors[pos].args):
            self.unify(got, sub_ty(want, m), where)
        arg_mks = [mk for mk, _ in args]
        n = len(d.ctors)

        def mk() -> Expr:
            full = self.p.core_type(dty)
            vals = [m_() for m_ in arg_mks]
            if not vals:
                v: Expr = Unit()
            else:
                v = vals[-1]
                for x in reversed(vals[:-1]):
                    v = Pair(x, v)
            # nest the payload at its position along the sum spine: the
            # k-th constructor sits under k Inr wrappers, with an Inl on
            # top unless it is the last constructor
            levels = _sum_levels(full, n)
            if pos < n - 1:
                v = Inl(v, levels[pos])
            for i in range(pos - 1, -1, -1):
                v = Inr(v, levels[i])
            return Fold(v, full) if self.p.folds(dty) else v

        return mk, dty

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
        if e.op == ":":
            h = self.des(e.lhs, env)
            t = self.des(e.rhs, env)
            self.unify(t[1], STCon("List", (h[1],)), where)
            return self.ctor("Cons", [h, t], where)
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
        closed_r = _closed_term(e.rhs)
        closed_l = _closed_term(e.lhs)
        if closed_r is not None:
            return self.match_term(lhs[0], closed_r, t, env, where)
        if closed_l is not None:
            return self.match_term(rhs[0], closed_l, t, env, where)
        raise LuckTypeError(
            f"{where}: structural equality needs a constructor term "
            "on one side")

    def match_term(self, occ: Mk, term: SExpr, t: STy, env: dict,
                   where: str) -> Mk:
        """A matcher for  occ == term  with term built from constructors."""
        t = self.p.resolve(t)
        if t == _INT:
            (tmk, tty) = self.des(term, env)
            self.unify(tty, _INT, where)
            return lambda: Cmp("==", occ(), tmk())
        if t == _BOOL:
            if not (isinstance(term, SCon) and term.name in ("True", "False")):
                raise LuckTypeError(f"{where}: expected True or False")
            if term.name == "True":
                return occ
            return lambda: CaseSum(occ(), "_", FALSE, "_", TRUE, BOOL)
        if isinstance(t, STTuple):
            if not (isinstance(term, STupleE)
                    and len(term.items) == len(t.items)):
                raise LuckTypeError(f"{where}: tuple arity mismatch")
            names = [self.fresh("e") for _ in t.items]
            parts = [self.match_term((lambda nm=nm: Var(nm)), item, ti,
                                     env, where)
                     for nm, item, ti in zip(names, term.items, t.items)]
            body = _conj(parts)

            rests = [f"{nm}r" for nm in names[:-2]]
            return lambda: _case_pairs(body(), occ(), names, rests,
                                       self.p.core_type(t))
        if isinstance(t, STCon) and t.name in self.p.datas:
            cname, args = _term_spine(term)
            if cname is None or cname not in self.p.ctors:
                raise LuckTypeError(f"{where}: expected a constructor term "
                                    f"of type {t.name}")
            dname, pos = self.p.ctors[cname]
            if dname != t.name:
                raise LuckTypeError(f"{where}: constructor {cname} does not "
                                    f"belong to {t.name}")
            arg_tys = self.p.ctor_arg_tys(cname, t)
            if len(args) != len(arg_tys):
                raise LuckTypeError(f"{where}: constructor {cname} takes "
                                    f"{len(arg_tys)} arguments")
            n = len(self.p.datas[dname].ctors)
            names = [self.fresh("e") for _ in arg_tys]
            parts = [self.match_term((lambda nm=nm: Var(nm)), a, ti,
                                     env, where)
                     for nm, a, ti in zip(names, args, arg_tys)]
            payload_eq = _conj(parts) if parts else (lambda: TRUE)

            def payload_body(cur: Expr) -> Expr:
                k = len(names)
                if k == 0:
                    return payload_eq()
                if k == 1:
                    # a single field: the payload is the field itself
                    return subst(payload_eq(), names[0], cur) \
                        if isinstance(cur, Var) else \
                        App(Rec(self.p.fresh("eqf"), names[0],
                                self.p.core_type(arg_tys[0]),
                                payload_eq(), BOOL), cur)
                return _case_pairs(payload_eq(), cur, names,
                                   [self.fresh("er") for _ in range(k - 2)],
                                   self.p.core_type(STTuple(tuple(arg_tys))))

            def mk() -> Expr:
                full = self.p.core_type(t)
                levels = _sum_levels(full, n)
                cur = Unfold(occ(), full) if self.p.folds(t) else occ()
                # walk the sum spine to the constructor's position
                def go(cur: Expr, i: int) -> Expr:
                    if i == n - 1:
                        return payload_body(cur)
                    ln = names[0] if (i == pos and len(names) == 1) \
                        else self.p.fresh("el")
                    rn = self.p.fresh("es")
                    if i == pos:
                        left = payload_body(Var(ln))
                        right: Expr = FALSE
                    else:
                        left = FALSE
                        right = go(Var(rn), i + 1)
                    return CaseSum(cur, ln, left, rn, right, levels[i])

                return go(cur, 0)

            return mk
        raise LuckTypeError(f"{where}: cannot compare values of type {t}")

    # -- case lowering -------------------------------------------------------

    def lower_case(self, e: SCase, env: dict) -> tuple[Mk, STy]:
        (smk, sty) = self.des(e.scrut, env)
        where = f"line {e.line}: case"
        try:
            pats = [normalize_pat(a.pat) for a in e.arms]
        except ExpandError as ex:
            raise LuckTypeError(f"{where}: {ex}") from None
        for pat in pats:
            self.unify_pat(pat, sty, where)
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
        if isinstance(p, PTuple):
            metas = [self.p.meta() for _ in p.items]
            self.unify(t, STTuple(tuple(metas)), where)
            for sub, m in zip(p.items, metas):
                self.unify_pat(sub, m, where)
            return
        if isinstance(p, PCon):
            if p.name in ("True", "False"):
                if p.args:
                    raise LuckTypeError(f"{where}: {p.name} takes no "
                                        "arguments")
                self.unify(t, _BOOL, where)
                return
            if p.name not in self.p.ctors:
                raise LuckTypeError(f"{where}: unknown constructor {p.name}")
            dname, pos = self.p.ctors[p.name]
            d = self.p.datas[dname]
            metas = [self.p.meta() for _ in d.params]
            self.unify(t, STCon(dname, tuple(metas)), where)
            want = d.ctors[pos].args
            if len(p.args) != len(want):
                raise LuckTypeError(
                    f"{where}: constructor {p.name} takes {len(want)} "
                    f"arguments, pattern has {len(p.args)}")
            m = dict(zip(d.params, metas))
            for sub, a in zip(p.args, want):
                self.unify_pat(sub, sub_ty(a, m), where)
            return
        raise LuckTypeError(f"{where}: unsupported pattern")

    def lower_tree(self, node: Tree, env: dict, rmeta: STy) -> Mk:
        if isinstance(node, Leaf):
            env2 = dict(env)
            for pv, occ in node.bindings:
                env2[pv] = env[occ.name]
            (bmk, bty) = self.des(node.body, env2)
            self.unify(bty, rmeta, "case arm result")
            return bmk
        if isinstance(node, Fail):
            return lambda: MatchFail(self.p.core_type(rmeta))
        return self.lower_node(node, env, rmeta)

    def lower_node(self, node: CaseNode, env: dict, rmeta: STy) -> Mk:
        t = self.p.resolve(node.ty)
        occ_core = env[node.occ.name][1]
        kids = node.children
        n = len(kids)
        wmks = self._weights(kids, env)

        def payload(child: Child, cur: Optional[Expr]) -> tuple[str, Mk]:
            """Binder name and body builder for one constructor child.

            cur is the payload expression for single-constructor types,
            where no sum dispatch wraps the payload; otherwise the
            payload arrives through the returned binder.
            """
            argvars = list(child.argvars)
            if not argvars:
                return "_", self.lower_tree(child.sub, env, rmeta)
            env2 = dict(env)
            for nm, ty in argvars:
                env2[nm] = (ty, Var(nm))
            if len(argvars) == 1:
                nm = argvars[0][0]
                if cur is not None:
                    env2[nm] = (argvars[0][1], cur)
                    return "_", self.lower_tree(child.sub, env2, rmeta)
                return nm, self.lower_tree(child.sub, env2, rmeta)
            sub = self.lower_tree(child.sub, env2, rmeta)
            names = [nm for nm, _ in argvars]
            pname = self.fresh("p")
            rests = [self.fresh("t") for _ in range(len(names) - 2)]
            top = cur if cur is not None else Var(pname)
            ty = STTuple(tuple(st for _, st in argvars))
            return pname, lambda: _case_pairs(sub(), top, names, rests,
                                              self.p.core_type(ty))

        if n == 1:
            # no sum to dispatch on: the payload is bound in place, so its
            # type is read before unification ends
            full = self.p.core_type(t)
            if self.p.folds(t):
                occ_core = Unfold(occ_core, full)
            _, body = payload(kids[0], occ_core)
            return body

        def add(a: Expr, b: Expr) -> Expr:
            if isinstance(a, IntLit) and isinstance(b, IntLit):
                return IntLit(a.value + b.value)
            return Arith("+", a, b)

        rest_mks: list[Optional[Mk]] = [None] * n
        rest_mks[n - 2] = wmks[n - 1]
        for i in range(n - 3, -1, -1):
            nxt, acc = wmks[i + 1], rest_mks[i + 1]
            rest_mks[i] = (lambda a=nxt, b=acc: add(a(), b()))

        def cascade(i: int) -> Callable[[Expr, list[Type]], Expr]:
            """Constructors i.. as a builder over scrutinee and levels."""
            lname, lbody = payload(kids[i], None)
            if i == n - 2:
                rname, last = payload(kids[i + 1], None)
                rest = lambda levels: last()
            else:
                rname = self.fresh("r")
                inner = cascade(i + 1)
                rest = lambda levels: inner(Var(rname), levels)
            wl, wr = wmks[i], rest_mks[i]
            return (lambda cur, levels: CaseSum(
                Inst(cur, wl(), wr()), lname, lbody(), rname, rest(levels),
                levels[i]))

        build = cascade(0)

        def mk() -> Expr:
            full = self.p.core_type(t)
            cur = Unfold(occ_core, full) if self.p.folds(t) else occ_core
            return build(cur, _sum_levels(full, n))

        return mk

    def _weights(self, kids: list[Child], env: dict) -> list[Mk]:
        ws = [c.weight for c in kids]
        if all(isinstance(w, Fraction) for w in ws):
            if sum(ws) == 0:
                raise LuckTypeError("case expression has no weight mass")
            denom = 1
            for w in ws:
                denom = denom * w.denominator // gcd(denom, w.denominator)
            ints = [int(w * denom) for w in ws]
            return [(lambda v=v: IntLit(v)) for v in ints]
        out = []
        for w in ws:
            assert isinstance(w, SExpr)
            (mk, ty) = self.des(w, env)
            self.unify(ty, _INT, "case arm weight")
            out.append(mk)
        return out


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


def _closed_term(e: SExpr) -> Optional[SExpr]:
    """Normalize an expression built only from constructors and literals."""
    if isinstance(e, SCon):
        return e
    if isinstance(e, SInt):
        return e
    if isinstance(e, SApp):
        head, spine = _spine(e)
        if not isinstance(head, SCon):
            return None
        parts = [_closed_term(a) for a in spine]
        if any(p is None for p in parts):
            return None
        out: SExpr = head
        for p in parts:
            out = SApp(out, p)
        return out
    if isinstance(e, SBin) and e.op == ":":
        h, t = _closed_term(e.lhs), _closed_term(e.rhs)
        if h is None or t is None:
            return None
        return SApp(SApp(SCon("Cons"), h), t)
    if isinstance(e, SListE):
        parts = [_closed_term(x) for x in e.items]
        if any(p is None for p in parts):
            return None
        out = SCon("Nil")
        for p in reversed(parts):
            out = SApp(SApp(SCon("Cons"), p), out)
        return out
    if isinstance(e, STupleE):
        parts = [_closed_term(x) for x in e.items]
        if any(p is None for p in parts):
            return None
        return STupleE(tuple(parts))
    return None


def _spine(e: SExpr) -> tuple[SExpr, list[SExpr]]:
    """The head of an application chain and its arguments, in order."""
    args = []
    while isinstance(e, SApp):
        args.append(e.arg)
        e = e.fun
    args.reverse()
    return e, args


def _term_spine(e: SExpr) -> tuple[Optional[str], list[SExpr]]:
    head, args = _spine(e)
    if isinstance(head, SCon):
        return head.name, args
    return None, []


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


def _split_sig(sig: STy, nparams: int, fname: str) -> tuple[list[STy], STy]:
    params = []
    t = sig
    for _ in range(nparams):
        if not isinstance(t, STFun):
            raise LuckTypeError(f"function {fname} has more parameters "
                                "than its sig has arrows")
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
    elif isinstance(e, (STupleE, SListE)):
        for sub in e.items:
            _free_vars_of_call(p, sub, out)
    elif isinstance(e, SCase):
        _free_vars_of_call(p, e.scrut, out)
