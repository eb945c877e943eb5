"""A typechecker for lowered core terms, used only by the tests.

No evaluator calls it: narrowing, matching and the predicate semantics
trust the types that lowering puts on ``CaseSum``, ``CasePair`` and
``Unfold`` nodes, and the tests check those types here.
"""

from luck.core import (
    BOOL,
    After,
    App,
    Arith,
    Bang,
    CasePair,
    CaseSum,
    Cmp,
    Expr,
    Fold,
    Inl,
    Inr,
    Inst,
    IntLit,
    MatchFail,
    Pair,
    Rec,
    TFun,
    TInt,
    TMu,
    TProd,
    TSum,
    TUnit,
    TVar,
    Type,
    TypeCheckError,
    Unfold,
    Unit,
    Unknown,
    Var,
    is_flat,
    unfold_mu,
)

CMP_OPS = ("==", "/=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*", "/")


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


def typecheck(e: Expr, env: dict[str, Type] | None = None,
              utypes: dict[int, Type] | None = None) -> Type:
    """Infer the type of a lowered term or raise TypeCheckError.

    env maps bound variables to their types and utypes maps unknowns,
    which must be flat.  The type a ``CaseSum``, ``CasePair`` or
    ``Unfold`` carries must be the one inferred for its scrutinee.  The
    argument of a ``rec`` is bound last, so it shadows the function name.
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
