from luck.core import (
    BOOL,
    FALSE,
    TRUE,
    After,
    App,
    Arith,
    Bang,
    CaseSum,
    Cmp,
    Expr,
    Fold,
    Inl,
    Inr,
    Inst,
    IntLit,
    Rec,
    TFun,
    TInt,
    TMu,
    TProd,
    TSum,
    TUnit,
    TVar,
    TypeCheckError,
    Unfold,
    Unit,
    Unknown,
    Var,
    erase,
    is_flat,
    subst,
    type_eq,
    typecheck,
    unfold_mu,
)

import pytest

NAT = TMu("X", TSum(TUnit(), TVar("X")))


def nat(n: int) -> Expr:
    v: Expr = Inl(Unit(), unfold_mu(NAT))
    for _ in range(n):
        v = Inr(Fold(v, NAT), unfold_mu(NAT))
    return Fold(v, NAT)


def test_type_equality_alpha():
    a = TMu("X", TSum(TUnit(), TVar("X")))
    b = TMu("Y", TSum(TUnit(), TVar("Y")))
    assert type_eq(a, b)
    assert not type_eq(a, TMu("X", TSum(TVar("X"), TUnit())))


def test_type_equality_nested_mu():
    a = TMu("X", TProd(TVar("X"), TMu("Y", TVar("Y"))))
    b = TMu("Y", TProd(TVar("Y"), TMu("X", TVar("X"))))
    assert type_eq(a, b)


def test_flatness():
    assert is_flat(NAT)
    assert is_flat(TProd(TInt(), BOOL))
    assert not is_flat(TFun(TUnit(), TUnit()))
    assert not is_flat(TProd(TInt(), TFun(TInt(), TInt())))


def test_unfold_mu():
    assert type_eq(unfold_mu(NAT), TSum(TUnit(), NAT))


def test_subst_shadowing():
    body = CaseSum(Var("x"), "x", Var("x"), "y", Var("x"))
    out = subst(body, "x", Unit())
    assert isinstance(out, CaseSum)
    assert out.scrut == Unit()
    # the left arm rebinds x, so its body is untouched
    assert out.left_body == Var("x")
    assert out.right_body == Unit()


def test_typecheck_bool_constants():
    assert type_eq(typecheck(TRUE), BOOL)
    assert type_eq(typecheck(FALSE), BOOL)


def test_typecheck_nat_value():
    assert type_eq(typecheck(nat(3)), NAT)


def test_typecheck_rejects_bad_case():
    bad = CaseSum(Unit(), "a", Unit(), "b", Unit())
    with pytest.raises(TypeCheckError):
        typecheck(bad)


def test_typecheck_rejects_arm_mismatch():
    bad = CaseSum(TRUE, "a", Unit(), "b", IntLit(3))
    with pytest.raises(TypeCheckError):
        typecheck(bad)


def test_typecheck_app():
    ident = Rec("f", "x", TInt(), Var("x"), TInt())
    assert type_eq(typecheck(App(ident, IntLit(4))), TInt())
    with pytest.raises(TypeCheckError):
        typecheck(App(ident, Unit()))


def test_typecheck_unknowns_need_types():
    with pytest.raises(TypeCheckError):
        typecheck(Unknown(0))
    assert type_eq(typecheck(Unknown(0), utypes={0: BOOL}), BOOL)


def test_typecheck_unknown_must_be_flat():
    with pytest.raises(TypeCheckError):
        typecheck(Unknown(0), utypes={0: TFun(TInt(), TInt())})


def test_typecheck_annotations():
    e = Inst(Unknown(0), IntLit(1), IntLit(3))
    assert type_eq(typecheck(e, utypes={0: BOOL}), BOOL)
    assert type_eq(typecheck(Bang(Unknown(0)), utypes={0: BOOL}), BOOL)
    with pytest.raises(TypeCheckError):
        typecheck(Inst(Unknown(0), Unit(), IntLit(1)), utypes={0: BOOL})


def test_typecheck_cmp_and_arith():
    assert type_eq(typecheck(Cmp("<", IntLit(1), IntLit(2))), BOOL)
    assert type_eq(typecheck(Arith("+", IntLit(1), IntLit(2))), TInt())
    with pytest.raises(TypeCheckError):
        typecheck(Cmp("<", Unit(), IntLit(2)))


def test_erase_strips_annotations():
    e = After(Inst(Bang(Unknown(0)), IntLit(1), IntLit(1)), TRUE)
    assert erase(e) == Unknown(0)
