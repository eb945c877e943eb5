import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from luck.core import (
    BOOL,
    FALSE,
    TRUE,
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
    Pair,
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
from luck.constraints import Constraint, ConstraintSet, RSum
from luck.intdomain import IntDomain
from luck.matching import match_eval
from luck.narrow import narrow
from luck.predsem import pred_eval
from luck.trace import Choice, RunCtx, ScriptedSource

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
    body = CaseSum(Var("x"), "x", Var("x"), "y", Var("x"), BOOL)
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
    bad = CaseSum(Unit(), "a", Unit(), "b", Unit(), BOOL)
    with pytest.raises(TypeCheckError):
        typecheck(bad)


def test_typecheck_rejects_arm_mismatch():
    bad = CaseSum(TRUE, "a", Unit(), "b", IntLit(3), BOOL)
    with pytest.raises(TypeCheckError):
        typecheck(bad)


def test_typecheck_checks_the_scrutinee_types_nodes_carry():
    ints = TProd(TInt(), TInt())
    pair = CasePair(Pair(IntLit(1), IntLit(2)), "a", "b", Var("b"), ints)
    case = CaseSum(TRUE, "a", IntLit(1), "b", IntLit(2), BOOL)
    unfold = Unfold(nat(2), NAT)
    assert type_eq(typecheck(pair), TInt())
    assert type_eq(typecheck(case), TInt())
    assert type_eq(typecheck(unfold), unfold_mu(NAT))
    wrong = [
        CasePair(pair.scrut, "a", "b", Var("b"), TProd(TInt(), BOOL)),
        CasePair(pair.scrut, "a", "b", Var("b"), BOOL),
        CaseSum(TRUE, "a", IntLit(1), "b", IntLit(2), TSum(TInt(), TUnit())),
        CaseSum(TRUE, "a", IntLit(1), "b", IntLit(2), ints),
        Unfold(nat(2), TMu("Y", TSum(TInt(), TVar("Y")))),
        Unfold(nat(2), unfold_mu(NAT)),
    ]
    for e in wrong:
        with pytest.raises(TypeCheckError):
            typecheck(e)


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


def test_a_kept_type_hash_is_left_out_of_pickles():
    # a string hashes differently under another PYTHONHASHSEED, so a hash
    # that travelled with the pickle would miss every dictionary there
    list_ty = TMu("L", TSum(TUnit(), TProd(TInt(), TVar("L"))))
    hash(list_ty)
    child = (
        "import pickle, sys\n"
        "from luck.core import TInt, TMu, TProd, TSum, TUnit, TVar\n"
        "got = pickle.loads(sys.stdin.buffer.read())\n"
        "built = TMu('L', TSum(TUnit(), TProd(TInt(), TVar('L'))))\n"
        f"print(hash('L') != {hash('L')}, got == built,\n"
        "      hash(got) == hash(built), {built: 1}[got])\n")
    src = str(Path(__file__).parent.parent / "src")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", child],
                         input=pickle.dumps(list_ty), env=env,
                         capture_output=True, check=True)
    assert out.stdout.split() == [b"True", b"True", b"True", b"1"]


def _expr_classes(cls=Expr):
    for sub in cls.__subclasses__():
        yield sub
        yield from _expr_classes(sub)


def test_every_core_node_is_a_dataclass():
    classes = [Expr, *_expr_classes()]
    assert len(classes) >= 21
    for cls in classes:
        assert dataclasses.is_dataclass(cls)
        assert [f.name for f in dataclasses.fields(cls)] == \
            list(cls.__dataclass_fields__)


def _used_copies():
    """(fresh, used) pairs: each used copy came out of the machinery that
    hashes, compares and, for a core node, compiles it."""
    node = Inl(Unit(), BOOL)
    ctx = RunCtx(ScriptedSource([]))
    narrow(node, ConstraintSet(), ctx)
    match_eval(node, TRUE, ConstraintSet(), ctx)
    pred_eval(node)
    assert node._narrow and node._match and node._pred
    unknown = Unknown(3)
    narrow(unknown, ConstraintSet().fresh([BOOL] * 4)[0], ctx)
    assert unknown._narrow
    ctx.record(0, 2, 1, 2)
    cs = ConstraintSet(int_bounds=(0, 3))
    cs, (a, b) = cs.fresh([TInt(), TInt()])
    domain = cs.resolve(a)[1]
    cs = cs.post_cmp("<", Unknown(a), Unknown(b))
    bs, (u,) = ConstraintSet().fresh([BOOL])
    bs, root, level = bs.expand(u)
    bs = bs.keep_side(root, level, True)
    return [(Inl(Unit(), BOOL), node), (Unknown(3), unknown),
            (Choice(0, 2), ctx.trace[0]),
            (Constraint("<", 0, 1), cs.cons[cs.find(a)][0]),
            (IntDomain.bounded(0, 3), domain),
            (RSum(1, None, BOOL), bs.resolve(u)[1])]


def test_a_used_object_equals_and_hashes_as_a_fresh_one():
    for fresh, used in _used_copies():
        assert fresh is not used
        assert fresh == used and used == fresh
        assert hash(fresh) == hash(used)
        assert {fresh: 1}[used] == 1
