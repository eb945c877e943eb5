"""Surface-to-core lowering: types, cascades, equality, monomorphization."""

import hashlib
import re
from pathlib import Path

import pytest

from luck.core import (
    BOOL,
    FALSE,
    TRUE,
    Arith,
    CaseSum,
    Expr,
    Inst,
    IntLit,
    Rec,
    TInt,
    TMu,
    TProd,
    TSum,
    TUnit,
    TVar,
)
from luck.desugar import LuckTypeError, Program
from luck.driver import enumerate_query, prepare, recheck, run_prepared
from luck.predsem import pred_eval
from luck.surface import STCon, STTuple

from .test_cli import CORPUS_SWEEP
from .typecheck import type_eq, typecheck

CORPUS = Path(__file__).parent.parent / "corpus"


def load(name):
    return Program.from_source((CORPUS / name).read_text())


def nodes(e, klass):
    """All nodes of a class in an expression, preorder."""
    out = []

    def go(x):
        if isinstance(x, klass):
            out.append(x)
        for f in getattr(x, "__dataclass_fields__", {}):
            v = getattr(x, f)
            if isinstance(v, Expr):
                go(v)

    go(e)
    return out


def ground(prog, query):
    q = prog.compile_query(query)
    assert not q.unknowns, "query was supposed to be ground"
    return pred_eval(q.target)


# -- datatype lowering ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.luck")))
def test_corpus_programs_lower(name):
    load(name)  # loading type-checks and lowers every declared function


def test_recursive_datatype_lowers_to_a_mu_type():
    q = load("bst.luck").compile_query("bst 3 0 10 t = True")
    x = TVar("Tree Int")
    assert q.unknowns == {"t": TMu("Tree Int",
                                   TSum(TUnit(),
                                        TProd(TInt(), TProd(x, x))))}
    assert q.expect_true is True


def test_non_recursive_datatype_lowers_to_a_plain_sum():
    prog = Program.from_source("""
data Opt a = None | Some a
sig f :: Opt Int -> Bool
fun f m = case m of | Some x -> 0 < x | None -> False end
""")
    q = prog.compile_query("f u = True")
    assert q.unknowns == {"u": TSum(TUnit(), TInt())}


def test_bool_is_a_prelude_datatype():
    prog = Program.from_source("sig f :: Bool -> Bool\nfun f b = b")
    assert prog.constructors(STCon("Bool")) == [("True", []), ("False", [])]
    assert prog._data_type(STCon("Bool")) == BOOL
    assert prog.construct(STCon("Bool"), 0, []) == TRUE
    assert prog.construct(STCon("Bool"), 1, []) == FALSE


def test_construct_and_show_agree_on_every_layout():
    prog = Program.from_source("""
data Opt a = None | Some a
data T = L | N Int T
sig f :: Int -> Bool
fun f x = True
""")
    pair = STTuple((STCon("Int"), STCon("Bool")))
    opt = STCon("Opt", (pair,))
    ints = STCon("List", (STCon("Int"),))
    tree = STCon("T")

    def make(t, name, *fields):
        ctors = [c for c, _ in prog.constructors(prog.resolve(t))]
        return prog.construct(t, ctors.index(name), list(fields))

    no, yes = make(STCon("Bool"), "False"), make(STCon("Bool"), "True")
    some = make(opt, "Some", make(pair, "", IntLit(-2), no))
    nil = make(ints, "Nil")
    leaf = make(tree, "L")
    cases = [
        (make(pair, "", IntLit(1), yes), pair, "(1, True)"),
        (some, opt, "Some (-2, False)"),
        (make(opt, "None"), opt, "None"),
        (make(ints, "Cons", IntLit(3), make(ints, "Cons", IntLit(-4), nil)),
         ints, "[3, -4]"),
        (nil, ints, "[]"),
        (make(tree, "N", IntLit(-1), make(tree, "N", IntLit(5), leaf)), tree,
         "N (-1) (N 5 L)"),
        (make(STTuple((opt, tree)), "", some, leaf), STTuple((opt, tree)),
         "(Some (-2, False), L)"),
    ]
    for v, t, text in cases:
        assert prog.show_value(v, t) == text


# -- case cascades -------------------------------------------------------------


def test_three_arm_weights_become_a_stick_breaking_cascade():
    prog = Program.from_source("""
data T = A | B | C
sig f :: T -> Bool
fun f t = case t of | 1 % A -> True | 2 % B -> True | 3 % C -> False end
""")
    insts = nodes(prog.cores["f"], Inst)
    pairs = [(i.w_left.value, i.w_right.value) for i in insts
             if isinstance(i.w_left, IntLit) and isinstance(i.w_right,
                                                            IntLit)]
    assert pairs == [(1, 5), (2, 3)]


def test_bool_case_uses_weighted_dispatch():
    prog = Program.from_source("""
sig f :: Bool -> Bool
fun f b = case b of | 3 % True -> True | 1 % False -> False end
""")
    (inst,) = nodes(prog.cores["f"], Inst)
    assert (inst.w_left.value, inst.w_right.value) == (3, 1)


def test_connectives_and_if_stay_unweighted():
    prog = Program.from_source("""
sig f :: Bool -> Bool -> Bool
fun f a b = if a && b then not a else a || b
""")
    core = prog.cores["f"]
    assert nodes(core, Inst) == []
    assert nodes(core, CaseSum) != []


def test_single_constructor_datatype_destructures_without_choice():
    prog = Program.from_source("""
data Box a = Box a
sig f :: Box Int -> Bool
fun f b = case b of | Box x -> 0 < x end
""")
    assert nodes(prog.cores["f"], Inst) == []
    assert ground(prog, "f (Box 3) = True") == TRUE
    assert ground(prog, "f (Box 0) = True") == FALSE


def test_non_variable_scrutinee_is_evaluated_once():
    prog = Program.from_source("""
sig f :: Int -> Bool
fun f n = case n + 1 of | m -> 0 < m && m < 5 end
""")
    assert len(nodes(prog.cores["f"], Arith)) == 1
    assert ground(prog, "f 3 = True") == TRUE
    assert ground(prog, "f 5 = True") == FALSE


# -- ground evaluation agrees with the source reading ------------------------


@pytest.mark.parametrize("source,query,want", [
    ("member.luck", "member 2 [1, 2, 3] = True", TRUE),
    ("member.luck", "member 5 [1, 2, 3] = True", FALSE),
    ("member.luck", "member 5 [] = True", FALSE),
    ("sorted.luck", "sorted [1, 2, 3] = True", TRUE),
    ("sorted.luck", "sorted [2, 2] = True", FALSE),
    ("sorted.luck", "sorted [] = True", TRUE),
    ("length.luck", "length [4, 5, 6] 3 = True", TRUE),
    ("length.luck", "length [] 1 = True", FALSE),
    ("distinct.luck", "distinct [1, 2, 3] = True", TRUE),
    ("distinct.luck", "distinct [1, 2, 1] = True", FALSE),
    ("redex.luck", "isRedex (App (Lam 1 (Var 1)) (Var 2)) = True", TRUE),
    ("redex.luck", "isRedex (Var 1) = True", FALSE),
    ("redex.luck", "isRedex (App (Var 1) (Var 2)) = True", FALSE),
    ("ex35.luck", "a 2 = True", TRUE),
    ("ex35.luck", "a 0 = True", FALSE),
    ("ex35.luck", "a 4 = True", FALSE),
    ("ex35.luck", "b 3 = True", TRUE),
    ("ex35.luck", "b 5 = True", FALSE),
    ("bst.luck", "bst 3 0 10 (Node 5 Empty Empty) = True", TRUE),
    ("bst.luck", "bst 3 0 10 Empty = True", TRUE),
    ("bst.luck", "bst 2 0 10 (Node 5 (Node 7 Empty Empty) Empty) = True",
     FALSE),
    ("bst.luck", "bst 0 0 10 (Node 5 Empty Empty) = True", FALSE),
    ("rbt.luck", "isRBT 0 0 5 Red Leaf = True", TRUE),
    ("rbt.luck", "isRBT 1 0 9 Red (Node Black 4 Leaf Leaf) = True", TRUE),
    ("rbt.luck", "isRBT 1 0 9 Red (Node Red 4 Leaf Leaf) = True", FALSE),
    ("rbt.luck",
     "isRBT 1 0 9 Black (Node Red 4 Leaf (Node Black 7 Leaf Leaf)) = True",
     FALSE),
])
def test_ground_queries(source, query, want):
    assert ground(load(source), query) == want


# -- structural equality -------------------------------------------------------


def test_equality_on_datatypes_needs_one_closed_side():
    prog = Program.from_source("""
data P = MkP Int Bool
sig f :: P -> Bool
fun f p = p == MkP 3 True
""")
    assert ground(prog, "f (MkP 3 True) = True") == TRUE
    assert ground(prog, "f (MkP 3 False) = True") == FALSE
    assert ground(prog, "f (MkP 2 True) = True") == FALSE


def test_inequality_and_bool_equality():
    prog = Program.from_source("""
sig f :: Int -> Bool
fun f x = x /= 3
sig g :: Bool -> Bool
fun g b = b == False
""")
    assert ground(prog, "f 4 = True") == TRUE
    assert ground(prog, "f 3 = True") == FALSE
    assert ground(prog, "g False = True") == TRUE
    assert ground(prog, "g True = True") == FALSE


def test_a_lone_field_of_a_lone_constructor_is_compared_in_place():
    prog = Program.from_source("""
data W = W Int
sig f :: W -> Bool
fun f w = w == W 3
""")
    # the comparison reads w itself: no function binds the field
    assert nodes(prog.cores["f"], Rec) == [prog.cores["f"]]
    assert ground(prog, "f (W 3) = True") == TRUE
    assert ground(prog, "f (W 2) = True") == FALSE


def test_equality_between_two_open_terms_is_rejected():
    with pytest.raises(LuckTypeError, match="constructor term"):
        Program.from_source("""
sig k :: [Int] -> [Int] -> Bool
fun k a b = a == b
""")


# -- monomorphization ----------------------------------------------------------


def test_polymorphic_functions_specialize_per_instantiation():
    prog = Program.from_source("""
sig second :: a -> b -> b
fun second x y = y
sig f :: Int -> Bool
fun f n = second n (second True (0 < n))
""")
    assert ground(prog, "f 3 = True") == TRUE
    assert ground(prog, "f 0 = True") == FALSE
    assert {"second@Int,Bool", "second@Bool,Bool"} <= set(prog.cores)


def test_a_call_links_to_the_callees_core_object():
    prog = load("distinct.luck")
    aux = prog.cores["distinctAux"]
    assert any(r is prog.cores["member"] for r in nodes(aux, Rec))
    assert any(r is aux for r in nodes(prog.cores["distinct"], Rec))
    target = prog.compile_query("distinct l = True").target
    assert any(r is prog.cores["distinct"] for r in nodes(target, Rec))


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CORPUS.glob("*.luck")))
def test_every_function_core_is_closed(name):
    # typecheck with no environment raises on any free variable
    for core in load(name).cores.values():
        typecheck(core)


def test_recursion_without_parameters_is_rejected():
    with pytest.raises(LuckTypeError, match="x recurses without parameters"):
        Program.from_source("sig x :: Int\nfun x = x + 1")


def test_mutual_recursion_is_rejected():
    # declaration-order scoping makes a cycle impossible to even write:
    # one of the two bodies must mention a function declared below it
    with pytest.raises(LuckTypeError,
                       match="^line 3: isOdd is used before its declaration"):
        Program.from_source("""
sig isEven :: Int -> Bool
fun isEven n = if n == 0 then True else isOdd (n - 1)
sig isOdd :: Int -> Bool
fun isOdd n = if n == 0 then False else isEven (n - 1)
""")


def test_polymorphic_recursion_is_rejected():
    with pytest.raises(LuckTypeError, match="polymorphic recursion"):
        Program.from_source("""
sig nest :: a -> Bool
fun nest x = nest (x, x)
""")


# -- declaration errors --------------------------------------------------------


_F = "sig f :: Int -> Int\nfun f x = x\n"

# Lowering is the one checker of names and declarations: each program is
# rejected with a line, a name in a body with its own, a declaration error
# with that of the declaration that writes it, and a type mismatch with the
# line of the expression, an unsolved type printed as _.
MALFORMED = {
    "unbound-variable": ("sig f :: Int -> Int\nfun f x = y",
                         "^line 2: unbound variable y$"),
    "unbound-bang": ("sig f :: Int -> Bool\nfun f x = (0 < x) !z",
                     "^line 2: unbound variable z$"),
    "undeclared-expression-constructor": (
        "sig f :: Int -> Bool\nfun f x = Leaf",
        "^line 2: undeclared constructor Leaf$"),
    "undeclared-pattern-constructor": (
        "sig f :: Int -> Bool\nfun f n =\n  case n of | Foo -> True end",
        "^line 3: case: undeclared constructor Foo$"),
    "prelude-constructor": ("data T = Cons\n" + _F,
                            "^line 1: duplicate constructor Cons$"),
    "constructor-across-datas": ("data T = Mk Int\ndata S = Mk Bool\n" + _F,
                                 "^line 2: duplicate constructor Mk$"),
    "constructor-within-a-data": ("data T = A | B | A\n" + _F,
                                  "^line 1: duplicate constructor A$"),
    "forward-reference": (
        "sig f :: Int -> Int\nfun f x = g x\nsig g :: Int -> Int\n"
        "fun g x = x",
        "^line 2: g is used before its declaration"),
    "unbound-weight": (
        "data T = A | B\nsig f :: T -> Bool\nfun f t = case t of\n"
        "  | z % A -> True\n  | 1 % B -> False\n  end",
        "^line 4: unbound variable z$"),
    "unbound-weight-of-a-lone-arm": (
        "sig f :: Int -> Bool\nfun f t = case t of | z % u -> True end",
        "^line 2: unbound variable z$"),
    "type-variable": ("data T = MkT [b]\n" + _F,
                      "^line 1: type variable b is not a parameter of T$"),
    "unknown-type": ("data T = MkT Foo\n" + _F,
                     "^line 1: unknown type Foo$"),
    "arity": ("data T a = L | N (T a a)\n" + _F,
              "^line 1: type T expects 1 arguments, got 2$"),
    "unknown-type-in-a-sig": (_F + "sig g :: Foo -> Int\nfun g x = 1",
                              "^line 4: unknown type Foo$"),
    "arity-in-a-sig": ("data T a = L\n" + _F + "sig g :: T -> Int\n"
                       "fun g x = 1",
                       "^line 5: type T expects 1 arguments, got 0$"),
    "reserved-type-name": ("\ndata Bool = Yes\n" + _F,
                           "^line 2: type name Bool is reserved$"),
    "missing-sig": (_F + "fun g x = x", "^line 3: function g needs a sig$"),
    "repeated-parameter": ("sig f :: Int -> Int -> Int\nfun f x x = x",
                           "^line 2: function f repeats a parameter$"),
    "tuple-pattern-mismatch": (
        "sig f :: (Int, Int) -> Bool\n"
        "fun f p = case p of | (a, b, c) -> True end",
        r"^line 2: type mismatch in case: \(Int, Int\) vs \(_, _, _\)$"),
    "arm-result-mismatch": (
        "data T = A | B\nsig f :: T -> Int\nfun f t = case t of\n"
        "  | A -> 1\n  | B -> True\n  end",
        "^line 5: type mismatch in case arm result: Bool vs Int$"),
    "body-mismatch": ("sig f :: Int -> Bool\nfun f x = x",
                      "^line 2: type mismatch in body of f: Int vs Bool$"),
    "unknown-type-in-a-later-data": (
        "data T = MkT S\ndata S = MkS Foo\n" + _F,
        "^line 2: unknown type Foo$"),
    "arity-in-a-later-data": (
        "data T = MkT S\ndata S = MkS (T Int)\n" + _F,
        "^line 2: type T expects 0 arguments, got 1$"),
    "unknown-type-through-a-parameter": (
        "data T = MkT (S Foo)\ndata S a = MkS a\n" + _F,
        "^line 1: unknown type Foo$"),
    "unknown-type-argument-in-a-sig": (
        "data T a = MkT a\n" + _F + "sig g :: T Foo -> Int\nfun g x = 1",
        "^line 5: unknown type Foo$"),
    "polymorphic-recursion": (
        _F + "sig g :: a -> Bool\nfun g x = g (x, x)",
        "^line 4: polymorphic recursion in g is unsupported$"),
    "more-parameters-than-arrows": (
        _F + "sig g :: Int\nfun g x = 1",
        "^line 4: function g has more parameters than its sig has arrows$"),
    "recursion-through-another-type": (
        _F + "data A = MkA B | NA\ndata B = MkB A",
        "^line 4: datatype B is recursive through another type"),
}


@pytest.mark.parametrize("src,match", MALFORMED.values(), ids=MALFORMED)
def test_a_malformed_program_is_rejected(src, match):
    with pytest.raises(LuckTypeError, match=match):
        Program.from_source(src)


def test_reserved_type_names_are_rejected():
    with pytest.raises(LuckTypeError, match="type name Int is reserved"):
        Program.from_source("data Int = MkInt\nsig f :: Int -> Int\n"
                            "fun f x = x")


def test_sig_is_required():
    with pytest.raises(LuckTypeError, match="needs a sig"):
        Program.from_source("fun f x = x")


def test_recursion_through_a_container_is_rejected():
    with pytest.raises(LuckTypeError, match="recursive through another"):
        Program.from_source("""
data Rose = MkRose [Rose]
sig f :: Rose -> Bool
fun f r = True
""")


def test_mutually_recursive_datatypes_are_rejected():
    with pytest.raises(LuckTypeError, match="recursive through another"):
        Program.from_source("""
data A = MkA B | EndA
data B = MkB A
sig f :: A -> Bool
fun f a = True
""")


@pytest.mark.parametrize("weight,match", [
    ("True", "type mismatch in case arm weight"),
    ("0", "no weight mass"),
])
def test_a_tuple_case_checks_its_weights(weight, match):
    # a tuple case is a one-constructor case, so its arm weights get the
    # same checks as any other case's
    with pytest.raises(LuckTypeError, match=match):
        Program.from_source(f"""
sig f :: (Int, Int) -> Bool
fun f p = case p of | {weight} % (a, b) -> a < b end
""")


# the N arms weigh 0, so the split on N's tail weighs 0 on both sides
ZERO_UNDER_ZERO = """
data T = L | N Int T
sig f :: T -> Bool
fun f t = case t of
  | 1 % L -> True
  | 0 % N x L -> True
  | 0 % N x (N y r) -> False
  end
"""


def test_a_split_under_a_zero_weight_arm_may_weigh_zero():
    prog = Program.from_source(ZERO_UNDER_ZERO)
    prep = prepare(prog, "f t = True", int_bound=(0, 2), depth=3)
    for seed in range(10):
        r = run_prepared(prep, seed=seed, check=True)
        assert r.ok and prog.show_value(r.values["t"], STCon("T")) == "L"


def test_a_zero_weight_inner_split_enumerates_only_the_weighted_arm():
    rows = list(enumerate_query(Program.from_source(ZERO_UNDER_ZERO),
                                "f t = True", int_bound=(0, 2), depth=3))
    assert sum(q for _, q, _ in rows) == 1
    assert {shown["t"] for _, _, shown in rows if shown} == {"L"}


def test_a_case_whose_arms_all_weigh_zero_names_its_line():
    with pytest.raises(LuckTypeError, match="^line 4: case: no weight mass"):
        Program.from_source("""
data T = L | N Int T
sig f :: T -> Bool
fun f t = case t of
  | 0 % L -> True
  | 0 % N x r -> False
  end
""")


# -- query typing --------------------------------------------------------------


def test_query_unknowns_get_their_inferred_core_types():
    q = load("member.luck").compile_query("member x [0, 1] = True")
    assert q.unknowns == {"x": TInt()}
    assert q.expect_true is True


def test_function_typed_unknowns_are_rejected():
    prog = Program.from_source("sig f :: Int -> Bool\nfun f x = 0 < x")
    # the message names the surface type, not its core encoding
    with pytest.raises(LuckTypeError, match="unknown u has type Int -> Bool,"
                       " which cannot be generated"):
        prog.compile_query("u 3 = True")


# -- annotated scrutinees ------------------------------------------------------


@pytest.mark.parametrize("file,query", [(f, q) for f, q, *_ in CORPUS_SWEEP]
                         + [("ex35.luck", "a u = True")])
def test_lowered_targets_typecheck_with_their_annotations(file, query):
    # typecheck checks the type each case and unfold node carries against
    # the one it infers for the scrutinee
    q = load(file).compile_query(query)
    assert type_eq(typecheck(q.target, dict(q.unknowns)), BOOL)


TUPLE_TREE = """
data T = L | N (Int, T)
sig size :: T -> Int -> Bool
fun size t n = case t of
  | L -> n == 0
  | N p -> case p of | (x, r) -> 0 < x && size r (n - 1) end
  end
"""


def test_a_tuple_holding_its_recursive_type_lowers_to_a_closed_type():
    # lowering T builds (Int, T) while T is still an open variable; that
    # open type must not be remembered as the type of (Int, T)
    prog = Program.from_source(TUPLE_TREE)
    tree = prog.core_type(STCon("T"))
    assert prog.core_type(STTuple((STCon("Int"), STCon("T")))) \
        == TProd(TInt(), tree)
    prep = prepare(prog, "size t 2 = True", int_bound=(0, 3))
    assert type_eq(typecheck(prep.compiled.target,
                             dict(prep.compiled.unknowns)), BOOL)
    for seed in range(10):
        r = run_prepared(prep, seed=seed)
        assert r.ok and recheck(prep, r.values)


# -- pinned lowering -----------------------------------------------------------

# sha256 (first 16 hex digits) of each corpus program's cores and of each
# CORPUS_SWEEP query's target, with every %-binder renamed in order of
# first appearance.  A refactor of lowering must keep these terms.
CORE_DIGESTS = {
    "bst.luck": "79ebe25a7aa81302",
    "distinct.luck": "5e47f5c55cefd80a",
    "ex35.luck": "9bcc273ddfefb841",
    "length.luck": "05aca3e0106043e0",
    "member.luck": "58d8f5f41e720594",
    "rbt.luck": "abfe459fca2545c7",
    "redex.luck": "c4abc03fa9db7f49",
    "sorted.luck": "8a8347d937f44e1c",
}

TARGET_DIGESTS = {
    "isRedex t = True": "d0e7cf62be56af1a",
    "length l 30 = True": "dc50f4fed7b4ae27",
    "length l 100 = True": "ffb38b41028f3cf3",
    "length l 300 = True": "d8eb7467c2eed8e0",
    "bst 3 0 10 t = True": "e2069084d39c43f9",
    "distinct l = True": "2c70121aca2d8255",
    "b u = True": "d42349a0a9b991c3",
    "member 3 l = True": "ad112da464d2f8ce",
    "isRBT 2 0 20 Black t = True": "f39826b98cc87687",
    "sorted l = True": "3c1b0d065fcdf169",
}

_BINDER = re.compile(r"%[A-Za-z]+\d+")


def _renamed(term):
    """repr of a term with its %-binders renamed %0, %1, ... in order of
    first appearance."""
    seen = {}
    return _BINDER.sub(
        lambda m: "%" + str(seen.setdefault(m.group(), len(seen))),
        repr(term))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CORE_DIGESTS))
def test_corpus_cores_are_pinned(name):
    cores = load(name).cores
    assert _digest("\n".join(f"{n} {_renamed(c)}"
                              for n, c in sorted(cores.items()))) \
        == CORE_DIGESTS[name]


@pytest.mark.parametrize("file,query", [(f, q) for f, q, *_ in CORPUS_SWEEP])
def test_corpus_targets_are_pinned(file, query):
    target = load(file).compile_query(query).target
    assert _digest(_renamed(target)) == TARGET_DIGESTS[query]


# sorted.luck and member.luck spelled without list syntax
TWINS = {
    "sorted.luck": """
sig sorted :: List Int -> Bool
fun sorted l =
  case l of
  | Cons x (Cons y t) -> x < y && sorted (Cons y t)
  | _ -> True
  end
""",
    "member.luck": """
sig member :: Int -> List Int -> Bool
fun member x l =
  case l of
  | Cons h t -> x == h || member x t
  | _ -> False
  end
""",
}


@pytest.mark.parametrize("name", sorted(TWINS))
def test_explicit_nil_and_cons_lower_like_list_syntax(name):
    twin = Program.from_source(TWINS[name])
    assert _digest("\n".join(f"{n} {_renamed(c)}"
                              for n, c in sorted(twin.cores.items()))) \
        == CORE_DIGESTS[name]
    sugar, explicit = {
        "sorted.luck": ("sorted (1 : l) = True",
                        "sorted (Cons 1 l) = True"),
        "member.luck": ("member x [1, 3] = True",
                        "member x (Cons 1 (Cons 3 Nil)) = True"),
    }[name]
    assert _renamed(load(name).compile_query(sugar).target) \
        == _renamed(twin.compile_query(explicit).target)
