"""Surface syntax: tokenizer, parser, pretty-printer, and the name errors
lowering reports against it: the parser checks no scopes, so those tests
build a `Program`."""

from pathlib import Path

import pytest

from luck.desugar import LuckTypeError, Program
from luck.surface import (
    PCon,
    PTuple,
    PVar,
    PWild,
    LuckSyntaxError,
    SApp,
    SBang,
    SBin,
    SCon,
    SInt,
    STCon,
    STVar,
    SVar,
    parse_program,
    parse_query,
    pretty_expr,
    pretty_program,
    tokenize,
)

CORPUS = sorted((Path(__file__).parent.parent / "corpus").glob("*.luck"))


def pe(text):
    call, _ = parse_query(text + " = True")
    return call


def toks(text):
    return [(t.kind, t.text) for t in tokenize(text)]


# -- round-trips ---------------------------------------------------------------


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_round_trips_through_the_printer(path):
    src = path.read_text()
    prog = parse_program(src)
    Program(prog)
    printed = pretty_program(prog)
    assert toks(printed) == toks(src)
    # and the printed form parses back to the same token stream again
    assert toks(pretty_program(parse_program(printed))) == toks(src)


def test_printer_keeps_only_needed_parentheses():
    assert pretty_expr(pe("1 + 2 * 3")) == "1 + 2 * 3"
    assert pretty_expr(pe("(1 + 2) * 3")) == "(1 + 2) * 3"
    assert pretty_expr(pe("a && (b || c)")) == "a && (b || c)"
    assert pretty_expr(pe("f (g x)")) == "f (g x)"


# -- precedence and shape --------------------------------------------------


def test_application_binds_tighter_than_operators():
    e = pe("f x + g y")
    assert isinstance(e, SBin) and e.op == "+"
    assert isinstance(e.lhs, SApp) and isinstance(e.rhs, SApp)


def test_application_is_left_associative():
    e = pe("f x y")
    assert isinstance(e, SApp) and isinstance(e.fun, SApp)
    assert e.fun.fun == SVar("f", e.fun.fun.line)
    assert isinstance(e.arg, SVar) and e.arg.name == "y"


def test_arithmetic_precedence_and_left_associativity():
    e = pe("1 + 2 * 3 - 4")
    assert e.op == "-" and isinstance(e.rhs, SInt) and e.rhs.value == 4
    assert e.lhs.op == "+" and e.lhs.rhs.op == "*"


def test_boolean_operators_nest_right_and_rank_below_comparison():
    e = pe("a && b && c")
    assert e.op == "&&" and isinstance(e.lhs, SVar) and e.rhs.op == "&&"
    e = pe("1 < 2 && x || y")
    assert e.op == "||" and e.lhs.op == "&&" and e.lhs.lhs.op == "<"


def cons(h, t):
    return SApp(SApp(SCon("Cons"), h), t)


def test_cons_is_right_associative():
    e = pe("1 : 2 : []")
    assert e == cons(SInt(1), cons(SInt(2), SCon("Nil")))
    # 1 : 2 : [] is 1 : (2 : []), not (1 : 2) : []
    assert e.fun.arg == SInt(1) and e.arg.fun.arg == SInt(2)


def test_cons_ranks_between_comparison_and_addition():
    assert pe("x + 1 : l == m") == SBin(
        "==", cons(SBin("+", SVar("x"), SInt(1)), SVar("l")), SVar("m"))


# -- list syntax is the prelude's List --------------------------------------


def test_list_types_parse_to_the_prelude_list():
    (f,) = parse_program("sig f :: [[a]] -> [Int]\nfun f x = x").fun_decls
    assert f.sig.arg == STCon("List", (STCon("List", (STVar("a"),)),))
    assert f.sig.res == STCon("List", (STCon("Int"),))
    # a list type reads as List T, which names lowered types and functions
    assert str(f.sig) == "List (List a) -> List Int"


def test_list_expressions_parse_to_nil_and_cons():
    assert pe("[]") == SCon("Nil")
    assert pe("[x, 2]") == cons(SVar("x"), cons(SInt(2), SCon("Nil")))
    assert pe("h : t") == cons(SVar("h"), SVar("t"))
    assert pe("[[]]") == cons(SCon("Nil"), SCon("Nil"))


def arm_pattern(text):
    (f,) = parse_program(
        f"sig f :: Int -> Bool\nfun f l = case l of | {text} -> True end"
    ).fun_decls
    return f.body.arms[0].pat


def test_list_patterns_parse_to_nil_and_cons():
    assert arm_pattern("[]") == PCon("Nil")
    assert arm_pattern("[a, _]") == PCon(
        "Cons", (PVar("a"), PCon("Cons", (PWild(), PCon("Nil")))))
    assert arm_pattern("x:y:t") == PCon(
        "Cons", (PVar("x"), PCon("Cons", (PVar("y"), PVar("t")))))
    assert arm_pattern("(h:t, [])") == PTuple(
        (PCon("Cons", (PVar("h"), PVar("t"))), PCon("Nil")))


def test_the_printer_writes_list_syntax_back():
    src = ("sig f :: List (List Int) -> Bool\n"
           "fun f l = case l of | Cons (Cons x Nil) t -> f (Cons Nil t)"
           " | _ -> False end")
    printed = pretty_program(parse_program(src))
    assert "sig f :: [[Int]] -> Bool" in printed
    assert "| (x:[]):t -> f ([] : t)" in printed
    assert parse_program(printed) == parse_program(src)


def test_comparisons_do_not_chain():
    with pytest.raises(LuckSyntaxError):
        parse_query("1 < 2 < 3 = True")


def test_postfix_bang_sits_between_comparison_and_conjunction():
    e = pe("(0 < u) !u && v")
    assert e.op == "&&"
    assert isinstance(e.lhs, SBang) and e.lhs.var == "u"
    assert e.lhs.expr.op == "<"


def test_constructor_application_parses_like_function_application():
    e = pe("Node x Empty Empty")
    spine = []
    while isinstance(e, SApp):
        spine.append(e.arg)
        e = e.fun
    assert isinstance(e, SCon) and e.name == "Node"
    assert len(spine) == 3


# -- queries -----------------------------------------------------------------


def test_query_returns_call_and_polarity():
    call, want = parse_query("bst 10 0 42 u = True")
    assert want is True and isinstance(call, SApp)
    _, want = parse_query("member x [1, 2] = False")
    assert want is False


def test_query_rejects_missing_or_bad_target():
    with pytest.raises(LuckSyntaxError):
        parse_query("bst u")
    with pytest.raises(LuckSyntaxError):
        parse_query("bst u = Maybe")
    with pytest.raises(LuckSyntaxError):
        parse_query("bst u = True extra")


# -- errors -------------------------------------------------------------------


def test_stray_character_is_a_syntax_error():
    with pytest.raises(LuckSyntaxError, match="stray character"):
        tokenize("fun f x = x @ 1")


def test_unbound_variable_is_a_scope_error():
    with pytest.raises(LuckTypeError, match="^line 2: unbound variable y$"):
        Program.from_source("sig f :: Int -> Int\nfun f x = y")


def test_undeclared_constructor_is_a_scope_error():
    with pytest.raises(LuckTypeError,
                       match="^line 2: undeclared constructor Leaf$"):
        Program.from_source("sig f :: Int -> Bool\nfun f x = Leaf")


def test_an_undeclared_pattern_constructor_names_the_line_of_its_case():
    with pytest.raises(LuckTypeError,
                       match="^line 3: case: undeclared constructor Foo$"):
        Program.from_source("sig k :: Int -> Bool\nfun k n =\n"
                            "  case n of | Foo -> True end")


def test_the_prelude_constructors_are_in_scope():
    Program.from_source("""
sig f :: [Int] -> Bool
fun f l = case l of | Nil -> True | Cons h t -> f (Cons h Nil) end
""")  # must not raise
    with pytest.raises(LuckTypeError,
                       match="^line 1: duplicate constructor Nil$"):
        Program.from_source("data T = Nil\nsig f :: Int -> Int\nfun f x = x")


def test_duplicate_constructor_is_rejected():
    with pytest.raises(LuckTypeError, match="^line 2: duplicate constructor Mk$"):
        Program.from_source("data T = Mk Int\ndata S = Mk Bool\n"
                            "sig f :: Int -> Int\nfun f x = x")


def test_case_arms_bind_their_pattern_variables():
    src = """
data Box a = Box a
sig f :: Box Int -> Int
fun f b = case b of | Box x -> x end
"""
    Program.from_source(src)  # must not raise
    bad = src.replace("-> x end", "-> y end")
    with pytest.raises(LuckTypeError, match="^line 4: unbound variable y$"):
        Program.from_source(bad)


def test_bang_variable_must_be_bound():
    with pytest.raises(LuckTypeError, match="^line 2: unbound variable z$"):
        Program.from_source("sig f :: Int -> Bool\nfun f x = (0 < x) !z")
