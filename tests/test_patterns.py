"""Pattern-matrix expansion: single-constructor trees and weight routing."""

from fractions import Fraction
from pathlib import Path

import pytest

from luck.desugar import (
    _INT,
    LuckTypeError,
    Program,
    _Lower,
    _split_sig,
    sub_ty,
    tyvars_of,
)
from luck.patterns import (
    CaseNode,
    ExpandError,
    Fail,
    Leaf,
    expand_case,
)
from luck.surface import SBin, SCase, SInt, SVar

CORPUS = Path(__file__).parent.parent / "corpus"


def load(name):
    return Program.from_source((CORPUS / name).read_text())


def expand_fun_case(prog, fname):
    """The expansion tree of a function whose body is one case on a
    parameter, with its type variables taken as Int."""
    f = prog.funs[fname]
    inst = sub_ty(f.sig, {v: _INT for v in tyvars_of(f.sig)})
    param_tys, _ = _split_sig(inst, f)
    assert isinstance(f.body, SCase) and isinstance(f.body.scrut, SVar)
    lw = _Lower(prog)
    sty = param_tys[f.params.index(f.body.scrut.name)]
    for arm in f.body.arms:
        lw.unify_pat(arm.pat, sty, fname)
    return expand_case((f.body.scrut, sty), list(f.body.arms), lw.oracle,
                       prog.fresh)


def leaf_masses(tree):
    """Exact probability of reaching each leaf, keyed by constructor path,
    as (path, arm, mass) rows; a failing leaf has arm None.

    Only defined when every weight is a literal (all masses Fractions).
    A tuple's unnamed constructor adds nothing to the path.
    """
    out = []

    def walk(node, path, mass):
        if isinstance(node, Leaf):
            out.append((path, node.arm, mass))
        elif isinstance(node, Fail):
            out.append((path, None, mass))
        else:
            ws = [c.weight for c in node.children]
            if not all(isinstance(w, Fraction) for w in ws):
                raise ExpandError("leaf masses need literal weights")
            total = sum(ws, Fraction(0))
            for c in node.children:
                share = mass * c.weight / total if total else Fraction(0)
                walk(c.sub, path + (c.ctor,) if c.ctor else path, share)

    walk(tree, (), Fraction(1))
    return out


def fun_case_masses(prog, fname):
    """Exact per-leaf probabilities of a function's top-level case."""
    return leaf_masses(expand_fun_case(prog, fname))


def leaves(tree):
    if isinstance(tree, (Leaf, Fail)):
        yield tree
    else:
        for child in tree.children:
            yield from leaves(child.sub)


# -- unsupported patterns ---------------------------------------------------


def test_integer_literal_patterns_are_rejected():
    src = """
sig f :: Int -> Bool
fun f n = case n of
  | 3 -> True
  | _ -> False
  end
"""
    with pytest.raises(LuckTypeError, match="^line 3: case: integer literal "
                       "patterns are not supported$"):
        Program.from_source(src)


# -- the redex audit (hand-derived, frozen) ---------------------------------

# fun isRedex t = case t of | 2 % App (Lam _ _) _ -> True | 1 % _ -> False
#
# arm 0 (mass 2) reaches only App; arm 1 (mass 1) fans over all three
# root constructors, 1/3 each.  Root ratio 1/3 : 1/3 : (2 + 1/3) = 1:1:7.
# Inside App the remaining arm-1 mass (1/3) fans over Var and App while
# arm 0 keeps 2 on Lam: 1/6 : 2 : 1/6 = 1:12:1.


def test_redex_root_and_inner_weights():
    tree = expand_fun_case(load("redex.luck"), "isRedex")
    assert isinstance(tree, CaseNode)
    assert [c.ctor for c in tree.children] == ["Var", "Lam", "App"]
    assert [c.weight for c in tree.children] == [
        Fraction(1, 3), Fraction(1, 3), Fraction(7, 3)]
    inner = tree.children[2].sub
    assert isinstance(inner, CaseNode)
    assert [c.weight for c in inner.children] == [
        Fraction(1, 6), Fraction(2), Fraction(1, 6)]


def test_redex_leaf_masses():
    got = {(path, arm): mass for path, arm, mass
           in fun_case_masses(load("redex.luck"), "isRedex")}
    assert got == {
        (("Var",), 1): Fraction(1, 9),
        (("Lam",), 1): Fraction(1, 9),
        (("App", "Var"), 1): Fraction(1, 18),
        (("App", "Lam"), 0): Fraction(2, 3),
        (("App", "App"), 1): Fraction(1, 18),
    }


# -- conservation: leaf masses respect the declared arm odds -----------------


@pytest.mark.parametrize("fname,source", [
    ("isRedex", "redex.luck"),
    ("member", "member.luck"),
    ("sorted", "sorted.luck"),
    ("distinctAux", "distinct.luck"),
])
def test_leaf_masses_sum_to_declared_arm_odds(fname, source):
    prog = load(source)
    rows = fun_case_masses(prog, fname)
    assert sum(mass for _, _, mass in rows) == Fraction(1)
    arms = prog.funs[fname].body.arms
    declared = [Fraction(1) if a.weight is None else Fraction(a.weight.value)
                for a in arms]
    total = sum(declared)
    for i, w in enumerate(declared):
        got = sum(mass for _, arm, mass in rows if arm == i)
        assert got == w / total, f"arm {i} of {fname}"


def test_nested_option_audit():
    # 3:1 odds on a doubly-nested constructor pattern; each wildcard
    # landing spot gets an equal cut of the losing arm's mass
    prog = Program.from_source("""
data Opt a = None | Some a
sig f :: Opt (Opt Int) -> Bool
fun f m = case m of | 3 % Some (Some x) -> True | 1 % _ -> False end
""")
    got = {(path, arm): mass
           for path, arm, mass in fun_case_masses(prog, "f")}
    assert got == {
        (("None",), 1): Fraction(1, 8),
        (("Some", "None"), 1): Fraction(1, 8),
        (("Some", "Some"), 0): Fraction(3, 4),
    }


def test_missing_constructor_gets_a_zero_mass_failing_leaf():
    prog = Program.from_source("""
sig h :: [Int] -> Bool
fun h l = case l of | x:t -> True end
""")
    got = {path: (arm, mass)
           for path, arm, mass in fun_case_masses(prog, "h")}
    assert got[("Nil",)] == (None, Fraction(0))
    assert got[("Cons",)] == (0, Fraction(1))


# -- tuples -------------------------------------------------------------------


def test_tuple_patterns_destructure_before_dispatch():
    prog = Program.from_source("""
sig f :: (Int, Bool) -> Bool
fun f p = case p of | (x, True) -> 0 < x | (_, False) -> True end
""")
    tree = expand_fun_case(prog, "f")
    # a tuple is the one constructor of its type: one child, which
    # carries the mass of both arms
    assert isinstance(tree, CaseNode)
    (split,) = tree.children
    comps = [nm for nm, _ in split.argvars]
    assert len(comps) == 2 and split.weight == Fraction(2)
    node = split.sub
    assert isinstance(node, CaseNode)
    assert isinstance(node.occ, SVar) and node.occ.name == comps[1]
    assert [c.ctor for c in node.children] == ["True", "False"]
    (leaf0,) = leaves(node.children[0].sub)
    assert leaf0.arm == 0
    assert dict(leaf0.bindings)["x"].name == comps[0]
    # the tuple's unnamed constructor adds nothing to a leaf's path
    assert {path for path, _, _ in leaf_masses(tree)} == {("True",),
                                                         ("False",)}


# -- symbolic weights ---------------------------------------------------------


def test_symbolic_weights_pass_through_unscaled():
    prog = Program.from_source("""
data T = A | B Int
sig f :: Int -> T -> Bool
fun f n t = case t of | 1 % A -> True | n % B x -> 0 < x end
""")
    tree = expand_fun_case(prog, "f")
    wa, wb = (c.weight for c in tree.children)
    assert isinstance(wa, SInt) and wa.value == 1
    assert isinstance(wb, SVar) and wb.name == "n"
    with pytest.raises(ExpandError, match="literal weights"):
        leaf_masses(tree)


def test_wildcard_shadowed_under_a_constructor_takes_no_share_of_it():
    prog = Program.from_source("""
data T = A | B | C Int
sig g :: Int -> T -> Bool
fun g n t = case t of | n % C x -> True | 1 % _ -> False end
""")
    tree = expand_fun_case(prog, "g")
    wa, wb, wc = (c.weight for c in tree.children)
    # the wildcard arm can never fire for a C value, so its mass fans
    # over A and B only: (1/2 : 1/2 : n), cleared to (1 : 1 : 2n)
    assert isinstance(wa, SInt) and wa.value == 1
    assert isinstance(wb, SInt) and wb.value == 1
    assert wc.op == "*" and wc.lhs.value == 2
    assert isinstance(wc.rhs, SVar) and wc.rhs.name == "n"


def test_symbolic_routing_scales_all_siblings_alike():
    # the wildcard arm reaches A (behind its True guard) and C, so its
    # mass fans in halves; clearing that 2 must scale EVERY sibling,
    # including B whose own share has no denominator at all
    prog = Program.from_source("""
data T = A Bool | B Bool | C Bool
sig g :: Int -> T -> Bool
fun g n t =
  case t of
  | n % A True -> True
  | 2 % B x -> x
  | 1 % _ -> False
  end
""")
    tree = expand_fun_case(prog, "g")
    wa, wb, wc = (c.weight for c in tree.children)
    # true odds (n + 1/2) : 2 : 1/2, cleared by the node-wide scale 2
    assert isinstance(wb, SInt) and wb.value == 4
    assert isinstance(wc, SInt) and wc.value == 1
    assert isinstance(wa, SBin) and wa.op == "+"
    assert isinstance(wa.lhs, SInt) and wa.lhs.value == 1
    assert wa.rhs.op == "*" and wa.rhs.lhs.value == 2
    assert isinstance(wa.rhs.rhs, SVar) and wa.rhs.rhs.name == "n"


# -- errors -------------------------------------------------------------------


def test_unreachable_arm_is_rejected_at_load_time():
    with pytest.raises(LuckTypeError, match="unreachable"):
        Program.from_source("""
sig f :: [Int] -> Bool
fun f l = case l of | _ -> True | x:t -> False end
""")
