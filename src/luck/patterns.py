"""Pattern-match expansion: nested, weighted case arms become a tree of
single-constructor cases.

Each source arm owns the leaves its pattern reaches first.  An arm's
weight is routed down the tree: at every constructor split the arm's
incoming mass divides evenly among the children in which the arm still
owns at least one leaf, so the total mass of an arm's leaves stays
proportional to its declared weight.  Weights are exact fractions when
every declared weight is an integer literal; otherwise they stay
symbolic and the per-split division is folded into integer multipliers.

Patterns arrive as the parser built them, with list patterns already
`Nil` and `Cons` constructor patterns, and lowering's `unify_pat` has
checked them against the scrutinee's type: it rejected integer literals,
undeclared constructors and wrong arities.  So a pattern is a variable, a
wildcard, or a constructor or tuple with one pattern per field, and the
type oracle gives the constructors, with their field types, of every
column a pattern splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .surface import (
    PCon,
    PTuple,
    PVar,
    PWild,
    SArm,
    SBin,
    SExpr,
    SInt,
    SPat,
    STy,
    SVar,
)


class ExpandError(Exception):
    """A case expression that cannot be expanded."""


# The constructors of a column's type, each with its field types; a tuple
# has one constructor, named "", whose fields are its components.
TypeOracle = Callable[[STy], list[tuple[str, list[STy]]]]

Weight = Union[Fraction, SExpr]


@dataclass
class Leaf:
    """A matched arm: bind the variables, evaluate the body."""

    arm: int
    bindings: tuple[tuple[str, SExpr], ...]
    body: SExpr


@dataclass
class Fail:
    """No arm matches; the implicit failing branch."""


@dataclass
class Child:
    ctor: str
    argvars: tuple[tuple[str, STy], ...]
    sub: "Tree"
    weight: Optional[Weight] = None


@dataclass
class CaseNode:
    """A single-constructor dispatch on one occurrence."""

    occ: SExpr
    ty: STy
    children: list[Child]
    arms_reached: set[int] = field(default_factory=set)


Tree = Union[Leaf, Fail, CaseNode]


@dataclass
class _Row:
    pats: list[SPat]
    arm: int
    bindings: list[tuple[str, SExpr]]


class _Expander:
    def __init__(self, oracle: TypeOracle, fresh: Callable[[str], str]):
        self.oracle = oracle
        self.fresh = fresh
        self.reached: set[int] = set()

    def build(self, occs: list[tuple[SExpr, STy]], rows: list[_Row]) -> Tree:
        if not rows:
            return Fail()
        col = self._pick_column(rows)
        if col is None:
            top = rows[0]
            binds = list(top.bindings)
            for (occ, _), pat in zip(occs, top.pats):
                if isinstance(pat, PVar):
                    binds.append((pat.name, occ))
            self.reached.add(top.arm)
            return Leaf(top.arm, tuple(binds), None)  # body filled by caller
        return self._split_data(occs, rows, col)

    def _pick_column(self, rows: list[_Row]) -> Optional[int]:
        for j, pat in enumerate(rows[0].pats):
            for row in rows:
                if not isinstance(row.pats[j], (PVar, PWild)):
                    return j
        return None

    def _split_data(self, occs, rows, col) -> Tree:
        occ, ty = occs[col]
        children = []
        for cname, arg_tys in self.oracle(ty):
            names = [self.fresh("v") for _ in arg_tys]
            arg_occs = [(SVar(nm), t) for nm, t in zip(names, arg_tys)]
            new_occs = occs[:col] + arg_occs + occs[col + 1:]
            new_rows = []
            for row in rows:
                pat = row.pats[col]
                binds = list(row.bindings)
                if isinstance(pat, PTuple):
                    parts = list(pat.items)
                elif isinstance(pat, PCon):
                    if pat.name != cname:
                        continue
                    parts = list(pat.args)
                else:
                    if isinstance(pat, PVar):
                        binds.append((pat.name, occ))
                    parts = [PWild()] * len(arg_tys)
                new_rows.append(
                    _Row(row.pats[:col] + parts + row.pats[col + 1:],
                         row.arm, binds))
            sub = self.build(new_occs, new_rows)
            children.append(Child(cname, tuple(zip(names, arg_tys)), sub))
        return CaseNode(occ, ty, children)


def _annotate_reached(tree: Tree) -> set[int]:
    if isinstance(tree, Leaf):
        return {tree.arm}
    if isinstance(tree, Fail):
        return set()
    reached: set[int] = set()
    for child in tree.children:
        reached |= _annotate_reached(child.sub)
    tree.arms_reached = reached
    return reached


def _route(tree: Tree, masses: dict) -> None:
    """Assign child weights from the incoming per-arm masses.

    Masses are per-arm Fractions, or (expression, Fraction multiplier)
    pairs when any declared weight is symbolic.  In the symbolic case
    the rational parts are cleared by one common scale factor per node
    so that siblings keep their exact relative weights.
    """
    if isinstance(tree, (Leaf, Fail)):
        return
    fan = {arm: sum(1 for c in tree.children if arm in _reached_of(c.sub))
           for arm in masses}
    locals_ = []
    for child in tree.children:
        locals_.append({arm: _divide(w, fan[arm])
                        for arm, w in masses.items()
                        if arm in _reached_of(child.sub)})
    if all(isinstance(w, Fraction)
           for local in locals_ for w in local.values()):
        for child, local in zip(tree.children, locals_):
            child.weight = sum(local.values(), Fraction(0))
            _route(child.sub, local)
        return
    scale = 1
    for local in locals_:
        for w in local.values():
            q = w if isinstance(w, Fraction) else w[1]
            scale = _lcm(scale, q.denominator)
    for child, local in zip(tree.children, locals_):
        child.weight = _weight_expr(local, scale)
        _route(child.sub, local)


def _reached_of(tree: Tree) -> set[int]:
    if isinstance(tree, Leaf):
        return {tree.arm}
    if isinstance(tree, Fail):
        return set()
    return tree.arms_reached


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


def _divide(w, k: int):
    if isinstance(w, Fraction):
        return w / k
    expr, q = w
    return (expr, q / k)


def _weight_expr(local: dict, scale: int) -> SExpr:
    """Sum the scaled per-arm terms into one integer-coefficient expression."""
    terms = []
    const = Fraction(0)
    for w in local.values():
        if isinstance(w, Fraction):
            const += w * scale
            continue
        expr, q = w
        c = q * scale
        assert c.denominator == 1
        if isinstance(expr, SInt):
            const += c * expr.value
        elif int(c) == 1:
            terms.append(expr)
        elif int(c):
            terms.append(SBin("*", SInt(int(c)), expr))
    assert const.denominator == 1
    if const or not terms:
        terms.insert(0, SInt(int(const)))
    out = terms[0]
    for t in terms[1:]:
        out = SBin("+", out, t)
    return out


def expand_case(scrut: tuple[SExpr, STy], arms: list[SArm],
                oracle: TypeOracle, fresh: Callable[[str], str]) -> Tree:
    """Expand one case expression into a single-constructor tree.

    Raises ExpandError for an arm that can never match.
    """
    exp = _Expander(oracle, fresh)
    rows = [_Row([arm.pat], i, []) for i, arm in enumerate(arms)]
    tree = exp.build([scrut], rows)
    for i, arm in enumerate(arms):
        if i not in exp.reached:
            raise ExpandError(f"arm {i + 1} is unreachable")
    _fill_bodies(tree, arms)
    _annotate_reached(tree)
    literal = all(arm.weight is None or isinstance(arm.weight, SInt)
                  for arm in arms)
    masses: dict[int, Weight] = {}
    for i, arm in enumerate(arms):
        w = arm.weight
        if literal:
            masses[i] = Fraction(1 if w is None else w.value)
        else:
            masses[i] = (SInt(1) if w is None else w, Fraction(1))
    _route(tree, masses)
    return tree


def _fill_bodies(tree: Tree, arms: list[SArm]) -> None:
    if isinstance(tree, Leaf):
        tree.body = arms[tree.arm].body
    elif isinstance(tree, CaseNode):
        for child in tree.children:
            _fill_bodies(child.sub, arms)
