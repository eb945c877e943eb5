"""Surface language: lexer, parser, AST, and pretty-printer.

A program is a sequence of ``data`` declarations, ``sig`` type
signatures, and ``fun`` definitions.  Case arms may carry branch
weights (``| 3 % Node x l r -> ...``); ``e !x`` samples the unknown
bound to ``x`` after checking ``e``.  Line comments start with ``--``.

Lists are the prelude datatype ``List a = Nil | Cons a [a]``, and the
parser is the only place that knows their syntax: ``[T]`` parses to
``List T``, and ``[]``, ``[e1, e2]`` and ``h : t``, as expressions or
patterns, to ``Nil`` and ``Cons``.  ``PRELUDE`` declares List and Bool,
and lowering (``desugar.Program``) starts every program from it.

Besides syntax, the parser checks only that no datatype, definition or
signature is declared twice and that each signature has a definition.
There is no scope checker: lowering checks names, constructors and
types where they are used.

The printer emits a canonical layout with minimal parentheses and writes
``List T``, ``Nil`` and a two-field ``Cons`` back as list syntax;
parsing its output reproduces the same AST.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional


class LuckSyntaxError(Exception):
    """A parse error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokens

KEYWORDS = {"data", "sig", "fun", "case", "of", "end", "if", "then", "else"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<int>\d+)
  | (?P<lower>[a-z][A-Za-z0-9_']*)
  | (?P<upper>[A-Z][A-Za-z0-9_']*)
  | (?P<wild>_(?![A-Za-z0-9_']))
  | (?P<op>::|->|==|/=|<=|>=|&&|\|\||[=<>+\-*/%!()\[\],:|])
""", re.VERBOSE)


@dataclass(unsafe_hash=True)
class Token:
    kind: str  # int, lower, upper, wild, op, a keyword, or eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens, dropping whitespace and comments."""
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise LuckSyntaxError(f"stray character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "ws":
            if kind == "lower" and lexeme in KEYWORDS:
                kind = lexeme
            elif kind == "op":
                kind = lexeme
            toks.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Surface AST


@dataclass(unsafe_hash=True)
class STy:
    pass


@dataclass(unsafe_hash=True)
class STVar(STy):
    """A type variable from a datatype or signature parameter list."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(unsafe_hash=True)
class STCon(STy):
    """A named type, possibly applied: Int, Bool, Tree Int, List Int."""

    name: str
    args: tuple[STy, ...] = ()

    def __str__(self) -> str:
        return type_text(self)


@dataclass(unsafe_hash=True)
class STTuple(STy):
    """Tuple type (T1, T2, ...)."""

    items: tuple[STy, ...]

    def __str__(self) -> str:
        return type_text(self)


@dataclass(unsafe_hash=True)
class STFun(STy):
    """Function arrow, right-associated."""

    arg: STy
    res: STy

    def __str__(self) -> str:
        return type_text(self)


def type_text(t: STy, lists: bool = False, atom: bool = False) -> str:
    """t as source text, in parentheses when atom is set and t is an
    applied type or an arrow.  Lowering names types and functions after
    this text with List T written out; the printer sets lists to write
    it as [T]."""
    if isinstance(t, STTuple):
        return "(" + ", ".join(type_text(a, lists) for a in t.items) + ")"
    if isinstance(t, STFun):
        text = (f"{type_text(t.arg, lists, isinstance(t.arg, STFun))} -> "
                f"{type_text(t.res, lists)}")
    elif not isinstance(t, STCon):
        return str(t)
    elif not t.args:
        return t.name
    elif lists and t.name == "List" and len(t.args) == 1:
        return f"[{type_text(t.args[0], lists)}]"
    else:
        text = " ".join([t.name] + [type_text(a, lists, True) for a in t.args])
    return f"({text})" if atom else text


@dataclass(unsafe_hash=True)
class SPat:
    pass


@dataclass(unsafe_hash=True)
class PWild(SPat):
    def __str__(self) -> str:
        return "_"


@dataclass(unsafe_hash=True)
class PVar(SPat):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(unsafe_hash=True)
class PInt(SPat):
    value: int

    def __str__(self) -> str:
        return str(self.value) if self.value >= 0 else f"({self.value})"


@dataclass(unsafe_hash=True)
class PCon(SPat):
    """Constructor pattern, fully applied: Node x l r."""

    name: str
    args: tuple[SPat, ...] = ()

    def __str__(self) -> str:
        if self.name == "Nil" and not self.args:
            return "[]"
        if self.name == "Cons" and len(self.args) == 2:
            return f"{_pat_atom(self.args[0])}:{self.args[1]}"
        if not self.args:
            return self.name
        return " ".join([self.name] + [_pat_atom(p) for p in self.args])


@dataclass(unsafe_hash=True)
class PTuple(SPat):
    items: tuple[SPat, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.items) + ")"


def _pat_atom(p: SPat) -> str:
    if isinstance(p, PCon) and p.args:
        return f"({p})"
    return str(p)


@dataclass(unsafe_hash=True)
class SExpr:
    pass


@dataclass(unsafe_hash=True)
class SVar(SExpr):
    name: str
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SCon(SExpr):
    """A constructor used as an expression, applied via SApp."""

    name: str
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SInt(SExpr):
    value: int
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SApp(SExpr):
    fun: SExpr
    arg: SExpr
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SBin(SExpr):
    """Binary operator: arithmetic, comparison, && or ||."""

    op: str
    lhs: SExpr
    rhs: SExpr
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SIf(SExpr):
    cond: SExpr
    then: SExpr
    els: SExpr
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SBang(SExpr):
    """e !x — evaluate e, then sample the unknown bound to x."""

    expr: SExpr
    var: str
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class STupleE(SExpr):
    items: tuple[SExpr, ...]
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SArm:
    """One case arm: | weight % pattern -> body (weight optional)."""

    weight: Optional[SExpr]
    pat: SPat
    body: SExpr


@dataclass(unsafe_hash=True)
class SCase(SExpr):
    scrut: SExpr
    arms: tuple[SArm, ...]
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SCtor:
    name: str
    args: tuple[STy, ...] = ()


@dataclass(unsafe_hash=True)
class SData:
    name: str
    params: tuple[str, ...]
    ctors: tuple[SCtor, ...]
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SFun:
    name: str
    params: tuple[str, ...]
    body: SExpr
    sig: Optional[STy] = None
    line: int = field(default=0, compare=False)


@dataclass(unsafe_hash=True)
class SurfaceProgram:
    data_decls: tuple[SData, ...] = ()
    fun_decls: tuple[SFun, ...] = ()


def _list_of(t: STy) -> STy:
    return STCon("List", (t,))


def _cons(head: SExpr, tail: SExpr, line: int) -> SExpr:
    return SApp(SApp(SCon("Cons", line), head, line), tail, line)


# The datatypes every program starts with, by name.
PRELUDE = {"Bool": SData("Bool", (), (SCtor("True"), SCtor("False"))),
           "List": SData("List", ("a",),
                         (SCtor("Nil"),
                          SCtor("Cons", (STVar("a"), _list_of(STVar("a"))))))}


# ---------------------------------------------------------------------------
# Parser

_CMP_OPS = ("==", "/=", "<", "<=", ">", ">=")
_ATOM_START = ("int", "lower", "upper", "(", "[")


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.peek()
        if t.kind != kind:
            want = what or f"'{kind}'"
            got = "end of input" if t.kind == "eof" else f"{t.text!r}"
            raise LuckSyntaxError(f"expected {want}, found {got}", t.line, t.col)
        return self.next()

    def error(self, message: str):
        t = self.peek()
        raise LuckSyntaxError(message, t.line, t.col)

    def negative_int(self) -> Optional[int]:
        """-n, the way a negative integer prints, when it comes next."""
        if self.at("-") and self.peek(1).kind == "int":
            self.next()
            return -int(self.next().text)
        return None

    # -- declarations --------------------------------------------------------

    def program(self) -> SurfaceProgram:
        datas: list[SData] = []
        sigs: dict[str, STy] = {}
        sig_toks: dict[str, Token] = {}
        funs: list[SFun] = []
        while not self.at("eof"):
            if self.at("data"):
                datas.append(self.data_decl())
            elif self.at("sig"):
                t = self.next()
                name = self.expect("lower", "function name").text
                self.expect("::")
                if name in sigs:
                    raise LuckSyntaxError(f"duplicate signature for {name}",
                                          t.line, t.col)
                sigs[name] = self.type_()
                sig_toks[name] = t
            elif self.at("fun"):
                funs.append(self.fun_decl())
            else:
                self.error("expected a data, sig, or fun declaration")
        seen: set[str] = set()
        for d in datas:
            if d.name in seen:
                raise LuckSyntaxError(f"duplicate data declaration {d.name}",
                                      d.line, 1)
            seen.add(d.name)
        out: list[SFun] = []
        for f in funs:
            if f.name in seen:
                raise LuckSyntaxError(f"duplicate definition of {f.name}",
                                      f.line, 1)
            seen.add(f.name)
            out.append(SFun(f.name, f.params, f.body,
                            sigs.pop(f.name, None), f.line))
        for name, t in sig_toks.items():
            if name in sigs:
                raise LuckSyntaxError(f"signature for undefined function {name}",
                                      t.line, t.col)
        return SurfaceProgram(tuple(datas), tuple(out))

    def data_decl(self) -> SData:
        t = self.expect("data")
        name = self.expect("upper", "type name").text
        params = []
        while self.at("lower"):
            params.append(self.next().text)
        self.expect("=")
        ctors = [self.ctor_decl()]
        while self.at("|"):
            self.next()
            ctors.append(self.ctor_decl())
        return SData(name, tuple(params), tuple(ctors), t.line)

    def ctor_decl(self) -> SCtor:
        name = self.expect("upper", "constructor name").text
        args = []
        while self.peek().kind in ("upper", "lower", "(", "["):
            args.append(self.type_atom())
        return SCtor(name, tuple(args))

    def fun_decl(self) -> SFun:
        t = self.expect("fun")
        name = self.expect("lower", "function name").text
        params = []
        while self.at("lower"):
            params.append(self.next().text)
        self.expect("=")
        body = self.expr()
        return SFun(name, tuple(params), body, None, t.line)

    # -- types ----------------------------------------------------------------

    def type_(self) -> STy:
        left = self.type_app()
        if self.at("->"):
            self.next()
            return STFun(left, self.type_())
        return left

    def type_app(self) -> STy:
        if self.at("upper"):
            name = self.next().text
            args = []
            while self.peek().kind in ("upper", "lower", "(", "["):
                args.append(self.type_atom())
            return STCon(name, tuple(args))
        return self.type_atom()

    def type_atom(self) -> STy:
        t = self.peek()
        if t.kind == "upper":
            return STCon(self.next().text)
        if t.kind == "lower":
            return STVar(self.next().text)
        if t.kind == "[":
            self.next()
            elem = self.type_()
            self.expect("]")
            return _list_of(elem)
        if t.kind == "(":
            self.next()
            items = [self.type_()]
            while self.at(","):
                self.next()
                items.append(self.type_())
            self.expect(")")
            return items[0] if len(items) == 1 else STTuple(tuple(items))
        self.error("expected a type")

    # -- expressions ------------------------------------------------------------

    def expr(self) -> SExpr:
        t = self.peek()
        if t.kind == "if":
            self.next()
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            return SIf(cond, then, self.expr(), t.line)
        if t.kind == "case":
            self.next()
            scrut = self.expr()
            self.expect("of")
            arms = []
            while self.at("|"):
                self.next()
                arms.append(self.arm())
            if not arms:
                self.error("case needs at least one arm")
            self.expect("end")
            return SCase(scrut, tuple(arms), t.line)
        return self.or_()

    def arm(self) -> SArm:
        weight = None
        mark = self.pos
        try:
            w = self.add()
            if self.at("%"):
                self.next()
                weight = w
            else:
                self.pos = mark
        except LuckSyntaxError:
            self.pos = mark
        pat = self.pattern()
        self.expect("->")
        return SArm(weight, pat, self.expr())

    def or_(self) -> SExpr:
        left = self.and_()
        if self.at("||"):
            t = self.next()
            return SBin("||", left, self.or_(), t.line)
        return left

    def and_(self) -> SExpr:
        left = self.bang()
        if self.at("&&"):
            t = self.next()
            return SBin("&&", left, self.and_(), t.line)
        return left

    def bang(self) -> SExpr:
        e = self.cmp()
        while self.at("!"):
            t = self.next()
            var = self.expect("lower", "a variable to sample").text
            e = SBang(e, var, t.line)
        return e

    def cmp(self) -> SExpr:
        left = self.cons()
        if self.peek().kind in _CMP_OPS:
            t = self.next()
            right = self.cons()
            if self.peek().kind in _CMP_OPS:
                self.error("comparisons do not chain; parenthesize")
            return SBin(t.kind, left, right, t.line)
        return left

    def cons(self) -> SExpr:
        left = self.add()
        if self.at(":"):
            t = self.next()
            return _cons(left, self.cons(), t.line)
        return left

    def add(self) -> SExpr:
        e = self.mul()
        while self.peek().kind in ("+", "-"):
            t = self.next()
            e = SBin(t.kind, e, self.mul(), t.line)
        return e

    def mul(self) -> SExpr:
        e = self.app()
        while self.peek().kind in ("*", "/"):
            t = self.next()
            e = SBin(t.kind, e, self.app(), t.line)
        return e

    def app(self) -> SExpr:
        e = self.atom()
        while self.peek().kind in _ATOM_START:
            t = self.peek()
            e = SApp(e, self.atom(), t.line)
        return e

    def atom(self) -> SExpr:
        t = self.peek()
        if t.kind == "int":
            return SInt(int(self.next().text), t.line)
        if t.kind == "lower":
            return SVar(self.next().text, t.line)
        if t.kind == "upper":
            return SCon(self.next().text, t.line)
        if (n := self.negative_int()) is not None:
            return SInt(n, t.line)
        if t.kind == "(":
            self.next()
            items = [self.expr()]
            while self.at(","):
                self.next()
                items.append(self.expr())
            self.expect(")")
            return items[0] if len(items) == 1 else STupleE(tuple(items), t.line)
        if t.kind == "[":
            out: SExpr = SCon("Nil", t.line)
            for item in reversed(self.list_items(self.expr)):
                out = _cons(item, out, t.line)
            return out
        self.error("expected an expression")

    def list_items(self, item) -> list:
        """The items of [x1, x2, ...], each parsed by item."""
        self.expect("[")
        items = []
        if not self.at("]"):
            items.append(item())
            while self.at(","):
                self.next()
                items.append(item())
        self.expect("]")
        return items

    # -- patterns -----------------------------------------------------------------

    def pattern(self) -> SPat:
        left = self.pat_app()
        if self.at(":"):
            self.next()
            return PCon("Cons", (left, self.pattern()))
        return left

    def pat_app(self) -> SPat:
        if self.at("upper"):
            name = self.next().text
            args = []
            while self.peek().kind in ("int", "lower", "upper", "wild", "(", "["):
                args.append(self.pat_atom())
            return PCon(name, tuple(args))
        return self.pat_atom()

    def pat_atom(self) -> SPat:
        t = self.peek()
        if t.kind == "wild":
            self.next()
            return PWild()
        if t.kind == "lower":
            return PVar(self.next().text)
        if t.kind == "int":
            return PInt(int(self.next().text))
        if t.kind == "upper":
            return PCon(self.next().text)
        if (n := self.negative_int()) is not None:
            return PInt(n)
        if t.kind == "(":
            self.next()
            items = [self.pattern()]
            while self.at(","):
                self.next()
                items.append(self.pattern())
            self.expect(")")
            return items[0] if len(items) == 1 else PTuple(tuple(items))
        if t.kind == "[":
            out: SPat = PCon("Nil")
            for item in reversed(self.list_items(self.pattern)):
                out = PCon("Cons", (item, out))
            return out
        self.error("expected a pattern")


def parse_program(text: str) -> SurfaceProgram:
    """Parse a whole .luck source file."""
    return _Parser(tokenize(text)).program()


def parse_query(text: str):
    """Parse a query string ``f arg... = True`` into (call, target)."""
    p = _Parser(tokenize(text))
    call = p.expr()
    p.expect("=", "'=' followed by True or False")
    t = p.expect("upper", "True or False")
    if t.text not in ("True", "False"):
        raise LuckSyntaxError("query target must be True or False",
                              t.line, t.col)
    p.expect("eof", "end of query")
    return call, t.text == "True"


# ---------------------------------------------------------------------------
# Pretty-printer

_LEVEL = {"||": 1, "&&": 2, "==": 4, "/=": 4, "<": 4, "<=": 4, ">": 4,
          ">=": 4, "+": 6, "-": 6, "*": 7, "/": 7}
_RIGHT = {"||", "&&"}
_CONS = SCon("Cons")


def pretty_expr(e: SExpr, level: int = 0, indent: int = 0) -> str:
    def wrap(text: str, mine: int) -> str:
        return f"({text})" if mine < level else text

    if isinstance(e, SVar):
        return e.name
    if isinstance(e, SCon):
        return "[]" if e.name == "Nil" else e.name
    if isinstance(e, SInt):
        return str(e.value) if e.value >= 0 else f"({e.value})"
    if isinstance(e, STupleE):
        return "(" + ", ".join(pretty_expr(x, 0, indent) for x in e.items) + ")"
    if isinstance(e, SApp) and isinstance(e.fun, SApp) and e.fun.fun == _CONS:
        return wrap(f"{pretty_expr(e.fun.arg, 6, indent)} : "
                    f"{pretty_expr(e.arg, 5, indent)}", 5)
    if isinstance(e, SApp):
        return wrap(f"{pretty_expr(e.fun, 8, indent)} "
                    f"{pretty_expr(e.arg, 9, indent)}", 8)
    if isinstance(e, SBin):
        mine = _LEVEL[e.op]
        lhs = pretty_expr(e.lhs, mine + (1 if e.op in _RIGHT else 0), indent)
        rhs = pretty_expr(e.rhs, mine + (0 if e.op in _RIGHT else 1), indent)
        return wrap(f"{lhs} {e.op} {rhs}", mine)
    if isinstance(e, SBang):
        # parenthesize comparisons under ! even though the grammar does
        # not strictly need it; "(0 < u) !u" reads better than "0 < u !u"
        return wrap(f"{pretty_expr(e.expr, 5, indent)} !{e.var}", 3)
    if isinstance(e, SIf):
        body = (f"if {pretty_expr(e.cond, 0, indent)} "
                f"then {pretty_expr(e.then, 0, indent)} "
                f"else {pretty_expr(e.els, 0, indent)}")
        return f"({body})" if level > 0 else body
    if isinstance(e, SCase):
        pad = "  " * (indent + 1)
        lines = [f"case {pretty_expr(e.scrut, 0, indent)} of"]
        for arm in e.arms:
            w = "" if arm.weight is None \
                else f"{pretty_expr(arm.weight, 6, indent)} % "
            lines.append(f"{pad}| {w}{arm.pat} -> "
                         f"{pretty_expr(arm.body, 0, indent + 1)}")
        lines.append(f"{pad}end")
        body = "\n".join(lines)
        return f"({body})" if level > 0 else body
    raise TypeError(f"unprintable expression {e!r}")


def pretty_program(prog: SurfaceProgram) -> str:
    chunks = []
    for d in prog.data_decls:
        ctors = " | ".join(
            " ".join([c.name] + [type_text(a, True, True) for a in c.args])
            for c in d.ctors)
        head = " ".join([d.name] + list(d.params))
        chunks.append(f"data {head} = {ctors}")
    for f in prog.fun_decls:
        lines = []
        if f.sig is not None:
            lines.append(f"sig {f.name} :: {type_text(f.sig, True)}")
        head = " ".join([f.name] + list(f.params))
        lines.append(f"fun {head} = {pretty_expr(f.body, 0, 0)}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
