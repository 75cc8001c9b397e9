"""Surface syntax for ``.lq`` files.

Grammar (ASCII):

  multiplicities   1 | w | IDENT | m + m | m * m | (m)
  types            Int | MArray T | Array T | D m... T... | T ->[m] T
                   | forall p. T        with sugar  -o == ->[1],  -> == ->[w]
  terms            x | \\[m] x : T . t | t t | /\\p . t | t @[m]
                   | C @[T, ...] @[m, ...] t... | case[m] t of { C x... -> t ; ... }
                   | let[m] x : T = t , ... in t | INT | prim(t, ...)
  declarations     data D p... (a...) where { C : T ; ... }
  definitions      def x : T =[m] t         (m is 1 or w)
  entry point      main = t                 (must be the last item)
  comments         -- to end of line

Application is left-associative, arrows are right-associative, and @[...]
binds to the atom it follows.  Multiplicity and type arguments of a
constructor are read according to the datatype's declared arities, so all
datatype declarations (including an auto-prepended prelude) must be known
to the parser; a light pre-scan of the file collects them first, so a
datatype or constructor may be used before its declaration.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

from .diagnostics import CheckError, Kind
from .syntax import (App, Branch, Case, Con, ConDecl, DataDecl, INT, IntLit,
                     Lam, Let, LetBind, Loc, MProd, MSum, MVar, MultApp,
                     MultExpr, MultLam, OMEGA, ONE, Prim, TArray, TArrow,
                     TData, TForall, TMArray, TVar, Term, Type, Var)
from .typecheck import PRIM_NAMES

KEYWORDS = frozenset({"def", "data", "where", "main", "case", "of", "let",
                      "in", "forall", "Int", "MArray", "Array"}) | PRIM_NAMES

# Whitespace and comments form one unnamed group (``lastgroup`` is None);
# any other character falls through to ``bad``, which must come last.  No
# text can start a match of two other alternatives, so their order affects
# only speed.
_TOKEN_RE = re.compile(r"""
    (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?:--[^\n]*|\s+)+
  | (?P<op>/\\|->|-o|[\\@\[\](){}:.,;=+*])
  | (?P<int>\d+)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# ``Parser.peek(1)`` at the first eof token still reads an eof token.
_EOF_PADDING = 2


class Token:
    """A token and its offset into the text; ``loc`` is computed on demand
    from the file's table of line starts (offsets just after each newline)."""

    __slots__ = ("kind", "text", "pos", "line_starts")

    def __init__(self, kind: str, text: str, pos: int,
                 line_starts: list[int]) -> None:
        self.kind = kind  # "int" | "ident" | "op" | "eof"
        self.text = text
        self.pos = pos
        self.line_starts = line_starts

    @property
    def loc(self) -> Loc:
        line = bisect_right(self.line_starts, self.pos)
        return Loc(line, self.pos - self.line_starts[line - 1] + 1)


def tokenize(text: str, source: str = "<input>") -> list[Token]:
    """The tokens of ``text``, followed by ``_EOF_PADDING`` eof tokens."""
    line_starts = [0]
    line_starts.extend(m.end() for m in re.finditer("\n", text))
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok = Token(kind, m.group(), m.start(), line_starts)
        if kind == "bad":
            raise CheckError.single(Kind.SYNTAX,
                                    f"unexpected character {tok.text!r}",
                                    tok.loc)
        append(tok)
    tokens.extend([Token("eof", "", len(text), line_starts)] * _EOF_PADDING)
    return tokens


@dataclass
class SourceFile:
    decls: list[DataDecl]
    defs: list[tuple[str, Type, MultExpr, Term]]
    main: Optional[Term]
    source: str = "<input>"


# The parser's declaration table: each datatype's numbers of multiplicity
# and type parameters, and each constructor's datatype and field count.
DeclArities = dict[str, tuple[int, int]]
ConArities = dict[str, tuple[str, int]]


def _prescan(tokens: list[Token],
             base: Optional[SourceFile]) -> tuple[DeclArities, ConArities]:
    """The declaration table that datatype application and constructor
    saturation need, from ``base`` and then from the file's own
    declarations, which override it wherever in the file they stand."""
    decls: DeclArities = {}
    cons: ConArities = {}
    for d in base.decls if base is not None else ():
        decls[d.name] = (len(d.mult_params), len(d.type_params))
        for c in d.constructors:
            cons[c.name] = (d.name, len(c.fields))
    i = 0
    n = len(tokens)
    while i < n:
        if not (tokens[i].kind == "ident" and tokens[i].text == "data"):
            i += 1
            continue
        i += 1
        if tokens[i].kind != "ident":
            continue
        name = tokens[i].text
        i += 1
        n_mult = 0
        while tokens[i].kind == "ident" and tokens[i].text != "where":
            n_mult += 1
            i += 1
        n_type = 0
        if tokens[i].text == "(":
            i += 1
            while tokens[i].kind == "ident":
                n_type += 1
                i += 1
            if tokens[i].text == ")":
                i += 1
        decls[name] = (n_mult, n_type)
        if not (tokens[i].text == "where" and tokens[i + 1].text == "{"):
            continue
        i += 2
        while i < n and tokens[i].text != "}":
            if tokens[i].kind == "ident" and tokens[i + 1].text == ":":
                con_name = tokens[i].text
                i += 2
                depth = 0
                arrows = 0
                while i < n and not (depth == 0 and tokens[i].text in (";", "}")):
                    if tokens[i].text in ("(", "["):
                        depth += 1
                    elif tokens[i].text in (")", "]"):
                        depth -= 1
                    elif depth == 0 and tokens[i].text in ("->", "-o"):
                        arrows += 1
                    i += 1
                cons[con_name] = (name, arrows)
            else:
                i += 1
        # leave the closing brace to the main parse
    return decls, cons


class Parser:
    def __init__(self, tokens: list[Token], decls: DeclArities,
                 cons: ConArities) -> None:
        self.tokens = tokens
        self.pos = 0
        self.decls = decls
        self.cons = cons
        self.type_params: frozenset[str] = frozenset()

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind != "eof"

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text or tok.kind == "eof":
            got = tok.text if tok.kind != "eof" else "end of input"
            raise CheckError.single(Kind.SYNTAX,
                                    f"expected '{text}', found '{got}'",
                                    tok.loc)
        self.pos += 1
        return tok

    def ident(self, what: str = "identifier") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise CheckError.single(Kind.SYNTAX,
                                    f"expected {what}, found '{tok.text}'",
                                    tok.loc)
        self.pos += 1
        return tok

    # -- multiplicities ----------------------------------------------------

    def mult(self) -> MultExpr:
        left = self.mult_prod()
        while self.at("+"):
            self.next()
            left = MSum(left, self.mult_prod())
        return left

    def mult_prod(self) -> MultExpr:
        left = self.mult_atom()
        while self.at("*"):
            self.next()
            left = MProd(left, self.mult_atom())
        return left

    def mult_atom(self) -> MultExpr:
        tok = self.peek()
        if tok.kind == "int":
            if tok.text != "1":
                raise CheckError.single(Kind.SYNTAX,
                                        f"'{tok.text}' is not a multiplicity "
                                        f"(only 1 and w are)", tok.loc)
            self.next()
            return ONE
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return OMEGA if tok.text == "w" else MVar(tok.text)
        if self.at("("):
            self.next()
            m = self.mult()
            self.expect(")")
            return m
        raise CheckError.single(Kind.SYNTAX,
                                f"expected a multiplicity, found '{tok.text}'",
                                tok.loc)

    def bracket_mult(self) -> MultExpr:
        self.expect("[")
        m = self.mult()
        self.expect("]")
        return m

    # -- types ---------------------------------------------------------------

    def type_(self) -> Type:
        if self.at("forall"):
            self.next()
            p = self.ident("multiplicity variable").text
            self.expect(".")
            return TForall(p, self.type_())
        left = self.type_app()
        tok = self.peek()
        if tok.text == "->" and self.peek(1).text == "[":
            self.next()
            m = self.bracket_mult()
            return TArrow(left, m, self.type_())
        if tok.text == "->":
            self.next()
            return TArrow(left, OMEGA, self.type_())
        if tok.text == "-o":
            self.next()
            return TArrow(left, ONE, self.type_())
        return left

    def type_app(self) -> Type:
        tok = self.peek()
        if tok.text in ("MArray", "Array"):
            self.next()
            elem = self.type_atom()
            return TMArray(elem) if tok.text == "MArray" else TArray(elem)
        n_mult, n_type = self.decls.get(tok.text, (0, 0))
        if ((n_mult or n_type) and tok.text not in KEYWORDS
                and tok.text not in self.type_params):
            self.next()
            return TData(tok.text,
                         tuple(self.mult_atom() for _ in range(n_mult)),
                         tuple(self.type_atom() for _ in range(n_type)))
        return self.type_atom()

    def type_atom(self) -> Type:
        tok = self.peek()
        if tok.text == "Int":
            self.next()
            return INT
        if tok.text == "(":
            self.next()
            ty = self.type_()
            self.expect(")")
            return ty
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            name = self.next().text
            if name in self.type_params:
                return TVar(name)
            arities = self.decls.get(name)
            if arities is None:
                raise CheckError.single(Kind.SYNTAX,
                                        f"unknown type '{name}'", tok.loc)
            if any(arities):
                raise CheckError.single(Kind.SYNTAX,
                                        f"parameterized type '{name}' must "
                                        f"be parenthesized here", tok.loc)
            return TData(name)
        raise CheckError.single(Kind.SYNTAX,
                                f"expected a type, found '{tok.text}'",
                                tok.loc)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        tok = self.tokens[self.pos]
        if tok.text == "\\":
            self.pos += 1
            m = self.bracket_mult()
            x = self.ident("binder").text
            self.expect(":")
            ty = self.type_()
            self.expect(".")
            return Lam(m, x, ty, self.term(), loc=tok.loc)
        if tok.text == "/\\":
            self.pos += 1
            p = self.ident("multiplicity variable").text
            self.expect(".")
            return MultLam(p, self.term(), loc=tok.loc)
        if tok.text == "case":
            self.pos += 1
            m = self.bracket_mult()
            scrut = self.app()
            self.expect("of")
            self.expect("{")
            branches = [self.branch()]
            while self.at(";"):
                self.pos += 1
                if self.at("}"):
                    break
                branches.append(self.branch())
            self.expect("}")
            return Case(m, scrut, tuple(branches), loc=tok.loc)
        if tok.text == "let":
            self.pos += 1
            m = self.bracket_mult()
            binds = [self.let_bind()]
            while self.at(","):
                self.pos += 1
                binds.append(self.let_bind())
            self.expect("in")
            return Let(m, tuple(binds), self.term(), loc=tok.loc)
        return self.app()

    def branch(self) -> Branch:
        tok = self.ident("constructor")
        if tok.text not in self.cons:
            raise CheckError.single(Kind.SYNTAX,
                                    f"unknown constructor '{tok.text}' in "
                                    f"case branch", tok.loc)
        binders = []
        while self.peek().kind == "ident" and self.peek().text not in KEYWORDS:
            binders.append(self.ident("binder").text)
        self.expect("->")
        return Branch(tok.text, tuple(binders), self.term(), loc=tok.loc)

    def let_bind(self) -> LetBind:
        tok = self.ident("binder")
        self.expect(":")
        ty = self.type_()
        self.expect("=")
        return LetBind(tok.text, ty, self.term(), loc=tok.loc)

    def app(self) -> Term:
        head = self.element(spine_head=True)
        while self.starts_atom():
            arg = self.element(spine_head=False)
            head = App(head, arg, loc=head.loc)
        return head

    def starts_atom(self) -> bool:
        tok = self.tokens[self.pos]
        return (tok.kind == "int"
                or tok.text == "("
                or tok.text in PRIM_NAMES
                or (tok.kind == "ident" and tok.text not in KEYWORDS))

    def element(self, spine_head: bool) -> Term:
        tok = self.tokens[self.pos]
        if (tok.kind == "ident" and tok.text in self.cons
                and tok.text not in KEYWORDS):
            return self.constructor(spine_head)
        atom = self.atom()
        while self.at("@") and self.peek(1).text == "[":
            self.pos += 2
            m = self.mult()
            self.expect("]")
            atom = MultApp(atom, m, loc=atom.loc)
        return atom

    def constructor(self, spine_head: bool) -> Term:
        tok = self.next()
        name = tok.text
        owner, arity = self.cons[name]
        n_mult, n_type = self.decls[owner]
        targs = self.at_args(self.type_) if n_type else ()
        margs = self.at_args(self.mult) if n_mult else ()
        if arity == 0:
            return Con(name, targs, margs, (), loc=tok.loc)
        if not spine_head:
            raise CheckError.single(Kind.SYNTAX,
                                    f"constructor '{name}' takes {arity} "
                                    f"arguments and must be parenthesized "
                                    f"here", tok.loc)
        args = []
        for _ in range(arity):
            if not self.starts_atom():
                raise CheckError.single(Kind.SYNTAX,
                                        f"constructor '{name}' expects "
                                        f"{arity} arguments", self.peek().loc)
            args.append(self.element(spine_head=False))
        return Con(name, targs, margs, tuple(args), loc=tok.loc)

    def at_args(self, item: Callable) -> tuple:
        """An optional ``@[x, ...]`` list of ``item``s; ``()`` without one."""
        if not self.at("@"):
            return ()
        self.pos += 1
        self.expect("[")
        items = [item()]
        while self.at(","):
            self.pos += 1
            items.append(item())
        self.expect("]")
        return tuple(items)

    def atom(self) -> Term:
        tok = self.tokens[self.pos]
        if tok.kind == "int":
            self.pos += 1
            return IntLit(int(tok.text), loc=tok.loc)
        if tok.text in PRIM_NAMES:
            self.pos += 1
            self.expect("(")
            args = []
            if not self.at(")"):
                args.append(self.term())
                while self.at(","):
                    self.pos += 1
                    args.append(self.term())
            self.expect(")")
            return Prim(tok.text, tuple(args), loc=tok.loc)
        if tok.text == "(":
            self.pos += 1
            t = self.term()
            self.expect(")")
            return t
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.pos += 1
            return Var(tok.text, loc=tok.loc)
        raise CheckError.single(Kind.SYNTAX,
                                f"expected a term, found '{tok.text}'",
                                tok.loc)

    # -- top level -----------------------------------------------------------

    def datadecl(self) -> DataDecl:
        loc = self.expect("data").loc
        name = self.ident("datatype name").text
        mult_params = []
        while self.peek().kind == "ident" and not self.at("where"):
            mult_params.append(self.ident("multiplicity parameter").text)
        type_params = []
        if self.at("("):
            self.next()
            while self.peek().kind == "ident":
                type_params.append(self.ident("type parameter").text)
            self.expect(")")
        self.expect("where")
        self.expect("{")
        saved = self.type_params
        self.type_params = frozenset(type_params)
        constructors = [self.condecl(name, mult_params, type_params)]
        while self.at(";"):
            self.next()
            if self.at("}"):
                break
            constructors.append(self.condecl(name, mult_params, type_params))
        self.type_params = saved
        self.expect("}")
        return DataDecl(name, tuple(mult_params), tuple(type_params),
                        tuple(constructors), loc=loc)

    def condecl(self, dname: str, mult_params: list[str],
                type_params: list[str]) -> ConDecl:
        tok = self.ident("constructor name")
        self.expect(":")
        sig = self.type_()
        fields = []
        ty = sig
        while isinstance(ty, TArrow):
            fields.append((ty.dom, ty.mult))
            ty = ty.cod
        expected = TData(dname, tuple(MVar(p) for p in mult_params),
                         tuple(TVar(a) for a in type_params))
        if ty != expected:
            raise CheckError.single(
                Kind.MALFORMED_DECL,
                f"constructor '{tok.text}' must end in '{dname}' applied to "
                f"exactly its declared parameters", tok.loc)
        return ConDecl(tok.text, tuple(fields), loc=tok.loc)

    def parse_file(self, source: str, require_main: bool) -> SourceFile:
        decls: list[DataDecl] = []
        defs: list[tuple[str, Type, MultExpr, Term]] = []
        main: Optional[Term] = None
        while not self.at_eof():
            tok = self.peek()
            if main is not None:
                raise CheckError.single(Kind.SYNTAX,
                                        "'main' must be the final item",
                                        tok.loc)
            if tok.text == "data":
                decls.append(self.datadecl())
            elif tok.text == "def":
                self.next()
                name = self.ident("definition name").text
                self.expect(":")
                ty = self.type_()
                self.expect("=")
                self.expect("[")
                mtok = self.peek()
                m = self.mult_atom()
                if m not in (ONE, OMEGA):
                    raise CheckError.single(Kind.SYNTAX,
                                            "a definition multiplicity must "
                                            "be 1 or w", mtok.loc)
                self.expect("]")
                defs.append((name, ty, m, self.term()))
            elif tok.text == "main":
                self.next()
                self.expect("=")
                main = self.term()
            else:
                raise CheckError.single(Kind.SYNTAX,
                                        f"expected 'data', 'def' or 'main', "
                                        f"found '{tok.text}'", tok.loc)
        if require_main and main is None:
            raise CheckError.single(Kind.SYNTAX, "missing 'main'",
                                    self.peek().loc)
        return SourceFile(decls, defs, main, source)

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"


def parse_program(text: str, source: str = "<input>",
                  base: Optional[SourceFile] = None,
                  require_main: bool = True) -> SourceFile:
    """Parse a source file.  ``base`` supplies already-known declarations
    (the prelude) whose arities the parser needs."""
    tokens = tokenize(text, source)
    parser = Parser(tokens, *_prescan(tokens, base))
    out = parser.parse_file(source, require_main)
    if base is not None:
        out.decls = list(base.decls) + out.decls
        out.defs = list(base.defs) + out.defs
    return out


def prelude_source() -> str:
    from importlib import resources
    return (resources.files("lqlang") / "prelude.lq").read_text("utf-8")


def parse_prelude(text: Optional[str] = None) -> SourceFile:
    if text is None:
        text = prelude_source()
    return parse_program(text, source="<prelude>", require_main=False)
