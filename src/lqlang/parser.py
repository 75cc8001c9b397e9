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
from dataclasses import dataclass
from itertools import accumulate, compress, islice
from typing import Callable, Optional

from .diagnostics import CheckError, Kind
from .syntax import (App, Branch, Case, Con, ConDecl, DataDecl, INT, IntLit,
                     Lam, Let, LetBind, Loc, MProd, MSum, MVar, MultApp,
                     MultExpr, MultLam, OMEGA, ONE, Prim, TArray, TArrow,
                     TData, TForall, TMArray, TVar, Term, Type, Var)
from .typecheck import PRIM_NAMES

KEYWORDS = frozenset({"def", "data", "where", "main", "case", "of", "let",
                      "in", "forall", "Int", "MArray", "Array"}) | PRIM_NAMES

# Splitting a text at its tokens leaves the whitespace between them.  A
# comment is split off like a token and then dropped; a character that
# starts no token is a token of its own, of kind "bad".  Digits are ASCII
# only.
_TOKEN_RE = re.compile(
    r"(--[^\n]*|[A-Za-z_][A-Za-z0-9_']*|[0-9]+|/\\|->|-o|\S)")

_OP_KINDS = dict.fromkeys(["/\\", "->", "-o", *"\\@[](){}:.,;=+*"], "op")
_START_KINDS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_",
                    "ident"),
    **dict.fromkeys("0123456789", "int")}


def _kind(text: str) -> str:
    if text.startswith("--"):
        return "comment"
    return _OP_KINDS.get(text) or _START_KINDS.get(text[0], "bad")


# ``peek(1)`` at the first eof token still reads an eof token.
_EOF_PADDING = 2


class Tokens:
    """The tokens of a text as three parallel lists: ``kinds`` ("ident",
    "int", "op" or "eof"), ``texts`` and ``offsets`` into the text, ending
    in ``_EOF_PADDING`` eof tokens with text "".  ``loc(i)`` is a token's
    location: its offset and the file's table of line starts (offsets just
    after each newline), from which ``Loc`` works out the line and column
    only when they are read."""

    __slots__ = ("kinds", "texts", "offsets", "line_starts")

    def __init__(self, kinds: list[str], texts: list[str],
                 offsets: list[int], line_starts: list[int]) -> None:
        self.kinds = kinds
        self.texts = texts
        self.offsets = offsets
        self.line_starts = line_starts

    def loc(self, i: int) -> Loc:
        return Loc.at(self.offsets[i], self.line_starts)


def tokenize(text: str, source: str = "<input>") -> Tokens:
    """The tokens of ``text``; a character that starts no token is a
    syntax error at the first one."""
    parts = _TOKEN_RE.split(text)  # [space, token, space, ..., token, space]
    texts = parts[1::2]
    # where each token starts, and then the end of the text
    offsets = list(islice(accumulate(map(len, parts)), 0, None, 2))
    kind_of = {t: _kind(t) for t in set(texts)}
    kinds = list(map(kind_of.__getitem__, texts))
    if "comment" in kind_of.values():
        keep = [kind != "comment" for kind in kinds] + [True]
        kinds = list(compress(kinds, keep))
        texts = list(compress(texts, keep))
        offsets = list(compress(offsets, keep))
    kinds.extend(["eof"] * _EOF_PADDING)
    texts.extend([""] * _EOF_PADDING)
    offsets.append(len(text))
    line_starts = [0]
    line_starts.extend(m.end() for m in re.finditer("\n", text))
    tokens = Tokens(kinds, texts, offsets, line_starts)
    if "bad" in kind_of.values():
        i = kinds.index("bad")
        raise CheckError.single(Kind.SYNTAX,
                                f"unexpected character {texts[i]!r}",
                                tokens.loc(i))
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


def _prescan(tokens: Tokens,
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
    kinds, texts = tokens.kinds, tokens.texts
    n = len(texts)
    i = 0
    while True:
        try:
            i = texts.index("data", i) + 1
        except ValueError:
            break
        if kinds[i] != "ident":
            continue
        name = texts[i]
        i += 1
        n_mult = 0
        while kinds[i] == "ident" and texts[i] != "where":
            n_mult += 1
            i += 1
        n_type = 0
        if texts[i] == "(":
            i += 1
            while kinds[i] == "ident":
                n_type += 1
                i += 1
            if texts[i] == ")":
                i += 1
        decls[name] = (n_mult, n_type)
        if not (texts[i] == "where" and texts[i + 1] == "{"):
            continue
        i += 2
        while i < n and texts[i] != "}":
            if kinds[i] == "ident" and texts[i + 1] == ":":
                con_name = texts[i]
                i += 2
                depth = 0
                arrows = 0
                while i < n and not (depth == 0 and texts[i] in (";", "}")):
                    if texts[i] in ("(", "["):
                        depth += 1
                    elif texts[i] in (")", "]"):
                        depth -= 1
                    elif depth == 0 and texts[i] in ("->", "-o"):
                        arrows += 1
                    i += 1
                cons[con_name] = (name, arrows)
            else:
                i += 1
        # leave the closing brace to the main parse
    return decls, cons


# Keywords that cannot start an atom; the primitives' names can.
_NON_ATOM_WORDS = KEYWORDS - PRIM_NAMES

# The tokens that start a term but not an application spine.
_BINDING_FORMS = frozenset({"\\", "/\\", "case", "let"})


class Parser:
    """Recursive descent over the token lists.  ``pos`` is the index of the
    next token; each method reads the lists directly."""

    def __init__(self, tokens: Tokens, decls: DeclArities,
                 cons: ConArities) -> None:
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.loc = tokens.loc
        self.pos = 0
        self.decls = decls
        self.cons = cons
        self.type_params: frozenset[str] = frozenset()

    # -- token plumbing ----------------------------------------------------

    def fail(self, message: str, i: int) -> CheckError:
        return CheckError.single(Kind.SYNTAX, message, self.loc(i))

    def expect(self, text: str) -> int:
        """Consume ``text`` (never empty, so never an eof token) and return
        its index."""
        i = self.pos
        if self.texts[i] != text:
            got = self.texts[i] if self.kinds[i] != "eof" else "end of input"
            raise self.fail(f"expected '{text}', found '{got}'", i)
        self.pos = i + 1
        return i

    def ident(self, what: str = "identifier") -> str:
        i = self.pos
        text = self.texts[i]
        if self.kinds[i] != "ident" or text in KEYWORDS:
            raise self.fail(f"expected {what}, found '{text}'", i)
        self.pos = i + 1
        return text

    # -- multiplicities ----------------------------------------------------

    def mult(self) -> MultExpr:
        left = self.mult_prod()
        while self.texts[self.pos] == "+":
            self.pos += 1
            left = MSum(left, self.mult_prod())
        return left

    def mult_prod(self) -> MultExpr:
        left = self.mult_atom()
        while self.texts[self.pos] == "*":
            self.pos += 1
            left = MProd(left, self.mult_atom())
        return left

    def mult_atom(self) -> MultExpr:
        i = self.pos
        kind = self.kinds[i]
        text = self.texts[i]
        if kind == "int":
            if text != "1":
                raise self.fail(f"'{text}' is not a multiplicity "
                                f"(only 1 and w are)", i)
            self.pos = i + 1
            return ONE
        if kind == "ident" and text not in KEYWORDS:
            self.pos = i + 1
            return OMEGA if text == "w" else MVar(text)
        if text == "(":
            self.pos = i + 1
            m = self.mult()
            self.expect(")")
            return m
        raise self.fail(f"expected a multiplicity, found '{text}'", i)

    def bracket_mult(self) -> MultExpr:
        self.expect("[")
        m = self.mult()
        self.expect("]")
        return m

    # -- types ---------------------------------------------------------------

    def type_(self) -> Type:
        texts = self.texts
        text = texts[self.pos]
        if text == "forall":
            self.pos += 1
            p = self.ident("multiplicity variable")
            self.expect(".")
            return TForall(p, self.type_())
        left = self.type_app()
        text = texts[self.pos]
        if text == "->":
            self.pos += 1
            if texts[self.pos] == "[":
                m = self.bracket_mult()
                return TArrow(left, m, self.type_())
            return TArrow(left, OMEGA, self.type_())
        if text == "-o":
            self.pos += 1
            return TArrow(left, ONE, self.type_())
        return left

    def type_app(self) -> Type:
        i = self.pos
        text = self.texts[i]
        if text in ("MArray", "Array"):
            self.pos = i + 1
            elem = self.type_atom()
            return TMArray(elem) if text == "MArray" else TArray(elem)
        n_mult, n_type = self.decls.get(text, (0, 0))
        if ((n_mult or n_type) and text not in KEYWORDS
                and text not in self.type_params):
            self.pos = i + 1
            return TData(text,
                         tuple(self.mult_atom() for _ in range(n_mult)),
                         tuple(self.type_atom() for _ in range(n_type)))
        return self.type_atom()

    def type_atom(self) -> Type:
        i = self.pos
        text = self.texts[i]
        if text == "Int":
            self.pos = i + 1
            return INT
        if text == "(":
            self.pos = i + 1
            ty = self.type_()
            self.expect(")")
            return ty
        if self.kinds[i] == "ident" and text not in KEYWORDS:
            self.pos = i + 1
            if text in self.type_params:
                return TVar(text)
            arities = self.decls.get(text)
            if arities is None:
                raise self.fail(f"unknown type '{text}'", i)
            if any(arities):
                raise self.fail(f"parameterized type '{text}' must be "
                                f"parenthesized here", i)
            return TData(text)
        raise self.fail(f"expected a type, found '{text}'", i)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        i = self.pos
        text = self.texts[i]
        if text == "\\":
            self.pos = i + 1
            m = self.bracket_mult()
            x = self.ident("binder")
            self.expect(":")
            ty = self.type_()
            self.expect(".")
            return Lam(m, x, ty, self.term(), loc=self.loc(i))
        if text == "/\\":
            self.pos = i + 1
            p = self.ident("multiplicity variable")
            self.expect(".")
            return MultLam(p, self.term(), loc=self.loc(i))
        if text == "case":
            self.pos = i + 1
            m = self.bracket_mult()
            j = self.pos
            if self.texts[j] in _BINDING_FORMS:  # a scrutinee is a spine
                raise self.fail(f"expected a term, found '{self.texts[j]}'",
                                j)
            scrut = self.term()
            self.expect("of")
            self.expect("{")
            branches = [self.branch()]
            while self.texts[self.pos] == ";":
                self.pos += 1
                if self.texts[self.pos] == "}":
                    break
                branches.append(self.branch())
            self.expect("}")
            return Case(m, scrut, tuple(branches), loc=self.loc(i))
        if text == "let":
            self.pos = i + 1
            m = self.bracket_mult()
            binds = []
            while True:
                j = self.pos
                x = self.ident("binder")
                self.expect(":")
                ty = self.type_()
                self.expect("=")
                binds.append(LetBind(x, ty, self.term(), loc=self.loc(j)))
                if self.texts[self.pos] != ",":
                    break
                self.pos += 1
            self.expect("in")
            return Let(m, tuple(binds), self.term(), loc=self.loc(i))
        # an application spine: left-associated ``App``s of elements
        head = self.element(True)
        while self.starts_atom():
            head = App(head, self.element(False), loc=head.loc)
        return head

    def branch(self) -> Branch:
        i = self.pos
        con = self.ident("constructor")
        if con not in self.cons:
            raise self.fail(f"unknown constructor '{con}' in case branch", i)
        binders = []
        while (self.kinds[self.pos] == "ident"
               and self.texts[self.pos] not in KEYWORDS):
            binders.append(self.ident("binder"))
        self.expect("->")
        return Branch(con, tuple(binders), self.term(), loc=self.loc(i))

    def starts_atom(self) -> bool:
        i = self.pos
        kind = self.kinds[i]
        return (kind == "int" or self.texts[i] == "("
                or (kind == "ident" and self.texts[i] not in _NON_ATOM_WORDS))

    def element(self, spine_head: bool) -> Term:
        """An atom (a literal, a primitive call, a parenthesised term or a
        variable) with its ``@[m]`` arguments, or a constructor with its
        arguments."""
        i = self.pos
        kind = self.kinds[i]
        text = self.texts[i]
        if kind == "int":
            self.pos = i + 1
            try:
                value = int(text)
            except ValueError:  # longer than sys.get_int_max_str_digits()
                raise self.fail(f"integer literal of {len(text)} digits is "
                                f"too long", i) from None
            atom: Term = IntLit(value, loc=self.loc(i))
        elif text in PRIM_NAMES:
            self.pos = i + 1
            self.expect("(")
            args = []
            if self.texts[self.pos] != ")":
                args.append(self.term())
                while self.texts[self.pos] == ",":
                    self.pos += 1
                    args.append(self.term())
            self.expect(")")
            atom = Prim(text, tuple(args), loc=self.loc(i))
        elif text == "(":
            self.pos = i + 1
            atom = self.term()
            self.expect(")")
        elif kind == "ident" and text not in KEYWORDS:
            if text in self.cons:
                return self.constructor(spine_head)
            self.pos = i + 1
            atom = Var(text, loc=self.loc(i))
        else:
            raise self.fail(f"expected a term, found '{text}'", i)
        texts = self.texts
        while texts[self.pos] == "@" and texts[self.pos + 1] == "[":
            self.pos += 2
            m = self.mult()
            self.expect("]")
            atom = MultApp(atom, m, loc=atom.loc)
        return atom

    def constructor(self, spine_head: bool) -> Term:
        i = self.pos
        self.pos = i + 1
        name = self.texts[i]
        owner, arity = self.cons[name]
        n_mult, n_type = self.decls[owner]
        targs = self.at_args(self.type_) if n_type else ()
        margs = self.at_args(self.mult) if n_mult else ()
        if arity == 0:
            return Con(name, targs, margs, (), loc=self.loc(i))
        if not spine_head:
            raise self.fail(f"constructor '{name}' takes {arity} arguments "
                            f"and must be parenthesized here", i)
        args = []
        for _ in range(arity):
            if not self.starts_atom():
                raise self.fail(f"constructor '{name}' expects {arity} "
                                f"arguments", self.pos)
            args.append(self.element(False))
        return Con(name, targs, margs, tuple(args), loc=self.loc(i))

    def at_args(self, item: Callable) -> tuple:
        """An optional ``@[x, ...]`` list of ``item``s; ``()`` without one."""
        if self.texts[self.pos] != "@":
            return ()
        self.pos += 1
        self.expect("[")
        items = [item()]
        while self.texts[self.pos] == ",":
            self.pos += 1
            items.append(item())
        self.expect("]")
        return tuple(items)

    # -- top level -----------------------------------------------------------

    def datadecl(self) -> DataDecl:
        loc = self.loc(self.expect("data"))
        name = self.ident("datatype name")
        mult_params = []
        while (self.kinds[self.pos] == "ident"
               and self.texts[self.pos] != "where"):
            mult_params.append(self.ident("multiplicity parameter"))
        type_params = []
        if self.texts[self.pos] == "(":
            self.pos += 1
            while self.kinds[self.pos] == "ident":
                type_params.append(self.ident("type parameter"))
            self.expect(")")
        self.expect("where")
        self.expect("{")
        saved = self.type_params
        self.type_params = frozenset(type_params)
        constructors = [self.condecl(name, mult_params, type_params)]
        while self.texts[self.pos] == ";":
            self.pos += 1
            if self.texts[self.pos] == "}":
                break
            constructors.append(self.condecl(name, mult_params, type_params))
        self.type_params = saved
        self.expect("}")
        return DataDecl(name, tuple(mult_params), tuple(type_params),
                        tuple(constructors), loc=loc)

    def condecl(self, dname: str, mult_params: list[str],
                type_params: list[str]) -> ConDecl:
        i = self.pos
        name = self.ident("constructor name")
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
                f"constructor '{name}' must end in '{dname}' applied to "
                f"exactly its declared parameters", self.loc(i))
        return ConDecl(name, tuple(fields), loc=self.loc(i))

    def parse_file(self, source: str, require_main: bool) -> SourceFile:
        decls: list[DataDecl] = []
        defs: list[tuple[str, Type, MultExpr, Term]] = []
        main: Optional[Term] = None
        texts = self.texts
        while self.kinds[self.pos] != "eof":
            i = self.pos
            text = texts[i]
            if main is not None:
                raise self.fail("'main' must be the final item", i)
            if text == "data":
                decls.append(self.datadecl())
            elif text == "def":
                self.pos = i + 1
                name = self.ident("definition name")
                self.expect(":")
                ty = self.type_()
                self.expect("=")
                self.expect("[")
                j = self.pos
                m = self.mult_atom()
                if m not in (ONE, OMEGA):
                    raise self.fail("a definition multiplicity must be 1 "
                                    "or w", j)
                self.expect("]")
                defs.append((name, ty, m, self.term()))
            elif text == "main":
                self.pos = i + 1
                self.expect("=")
                main = self.term()
            else:
                raise self.fail(f"expected 'data', 'def' or 'main', found "
                                f"'{text}'", i)
        if require_main and main is None:
            raise self.fail("missing 'main'", self.pos)
        return SourceFile(decls, defs, main, source)


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
