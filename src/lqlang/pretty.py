"""Printers for multiplicities, types, terms and whole source files.

The output re-parses to the same AST (modulo annotations), which the test
suite checks on the shipped program corpus.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (App, ArrName, ArrayLit, Case, Con, ConDecl, DataDecl,
                     IntLit, Lam, Let, MProd, MSum, MVar, MultApp, MultExpr,
                     MultLam, One, Omega, Prim, TArray, TArrow, TData,
                     TForall, TInt, TMArray, TVar, Term, Type, Var, _without)


def show_mult(m: MultExpr, prec: int = 0) -> str:
    # prec 0 = sum position, 1 = product position, 2 = atom position
    match m:
        case One():
            return "1"
        case Omega():
            return "w"
        case MVar(name):
            return name
        case MSum(a, b):
            s = f"{show_mult(a, 0)} + {show_mult(b, 1)}"
            return f"({s})" if prec > 0 else s
        case MProd(a, b):
            s = f"{show_mult(a, 1)} * {show_mult(b, 2)}"
            return f"({s})" if prec > 1 else s
        case _:
            raise AssertionError(m)


def show_type(t: Type, prec: int = 0) -> str:
    # prec 0 = full (forall/arrow), 1 = arrow argument, 2 = atom
    match t:
        case TInt():
            return "Int"
        case TVar(name):
            return name
        case TMArray(elem):
            s = f"MArray {show_type(elem, 2)}"
            return f"({s})" if prec > 1 else s
        case TArray(elem):
            s = f"Array {show_type(elem, 2)}"
            return f"({s})" if prec > 1 else s
        case TData(name, margs, targs):
            if not margs and not targs:
                return name
            parts = [name]
            parts += [show_mult(m, 2) for m in margs]
            parts += [show_type(a, 2) for a in targs]
            s = " ".join(parts)
            return f"({s})" if prec > 1 else s
        case TArrow(dom, m, cod):
            arrow = f"->[{show_mult(m)}]"
            s = f"{show_type(dom, 1)} {arrow} {show_type(cod, 0)}"
            return f"({s})" if prec > 0 else s
        case TForall(p, body):
            s = f"forall {p}. {show_type(body, 0)}"
            return f"({s})" if prec > 0 else s
        case _:
            raise AssertionError(t)


def _insts(type_args: tuple[Type, ...], mult_args: tuple[MultExpr, ...]) -> str:
    out = ""
    if type_args:
        out += " @[" + ", ".join(show_type(a) for a in type_args) + "]"
    if mult_args:
        out += " @[" + ", ".join(show_mult(m) for m in mult_args) + "]"
    return out


class _Full(Exception):
    """The text printed so far is longer than its limit."""


class _Out:
    """The text of a term as it is printed, in pieces, up to a limit."""

    __slots__ = ("parts", "left")

    def __init__(self, limit: float) -> None:
        self.parts: list[str] = []
        self.left = limit

    def put(self, s: str) -> None:
        self.parts.append(s)
        self.left -= len(s)
        if self.left < 0:
            raise _Full


def show_term(t: Term, prec: int = 0) -> str:
    # prec 0 = full, 1 = application spine, 2 = atom
    out = _Out(float("inf"))
    _write(t, prec, {}, out)
    return "".join(out.parts)


def _write(t: Term, prec: int, env: dict[str, str], out: _Out) -> None:
    """Print ``t`` into ``out`` with its free variables renamed by ``env``,
    binders shadowing it as in ``rename_vars``; ``prec`` as in
    ``show_term``."""
    put = out.put
    match t:
        case Var(name):
            put(env.get(name) or name)
        case ArrName(name):
            put(name)
        case IntLit(value):
            put(str(value))
        case Lam(m, x, a, body):
            put("(" if prec > 0 else "")
            put(f"\\[{show_mult(m)}] {x} : {show_type(a)} . ")
            _write(body, 0, _without(env, (x,)), out)
            put(")" if prec > 0 else "")
        case MultLam(p, body):
            put("(" if prec > 0 else "")
            put(f"/\\{p} . ")
            _write(body, 0, env, out)
            put(")" if prec > 0 else "")
        case App(fun, arg):
            put("(" if prec > 1 else "")
            _write(fun, 1, env, out)
            put(" ")
            _write(arg, 2, env, out)
            put(")" if prec > 1 else "")
        case MultApp(fun, m):
            put("(" if prec > 1 else "")
            _write(fun, 1, env, out)
            put(f" @[{show_mult(m)}]")
            put(")" if prec > 1 else "")
        case Con(name, targs, margs, args):
            paren = prec > 1 and bool(args or targs or margs)
            put("(" if paren else "")
            put(name + _insts(targs, margs))
            for a in args:
                put(" ")
                _write(a, 2, env, out)
            put(")" if paren else "")
        case Prim(name, args):
            put(f"{name}(")
            for i, a in enumerate(args):
                put(", " if i else "")
                _write(a, 0, env, out)
            put(")")
        case Case(m, scrut, branches):
            put("(" if prec > 0 else "")
            put(f"case[{show_mult(m)}] ")
            _write(scrut, 1, env, out)
            put(" of { ")
            for i, b in enumerate(branches):
                head = " ".join((b.con, *b.binders))
                put(f"{' ; ' if i else ''}{head} -> ")
                _write(b.body, 0, _without(env, b.binders), out)
            put(" }")
            put(")" if prec > 0 else "")
        case Let(m, binds, body):
            put("(" if prec > 0 else "")
            put(f"let[{show_mult(m)}] ")
            inner = _without(env, [b.var for b in binds])
            for i, b in enumerate(binds):
                ann = "" if b.var_ty is None else f" : {show_type(b.var_ty)}"
                put(f"{' , ' if i else ''}{b.var}{ann} = ")
                _write(b.rhs, 0, inner if t.rec else env, out)
            put(" in ")
            _write(body, 0, inner, out)
            put(")" if prec > 0 else "")
        case ArrayLit(elems, _, frozen_tag):
            tag = "frozen" if frozen_tag else "mutable"
            put(f"<{tag} array [{' '.join(env.get(e, e) for e in elems)}]>")
        case _:
            raise AssertionError(t)


def show_datadecl(d: DataDecl) -> str:
    head = "data " + d.name
    if d.mult_params:
        head += " " + " ".join(d.mult_params)
    if d.type_params:
        head += " (" + " ".join(d.type_params) + ")"
    cons = " ; ".join(_show_condecl(d, c) for c in d.constructors)
    return f"{head} where {{ {cons} }}"


def _show_condecl(d: DataDecl, c: ConDecl) -> str:
    result: Type = TData(d.name,
                         tuple(MVar(p) for p in d.mult_params),
                         tuple(TVar(a) for a in d.type_params))
    sig = result
    for field_ty, field_mult in reversed(c.fields):
        sig = TArrow(field_ty, field_mult, sig)
    return f"{c.name} : {show_type(sig)}"


def show_def(name: str, ty: Type, mult: MultExpr, body: Term) -> str:
    return f"def {name} : {show_type(ty)} =[{show_mult(mult)}] {show_term(body)}"


def show_program(decls: list[DataDecl],
                 defs: list[tuple[str, Type, MultExpr, Term]],
                 main: Term) -> str:
    lines = [show_datadecl(d) for d in decls]
    lines += [show_def(*d) for d in defs]
    lines.append(f"main = {show_term(main)}")
    return "\n".join(lines) + "\n"


def summarize(t: Term, env: Optional[dict[str, str]] = None,
              limit: int = 60) -> str:
    """One-line redex summary for traces and error reports: ``t`` with its
    free variables renamed by ``env``, as ``show_term(rename_vars(t,
    env))`` prints it, cut to ``limit`` characters.  Printing stops once
    the text is longer than that, so a summary costs O(limit), not the
    size of ``t``."""
    out = _Out(limit)
    try:
        _write(t, 0, env or {}, out)
    except _Full:
        pass
    s = "".join(out.parts)
    return s if len(s) <= limit else s[: limit - 3] + "..."
