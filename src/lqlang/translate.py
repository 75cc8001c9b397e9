"""Type-directed sharing translation.

Rewrites a typed term so that every application, constructor and primitive
argument is a variable; laziness then amounts to heap bindings.  A
non-variable application argument is let-bound at the arrow multiplicity
recorded on the application node; constructor and primitive arguments are
let-bound at their declared field/argument multiplicities.  Arguments that
are already variables pass through unchanged, which makes the translation
idempotent.

The translation also records, on every let binding of the form it returns,
the free variables of the binding's right-hand side (``LetBind.fv``), in
one walk after the rewrite.  These are the lists a let step cuts its
closures' environments down to (``runtime.Machine.trim``), so neither
evaluator walks the program at run time.
"""

from __future__ import annotations

from .syntax import (App, Con, Let, LetBind, MultExpr, Prim, Term, Var,
                     _with, map_children, record_free_vars, subterms)
from .typecheck import PRIM_ARG_MULTS, TypeEnv, instantiate_con

FRESH_PREFIX = "%s"  # unutterable in surface syntax


def to_sharing(t: Term, env: TypeEnv,
               untyped_arrow_mult: MultExpr | None = None) -> Term:
    """Translate an annotated term (as ``annotate`` leaves it) into sharing
    form, with each let binding's free-variable list recorded.  Fresh
    names are drawn deterministically from a reserved namespace, so equal
    inputs give equal outputs.

    ``untyped_arrow_mult`` is a fallback for un-annotated application
    nodes; it is only used when translating deliberately unchecked
    programs for the in-place evaluator, which ignores let multiplicities
    anyway.
    """
    counter = 0

    def fresh() -> str:
        nonlocal counter
        name = f"{FRESH_PREFIX}{counter}"
        counter += 1
        return name

    def saturate(t: Term, args: tuple[Term, ...],
                 mults: list[MultExpr]) -> Term:
        new_args: list[Term] = []
        lets: list[tuple[str, Term, MultExpr]] = []
        for arg, mult in zip(args, mults):
            if isinstance(arg, Var):
                new_args.append(arg)
            else:
                y = fresh()
                lets.append((y, go(arg), mult))
                new_args.append(Var(y, ty=arg.ty))
        core = _with(t, args=tuple(new_args))
        for y, rhs, mult in reversed(lets):
            core = Let(mult=mult, binds=(LetBind(y, rhs.ty, rhs),),
                       body=core, ty=t.ty)
        return core

    def go(t: Term) -> Term:
        match t:
            case App(fun, arg) if not isinstance(arg, Var):
                fun2 = go(fun)  # before the argument draws its fresh name
                mult = t.mult_ann if t.mult_ann is not None \
                    else untyped_arrow_mult
                assert mult is not None, "translation needs a typed term"
                y = fresh()
                rhs = go(arg)
                app = _with(t, fun=fun2, arg=Var(y, ty=arg.ty))
                return Let(mult=mult,
                           binds=(LetBind(y, arg.ty, rhs),),
                           body=app, ty=t.ty)
            case Con(name, targs, margs, args) if args:
                fields, _ = instantiate_con(env, name, targs, margs, t.loc)
                return saturate(t, args, [fm for _, fm in fields])
            case Prim(name, args):
                return saturate(t, args, list(PRIM_ARG_MULTS[name]))
            case _:
                return map_children(t, go)

    return record_free_vars(go(t))


def is_sharing(t: Term) -> bool:
    """Every application/constructor/primitive argument is a variable."""
    for s in subterms(t):
        match s:
            case App(_, arg):
                if not isinstance(arg, Var):
                    return False
            case Con(_, _, _, args) | Prim(_, args):
                if not all(isinstance(a, Var) for a in args):
                    return False
            case _:
                pass
    return True
