"""Type-directed sharing translation.

Rewrites a typed term so that every application, constructor and primitive
argument is a variable; laziness then amounts to heap bindings.  A
non-variable application argument is let-bound at the arrow multiplicity
recorded on the application node; constructor and primitive arguments are
let-bound at their declared field/argument multiplicities.  Arguments that
are already variables pass through unchanged, which makes the translation
idempotent.

The rewrite is one post-order walk on an explicit stack, so no nesting
depth meets Python's recursion limit.  Each finished subterm gives its
sharing form and its free variables in first-occurrence order, and each
let binding of the result gets the list of its right-hand side
(``LetBind.fv``) when the walk builds it, as in Sestoft's compile-time
pass (JFP 1997).  These are the lists a let step cuts its closures'
environments down to (``runtime.Machine.trim``), so neither evaluator
walks the program at run time.
"""

from __future__ import annotations

from itertools import count

from . import syntax
from .syntax import (App, Con, IntLit, Let, LetBind, MultExpr, Prim, Term,
                     Var, join_free_vars, subterms, with_children)
from .typecheck import PRIM_ARG_MULTS, TypeEnv, con_field_mults

FRESH_PREFIX = "%s"  # unutterable in surface syntax

# A finished subterm on the walk's stack: its sharing form and its free
# variables in first-occurrence order.
Done = tuple[Term, tuple[str, ...]]


def to_sharing(t: Term, env: TypeEnv,
               untyped_arrow_mult: MultExpr | None = None) -> Term:
    """Translate an annotated term (as ``annotate`` leaves it) into sharing
    form, each let binding with its free-variable list.  Fresh names are
    drawn deterministically from a reserved namespace, in the order of a
    left-to-right walk: an application's function before its argument's
    name, and each argument's name just before the argument.  So equal
    inputs give equal outputs.

    ``untyped_arrow_mult`` is a fallback for un-annotated application
    nodes; it is only used when translating deliberately unchecked
    programs for the in-place evaluator, which ignores let multiplicities
    anyway.
    """
    fresh = map(f"{FRESH_PREFIX}{{}}".format, count()).__next__
    # finished subterms, each let-bound argument after its fresh name
    done: list = []
    # subterms to enter, [argument] for an argument to let-bind (its fresh
    # name is drawn as it is entered), and (node, len(done), multiplicities)
    # to finish
    todo: list = [t]
    while todo:
        s = todo.pop()
        cls = type(s)
        if cls is tuple:  # done[h:] are what the node's children gave
            s, h, mults = s
            parts = done[h:]
            del done[h:]
            if mults is None:
                done.append(_rebuilt(s, parts))
            elif type(s) is App:
                done.append(_bound_argument(s, parts, mults))
            else:
                done.append(_saturated(s, parts, mults))
            continue
        if cls is list:
            done.append(fresh())
            s = s[0]
            cls = type(s)
        kids = syntax.children(s)
        if not kids:
            done.append((s, () if cls is IntLit else join_free_vars(s, [])))
        elif cls is App and type(kids[1]) is not Var:
            mult = s.mult_ann if s.mult_ann is not None \
                else untyped_arrow_mult
            assert mult is not None, "translation needs a typed term"
            todo += (s, len(done), mult), [kids[1]], kids[0]
        elif cls is Prim or cls is Con:
            mults = (PRIM_ARG_MULTS[s.name] if cls is Prim else
                     con_field_mults(env, s.name, s.type_args, s.mult_args,
                                     s.loc))
            todo.append((s, len(done), mults))
            todo.extend([[arg] for arg in reversed(kids[:len(mults)])
                         if type(arg) is not Var])
        else:
            todo.append((s, len(done), None))
            todo.extend(reversed(kids))
    [(sharing, _)] = done
    return sharing


def _rebuilt(t: Term, parts: list[Done]) -> Done:
    """``t`` over its finished children; a let's bindings get their
    lists."""
    node = with_children(t, [kid for kid, _ in parts])
    fvs = [fv for _, fv in parts]
    if type(node) is Let:
        for b, fv in zip(node.binds, fvs):
            b.fv = fv
    return node, join_free_vars(node, fvs)


def _bound_argument(app: App, parts: list, mult: MultExpr) -> Done:
    """``let[mult] y = arg in fun y`` from ``app``'s finished function, its
    argument's fresh name ``y`` and its finished argument."""
    (fun, fun_fv), y, (rhs, rhs_fv) = parts
    body = with_children(app, (fun, Var(y, ty=rhs.ty)))
    return _let(mult, y, rhs, rhs_fv, body, (*fun_fv, y))


def _saturated(t: Term, parts: list, mults: tuple[MultExpr, ...]) -> Done:
    """The constructor or primitive ``t`` applied to variables only.  Each
    argument that is not a variable is finished in ``parts``, after its
    fresh name, and let-bound around ``t`` at its multiplicity."""
    args, lets = [], []
    entries = iter(parts)
    for arg, mult in zip(syntax.children(t), mults):
        if type(arg) is not Var:
            y = next(entries)
            rhs, rhs_fv = next(entries)
            lets.append((y, rhs, rhs_fv, mult))
            arg = Var(y, ty=rhs.ty)
        args.append(arg)
    body = with_children(t, args)
    fv = tuple(dict.fromkeys([arg.name for arg in args]))
    for y, rhs, rhs_fv, mult in reversed(lets):
        body, fv = _let(mult, y, rhs, rhs_fv, body, fv)
    return body, fv


def _let(mult: MultExpr, y: str, rhs: Term, rhs_fv: tuple[str, ...],
         body: Term, body_fv: tuple[str, ...]) -> Done:
    """``let[mult] y = rhs in body``, at ``body``'s type, and its free
    variables as ``join_free_vars`` gives them."""
    let = Let(mult, (LetBind(y, rhs.ty, rhs, fv=rhs_fv),), body, ty=body.ty)
    if y in body_fv:
        body_fv = tuple([x for x in body_fv if x != y])
    if let.rec and y in rhs_fv:
        rhs_fv = tuple([x for x in rhs_fv if x != y])
    if not rhs_fv or not body_fv:
        return let, rhs_fv or body_fv
    return let, tuple(dict.fromkeys(rhs_fv + body_fv))


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
