"""Alpha-invariance: renaming every bound variable apart changes nothing.

The renamer here is the oracle's own.  It does not use ``rename_vars``,
``term_subst_mult`` or ``Let.rec``: it treats a let group as recursive
exactly when its written multiplicity normalizes to w, which is the scoping
rule of the paper.  For each program (the corpus, ``tests/data`` and
generated programs) it renames every term-variable binder and every
multiplicity binder (``/\\p``) of the elaborated program to a fresh name, and
checks that the verdict, each semantics' outcome and step count, and each
semantics' forced value stay the same.  An accepted program's type is
compared with ``type_equiv``, since its printed binder names change.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from lqlang.diagnostics import CheckError
from lqlang.eval_ordinary import Heap, eval_term
from lqlang.eval_pure import eval_pure, initial_state
from lqlang.harness import (GenConfig, deep_force_ordinary, deep_force_pure,
                            gen_welltyped)
from lqlang.multiplicity import NF_OMEGA, mult_normalize
from lqlang.syntax import (INT, Case, Con, Lam, Let, MProd, MSum, MVar,
                           MultApp, MultExpr, MultLam, TArray, TArrow, TData,
                           TForall, TMArray, Term, Type, Var, children,
                           subterms, with_children)
from lqlang.translate import to_sharing
from lqlang.typecheck import check_program, elaborate_defs, type_equiv

from conftest import CORPUS, DATA, load_corpus

FUEL = 2_000
FILES = sorted(CORPUS.rglob("*.lq")) + sorted(DATA.glob("*.lq"))


def rename_mult(m: MultExpr, ren: dict[str, str]) -> MultExpr:
    """``m`` with its multiplicity variables renamed by ``ren``."""
    match m:
        case MVar(name):
            return MVar(ren.get(name, name))
        case MSum(a, b):
            return MSum(rename_mult(a, ren), rename_mult(b, ren))
        case MProd(a, b):
            return MProd(rename_mult(a, ren), rename_mult(b, ren))
        case _:
            return m


def rename_type(ty: Type, ren: dict[str, str]) -> Type:
    """``ty`` with its free multiplicity variables renamed by ``ren``; a
    ``forall`` shadows its binder.  The new names are fresh, so none is
    captured."""
    match ty:
        case TArrow(a, m, b):
            return TArrow(rename_type(a, ren), rename_mult(m, ren),
                          rename_type(b, ren))
        case TForall(p, body):
            return TForall(p, rename_type(
                body, {q: new for q, new in ren.items() if q != p}))
        case TData(name, margs, targs):
            return TData(name, tuple(rename_mult(m, ren) for m in margs),
                         tuple(rename_type(a, ren) for a in targs))
        case TMArray(a):
            return TMArray(rename_type(a, ren))
        case TArray(a):
            return TArray(rename_type(a, ren))
        case _:
            return ty


def rename_apart(t: Term) -> Term:
    """``t`` with every bound term variable and multiplicity variable
    renamed to a fresh name.  The fresh names contain ``~``, which no
    identifier does."""
    counter = itertools.count()

    def fresh(x: str) -> str:
        return f"{x}~{next(counter)}"

    def go(t: Term, scope: dict[str, str], ms: dict[str, str]) -> Term:
        match t:
            case Var(name):
                return replace(t, name=scope.get(name, name))
            case Lam(m, x, a, body):
                inner = {**scope, x: fresh(x)}
                return replace(t, mult=rename_mult(m, ms), var=inner[x],
                               var_ty=rename_type(a, ms),
                               body=go(body, inner, ms))
            case Case(m, scrut, branches):
                new = []
                for b in branches:
                    inner = {**scope, **{y: fresh(y) for y in b.binders}}
                    new.append(replace(
                        b, binders=tuple(inner[y] for y in b.binders),
                        body=go(b.body, inner, ms)))
                return replace(t, mult=rename_mult(m, ms),
                               scrut=go(scrut, scope, ms),
                               branches=tuple(new))
            case Let(m, binds, body):
                inner = {**scope, **{b.var: fresh(b.var) for b in binds}}
                rhs_scope = inner if mult_normalize(m) == NF_OMEGA else scope
                return replace(
                    t, mult=rename_mult(m, ms),
                    binds=tuple(replace(b, var=inner[b.var],
                                        var_ty=rename_type(b.var_ty, ms),
                                        rhs=go(b.rhs, rhs_scope, ms))
                                for b in binds),
                    body=go(body, inner, ms))
            case MultLam(p, body):
                inner = {**ms, p: fresh(p)}
                return replace(t, param=inner[p], body=go(body, scope, inner))
            case MultApp(fun, m):
                return replace(t, fun=go(fun, scope, ms),
                               mult=rename_mult(m, ms))
            case Con(_, targs, margs, args):
                return replace(
                    t, type_args=tuple(rename_type(a, ms) for a in targs),
                    mult_args=tuple(rename_mult(m, ms) for m in margs),
                    args=tuple(go(a, scope, ms) for a in args))
            case _:
                return with_children(t, [go(k, scope, ms)
                                         for k in children(t)])

    return go(t, {}, {})


def observe(decls, program: Term):
    """The verdict on ``program``, and for an accepted program each
    semantics' outcome, step count and forced value."""
    try:
        checked = check_program(decls, [], program)
    except CheckError as exc:
        return ("rejected", [(d.kind, d.loc) for d in exc.diagnostics]), []
    sharing = to_sharing(checked.term, checked.env)
    ores = eval_term(Heap(), sharing, FUEL)
    pres = eval_pure(initial_state(sharing, checked.ty, checked.env), FUEL)
    runs = []
    for res, force in (
            (ores, lambda v: deep_force_ordinary(ores, v, FUEL)),
            (pres, lambda v: deep_force_pure(pres, v, checked.env, FUEL))):
        o = res.outcome
        runs.append((o.kind, o.reason, o.rule, o.location, o.steps,
                     force(o.value) if o.is_value else None))
    return ("accepted", checked.ty), runs


def assert_alpha_invariant(decls, program: Term) -> None:
    verdict, runs = observe(decls, program)
    renamed_verdict, renamed_runs = observe(decls, rename_apart(program))
    if verdict[0] == renamed_verdict[0] == "accepted":
        assert type_equiv(renamed_verdict[1], verdict[1]), "type changed"
    else:
        assert renamed_verdict == verdict
    for run, renamed in zip(runs, renamed_runs, strict=True):
        assert renamed[:5] == run[:5], "outcome or step count changed"
        assert renamed[5] == run[5], "forced value changed"


def test_rename_apart_follows_the_written_scope(prelude):
    sf = load_corpus(DATA / "poly_let_scope.lq", prelude)
    program = rename_apart(elaborate_defs(sf.defs, sf.main))
    assert all("~" in s.name for s in subterms(program)
               if isinstance(s, Var))
    # the let[p] group is not recursive: its right-hand side reads the
    # lambda's x
    lam = next(s for s in subterms(program)
               if isinstance(s, Lam) and s.var.startswith("x~"))
    let = next(s for s in subterms(program)
               if isinstance(s, Let) and isinstance(s.mult, MVar))
    (bind,) = let.binds
    assert bind.var != lam.var
    assert [s.name for s in subterms(bind.rhs)
            if isinstance(s, Var)] == [lam.var]
    # the multiplicity binder too, at each of its occurrences
    (mlam,) = [s for s in subterms(program) if isinstance(s, MultLam)]
    assert mlam.param.startswith("p~")
    g = next(s for s in subterms(program)
             if isinstance(s, Lam) and s.var.startswith("g~"))
    assert let.mult == g.var_ty.mult == MVar(mlam.param)
    # a forall in a type shadows
    p_ty = TArrow(INT, MVar("p"), INT)
    assert rename_type(p_ty, {"p": "p~0"}) is TArrow(INT, MVar("p~0"), INT)
    assert rename_type(TForall("p", p_ty), {"p": "p~0"}) is TForall("p", p_ty)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_files_are_alpha_invariant(prelude, path):
    sf = load_corpus(path, prelude)
    assert_alpha_invariant(sf.decls, elaborate_defs(sf.defs, sf.main))


def test_generated_programs_are_alpha_invariant():
    for seed in range(200):
        prog = gen_welltyped(GenConfig(seed=seed))
        assert_alpha_invariant(prog.decls,
                               elaborate_defs(prog.defs, prog.main))
