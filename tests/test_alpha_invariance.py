"""Alpha-invariance: renaming every bound variable apart changes nothing.

The renamer here is the oracle's own.  It does not use ``rename_vars`` or
``Let.rec``: it treats a let group as recursive exactly when its written
multiplicity normalizes to w, which is the scoping rule of the paper.  For
each program (the corpus, ``tests/data`` and generated programs) it renames
every term-variable binder of the elaborated program to a fresh name and
checks that the verdict, each semantics' outcome and step count, and each
semantics' forced value stay the same.
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
from lqlang.pretty import show_type
from lqlang.syntax import (Case, Lam, Let, MVar, Term, Var, map_children,
                           subterms)
from lqlang.translate import to_sharing
from lqlang.typecheck import check_program, elaborate_defs

from conftest import CORPUS, DATA, load_corpus

FUEL = 2_000
FILES = sorted(CORPUS.rglob("*.lq")) + sorted(DATA.glob("*.lq"))


def rename_apart(t: Term) -> Term:
    """``t`` with every bound term variable renamed to a fresh name.  The
    fresh names contain ``~``, which no identifier does."""
    counter = itertools.count()

    def fresh(x: str) -> str:
        return f"{x}~{next(counter)}"

    def go(t: Term, scope: dict[str, str]) -> Term:
        match t:
            case Var(name):
                return replace(t, name=scope.get(name, name))
            case Lam(_, x, _, body):
                inner = {**scope, x: fresh(x)}
                return replace(t, var=inner[x], body=go(body, inner))
            case Case(_, scrut, branches):
                new = []
                for b in branches:
                    inner = {**scope, **{y: fresh(y) for y in b.binders}}
                    new.append(replace(
                        b, binders=tuple(inner[y] for y in b.binders),
                        body=go(b.body, inner)))
                return replace(t, scrut=go(scrut, scope), branches=tuple(new))
            case Let(m, binds, body):
                inner = {**scope, **{b.var: fresh(b.var) for b in binds}}
                rhs_scope = inner if mult_normalize(m) == NF_OMEGA else scope
                return replace(
                    t, binds=tuple(replace(b, var=inner[b.var],
                                           rhs=go(b.rhs, rhs_scope))
                                   for b in binds),
                    body=go(body, inner))
            case _:
                return map_children(t, lambda s: go(s, scope))

    return go(t, {})


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
    return ("accepted", show_type(checked.ty)), runs


def assert_alpha_invariant(decls, program: Term) -> None:
    verdict, runs = observe(decls, program)
    renamed_verdict, renamed_runs = observe(decls, rename_apart(program))
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


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_files_are_alpha_invariant(prelude, path):
    sf = load_corpus(path, prelude)
    assert_alpha_invariant(sf.decls, elaborate_defs(sf.defs, sf.main))


def test_generated_programs_are_alpha_invariant():
    for seed in range(200):
        prog = gen_welltyped(GenConfig(seed=seed))
        assert_alpha_invariant(prog.decls,
                               elaborate_defs(prog.defs, prog.main))
