"""Evaluation writes no node.

Term nodes are slotted records that nothing freezes at run time: after a
node is built, only the checker, the sharing translation and
``Let.__post_init__`` set its fields (see ``lqlang.syntax``).  This test
stands in for a runtime guard: it records every field of every node of a
checked program and of its sharing form, runs both evaluators and the
observers of their results over them, and asserts that every field still
holds the same object.
"""

import dataclasses

from lqlang.eval_ordinary import Heap, eval_term
from lqlang.eval_pure import eval_pure, initial_state
from lqlang.harness import deep_force_ordinary, deep_force_pure
from lqlang.runtime import Clo
from lqlang.syntax import Branch, Let, LetBind, Term, subterms
from lqlang.translate import to_sharing

from conftest import checked_programs

FUEL = 100_000


def _snapshot(t: Term) -> list:
    """Every node under ``t`` (terms, branches, let bindings) with the
    object each of its fields holds, annotations and ``rec`` included."""
    out, todo, seen = [], [t], set()
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        values = [(f.name, getattr(node, f.name))
                  for f in dataclasses.fields(node)]
        out.append((node, values))
        for _, v in values:
            for x in v if type(v) is tuple else (v,):
                if isinstance(x, (Term, Branch, LetBind)):
                    todo.append(x)
    return out


def _changed(snapshot: list) -> list[str]:
    return [f"{type(node).__name__}.{name}"
            for node, values in snapshot for name, v in values
            if getattr(node, name) is not v]


def _observe(checked, sh) -> None:
    """Both evaluators in every mode, both deep forces, and a closure
    built back into a term for every let binding."""
    ores = eval_term(Heap(), sh, FUEL)
    eval_term(Heap(), sh, FUEL, want_trace=True)
    if ores.outcome.is_value:
        deep_force_ordinary(ores, ores.outcome.value, FUEL)
    for kw in ({}, {"check": True}, {"want_trace": True}):
        pres = eval_pure(initial_state(sh, checked.ty, checked.env), FUEL,
                         **kw)
        if pres.outcome.is_value:
            deep_force_pure(pres, pres.outcome.value, checked.env, FUEL)
    for s in subterms(sh):
        if type(s) is Let:
            for b in s.binds:
                Clo(b.rhs, {x: f"{x}'" for x in b.fv}).built()


def test_evaluation_changes_no_node(prelude):
    runs = 0
    for name, checked in checked_programs(prelude, 50):
        sh = to_sharing(checked.term, checked.env)
        snapshot = _snapshot(checked.term) + _snapshot(sh)
        _observe(checked, sh)
        assert not _changed(snapshot), (name, _changed(snapshot)[:5])
        runs += 1
    assert runs > 50
