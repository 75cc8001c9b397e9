"""The definition of state well-typedness, run from scratch: the oracle
that ``lqlang.statecheck``'s running totals are checked against.

A state is well-typed when its encoding typechecks.  The environment
becomes nested lets at the binding multiplicities, one let per run of live
bindings of one group, and the focus plus the stack become a chain of
left-weighted pairs whose constructor consumes its left component at the
entry's demand (``encode_state``, which builds each closure into a term).
``reference_welltyped`` infers the whole encoding with no inference memo,
in the state's context with two internal datatypes added
(``with_internal_decls``); it keeps only each run's built terms
(``_RunMemo``).  It gives a verdict on every state, the ones the running
totals cannot represent included.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional

from lqlang.diagnostics import CheckError
from lqlang.runtime import Clo
from lqlang.statecheck import AnnState, SEntry
from lqlang.syntax import (Con, ConDecl, DataDecl, Let, LetBind, MVar,
                           MultExpr, OMEGA, ONE, TData, TVar, Term, Type)
from lqlang.typecheck import TypeEnv, infer, type_equiv

# Internal datatypes for the state encoding: a unit type and left-weighted
# pairs, whose constructor consumes the left component at multiplicity p
# and the right component exactly once.
UNIT_DECL = DataDecl("%Unit", (), (), (ConDecl("%MkUnit", ()),))
WPAIR_DECL = DataDecl(
    "%WPair", ("p",), ("a", "b"),
    (ConDecl("%MkWPair", ((TVar("a"), MVar("p")), (TVar("b"), ONE))),))

UNIT_TY = TData("%Unit", (), ())
UNIT_VAL = Con("%MkUnit", (), (), (), ty=UNIT_TY)

_GROUP = operator.attrgetter("group")


@dataclass
class _RunMemo:
    """What the reference keeps for the states of one run.  They share one
    context object ``xi``, which the machine extends in place, so ``env``,
    that context with the internal datatypes, shares its variables.
    ``built`` holds each closure with its built term, by closure identity;
    holding the closure keeps its id from being reused while it is kept."""
    xi: TypeEnv
    env: TypeEnv
    built: dict[int, tuple[Clo, Term]] = field(default_factory=dict)


_memo: Optional[_RunMemo] = None


def with_internal_decls(env: TypeEnv) -> TypeEnv:
    decls = dict(env.decls)
    cons = dict(env.cons)
    for d in (UNIT_DECL, WPAIR_DECL):
        decls[d.name] = d
        for c in d.constructors:
            cons[c.name] = (d, c)
    return dataclasses.replace(env, decls=decls, cons=cons)


def _run_memo(xi: TypeEnv) -> _RunMemo:
    """The memo for the run whose context is ``xi``; a state in another
    context starts a new one."""
    global _memo
    if _memo is None or _memo.xi is not xi:
        _memo = _RunMemo(xi, with_internal_decls(xi))
    return _memo


def _wrap(entry_term: Term, entry_demand: MultExpr, entry_ty: Type,
          rest: Term, rest_ty: Type) -> tuple[Term, Type]:
    ty = TData("%WPair", (entry_demand,), (entry_ty, rest_ty))
    term = Con("%MkWPair", (entry_ty, rest_ty), (entry_demand,),
               (entry_term, rest), ty=ty)
    return term, ty


def stack_entries(top: Optional[SEntry]) -> Iterator[SEntry]:
    """The stack from ``top`` down: newest entry first."""
    while top is not None:
        yield top
        top = top.below


def encode_state(s: AnnState) -> tuple[Term, Type]:
    """The state as a closed term and its expected type, each closure
    built, once per run.  Each run of live bindings of one group is one
    let."""
    terms = _run_memo(s.xi).built

    def built(c: Clo) -> Term:
        hit = terms.get(id(c))
        if hit is None:
            hit = terms[id(c)] = (c, c.built())
        return hit[1]

    payload: Term = UNIT_VAL
    payload_ty: Type = UNIT_TY
    # oldest first; newest ends up outermost
    for entry in reversed(list(stack_entries(s.stack))):
        payload, payload_ty = _wrap(built(entry.term), entry.demand,
                                    entry.ty, payload, payload_ty)
    term, ty = _wrap(built(s.focus), s.demand, s.focus_ty, payload,
                     payload_ty)

    live = [b for b in s.env if not b.forcing]
    for run in reversed([list(run) for _, run in
                         itertools.groupby(live, _GROUP)]):
        mult = ONE if run[0].linear else OMEGA
        binds = tuple(LetBind(b.name, b.ty, built(b.term)) for b in run)
        term = Let(mult=mult, binds=binds, body=term, ty=ty)
    return term, ty


def reference_welltyped(s: AnnState) -> bool:
    """The definition of state well-typedness: encode the whole state and
    infer its type from scratch."""
    term, expected = encode_state(s)
    try:
        result = infer(_run_memo(s.xi).env, term)
    except CheckError:
        return False
    return type_equiv(result.ty, expected)
