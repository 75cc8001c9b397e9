"""The pure big-step semantics over annotated states.

States carry full type information: an ambient context (types for
variables whose bindings are currently, or were, under evaluation), an
ordered typed environment, a focused term with the demand (1 or w) at
which it is being consumed, and a stack describing the rest of the
computation.  Arrays are plain values here: ``write`` returns a fresh
copy, ``freeze`` retags, and nothing is mutated in place.

The machine evaluates closures (``runtime.Clo``) rather than substituting:
environment bindings, stack entries, the focus and values are terms under
an environment from source binders to environment names, and beta, case
and let extend that environment.  The machine's state is made of the
records an ``AnnState`` holds: its bindings are ``EnvBind``s, found by name
in a dict and linked in state order, its stack entries are ``SEntry``s
linked by ``below``, and its ambient context is one ``TypeEnv`` that the
shared variable rule extends.  Inserting a binding before the one being
forced, removing a consumed one and pushing an entry are O(1), and
``snapshot`` reads a state off the machine without copying or listing a
binding, an entry, the context or a term; names, steps and traces are
those of substitution.

Linear bindings are removed from the environment when forced and forcing
them at demand w blocks; on well-typed programs neither a removed binding
nor a w-demanded linear binding is ever encountered, which is exactly what
the progress suite checks.

A state is well-typed when its encoding typechecks: the environment
becomes nested lets at the binding multiplicities, and the focus plus the
stack become a chain of left-weighted pairs whose constructor consumes its
left component at the entry's demand (``encode_state``, which builds each
closure into a term).  ``reference_welltyped`` is that definition, run from
scratch.  ``state_welltyped`` gives the same verdict without re-typing the
whole state: a ``CheckCache`` keeps the type and usage of every state
closure it has typed, keyed by identity, so each binding, focus and stack
closure of a run is typed once.  A closure is typed as its source term,
each environment binder at the type of the name it stands for, and its
usage renamed back.  The cache is also ``infer``'s memo for
the run, keyed by source subterm, so a subterm of the program is typed
again only when one of its free variables has another type; each case node
has one frame per run for the same reason.  A state in general is judged
by a fold over it that compares each cached type with the expected one,
checks scope from the usage keys, and replays the let rule over the
binding groups, innermost first, on the cached usages.  A checking
machine keeps that verdict as running totals instead (``_Totals``),
updated from the bindings it inserts, removes, forces and updates and
from the stack entries pushed and popped since the last check, so that a
check of its current state costs what changed.  ``instrumented_eval``
runs the check, with one cache per run, at the conclusion of every rule
application; in a tail chain of rules the conclusion states coincide, so
one check covers the chain.

Two readings of the array rules are fixed here and documented in the
README: the continuation of ``newMArray`` is run at demand 1 expecting an
Unrestricted result, and ``freeze`` binds the frozen array as an
unrestricted binding (frozen arrays are shareable; a linear binding would
make repeated indexing block and would leave an unconsumable binding
behind).  The stack entry pushed while a case scrutinee is evaluated is a
one-argument function wrapping the branches, so that the pending branches
are accounted for without guessing which branch will be taken.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .diagnostics import CheckError
from .multiplicity import (NF_OMEGA, NF_ONE, ZERO, Usage, UsageMult,
                           mult_mul, mult_normalize, sub_usage,
                           usage_add_into, usage_scale)
from .pretty import summarize
from .runtime import (BlockReason, Clo, Env, Machine, Outcome, TraceRecord,
                      arith)
from .syntax import (App, ArrayLit, Case, Con, ConDecl, DataDecl, IntLit,
                     Lam, Let, LetBind, MVar, MultApp, MultExpr, MultLam,
                     OMEGA, ONE, Omega, One, Prim, TArray, TArrow, TData, TInt,
                     TMArray, TVar, Term, Type, Var, _with, free_vars,
                     mult_vars, term_subst_mult)
from .typecheck import (_UNBOUND, PRIM_ARG_MULTS, InferMemo, InferResult,
                        TypeEnv, _restore, check_type, infer, type_equiv)

FRESH_PREFIX = "%p"
# the label distance between bindings appended at either end of a machine's
# binding list (``_PState.place``)
_GAP = 1 << 20
# The binder of every case frame: neither a translated binder ("%s...") nor
# a heap name ("%p...").
HOLE = "%hole"

# Internal datatypes for the state encoding: a unit type and left-weighted
# pairs, whose constructor consumes the left component at multiplicity p
# and the right component exactly once.
UNIT_DECL = DataDecl("%Unit", (), (), (ConDecl("%MkUnit", ()),))
WPAIR_DECL = DataDecl(
    "%WPair", ("p",), ("a", "b"),
    (ConDecl("%MkWPair", ((TVar("a"), MVar("p")), (TVar("b"), ONE))),))

UNIT_TY = TData("%Unit", (), ())
UNIT_VAL = Con("%MkUnit", (), (), (), ty=UNIT_TY)


@dataclass(slots=True)
class SEntry:
    """A stack entry: a closure consumed at ``demand`` once the focus is
    done, above the entries ``below`` it, so that a push is O(1).  A case
    frame's closure is None in a run whose states are not checked."""
    term: Optional[Clo]
    demand: MultExpr  # ONE or OMEGA
    ty: Type
    below: Optional[SEntry] = None


@dataclass(slots=True)
class EnvBind:
    """An environment binding.  In a machine the bindings form a doubly
    linked list in state order (``prev``/``next``), so that inserting
    before an anchor and removing are O(1); ``AnnState.env`` lists them."""
    name: str
    linear: bool
    ty: Type
    term: Clo
    group: int
    forcing: bool = False
    # the position in state order, kept only in a machine with running
    # totals (``_PState.place``)
    label: int = field(default=0, init=False, repr=False, compare=False)
    prev: Optional[EnvBind] = field(default=None, repr=False, compare=False)
    next: Optional[EnvBind] = field(default=None, repr=False, compare=False)


@dataclass
class AnnState:
    """A state: the ambient context, the environment in state order, the
    focus with its demand and type, and the newest stack entry.  A state
    read off a running machine (``_PState.snapshot``) shares the machine's
    bindings, stack entries and ambient context, so it must be read before
    the machine moves on, as ``state_welltyped``, the oracle tests' spies
    and ``PreservationViolation`` do; it lists the machine's bindings into
    ``env`` only when ``env`` is first read."""
    xi: TypeEnv
    env: tuple[EnvBind, ...]
    focus: Clo
    demand: MultExpr
    focus_ty: Type
    stack: Optional[SEntry] = None

    def __getattr__(self, name: str):
        machine = self.__dict__.get("machine")
        if name != "env" or machine is None:
            raise AttributeError(name)
        self.env = tuple(machine.ordered())
        return self.env


class PreservationViolation(Exception):
    """A rule application produced an ill-typed state: an evaluator bug."""

    def __init__(self, rule: str, summary: str) -> None:
        super().__init__(f"after rule '{rule}': {summary}")
        self.rule = rule
        self.summary = summary


def with_internal_decls(env: TypeEnv) -> TypeEnv:
    decls = dict(env.decls)
    cons = dict(env.cons)
    for d in (UNIT_DECL, WPAIR_DECL):
        decls[d.name] = d
        for c in d.constructors:
            cons[c.name] = (d, c)
    return dataclasses.replace(env, decls=decls, cons=cons)


def initial_state(term: Term, ty: Type, env: TypeEnv) -> AnnState:
    """Whole-program state: the result of a run is consumed once."""
    xi = dataclasses.replace(with_internal_decls(env), vars={})
    return AnnState(xi=xi, env=(), focus=Clo(term), demand=ONE, focus_ty=ty)


# ---------------------------------------------------------------------------
# State encoding and the well-typedness check

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
    built."""
    payload: Term = UNIT_VAL
    payload_ty: Type = UNIT_TY
    # oldest first; newest ends up outermost
    for entry in reversed(list(stack_entries(s.stack))):
        payload, payload_ty = _wrap(entry.term.built(), entry.demand,
                                    entry.ty, payload, payload_ty)
    term, ty = _wrap(s.focus.built(), s.demand, s.focus_ty, payload,
                     payload_ty)

    live = [b for b in s.env if not b.forcing]
    for group_start in reversed(_group_runs(live)):
        mult = ONE if group_start[0].linear else OMEGA
        binds = tuple(LetBind(b.name, b.ty, b.term.built())
                      for b in group_start)
        term = Let(mult=mult, binds=binds, body=term, ty=ty)
    return term, ty


def _group_runs(binds: list[EnvBind]) -> list[list[EnvBind]]:
    runs: list[list[EnvBind]] = []
    for b in binds:
        if runs and runs[-1][0].group == b.group:
            runs[-1].append(b)
        else:
            runs.append([b])
    return runs


def reference_welltyped(s: AnnState) -> bool:
    """The definition of state well-typedness: encode the whole state and
    infer its type from scratch."""
    term, expected = encode_state(s)
    try:
        result = infer(s.xi, term)
    except CheckError:
        return False
    return type_equiv(result.ty, expected)


@dataclass
class CheckCache(InferMemo):
    """What ``state_welltyped`` keeps between the states of one run; it is
    also the run's memo for ``infer`` (``InferMemo``).

    ``inferred`` maps a state closure's id to the closure, the type and
    the usage of its built term.  ``types`` holds the types that passed
    ``check_type``, by id.  Each entry holds its objects, so their ids
    cannot be reused.  ``names`` keeps the first type seen for each
    variable.  ``totals`` is the running verdict of the checked machine
    the cache belongs to, if it keeps one."""
    inferred: dict[int, tuple[Clo, Type, Usage]] = field(
        default_factory=dict)
    types: dict[int, Type] = field(default_factory=dict)
    names: dict[str, Type] = field(default_factory=dict)
    totals: Optional[_Totals] = None


def state_welltyped(s: AnnState, cache: Optional[CheckCache] = None) -> bool:
    """The verdict of ``reference_welltyped``, computed from one inference
    per closure and run.  ``cache`` must only see states of one run; None
    means a fresh cache.  The current snapshot of a machine that keeps
    running totals is judged from those (``_Totals.check``); any other
    state by a fold over the whole state."""
    if cache is None:
        cache = CheckCache()
    totals = cache.totals
    if totals is not None and s is totals.current:
        return totals.check(s)
    return _fold_welltyped(s, cache)


def _fold_welltyped(s: AnnState, cache: CheckCache) -> bool:
    """``state_welltyped`` by a fold over the whole state: compare each
    cached type with the expected one, check scope from the usage keys,
    and replay the let rule over the binding groups, innermost first."""
    live = [b for b in s.env if not b.forcing]
    if not _fits_cache(s, live, cache):
        return reference_welltyped(s)
    xi = s.xi
    inferred = cache.inferred
    # the %WPair chain, outermost first: the focus, then the stack
    chain = list(stack_entries(SEntry(s.focus, s.demand, s.focus_ty,
                                      s.stack)))
    clos = [b.term for b in live] + [e.term for e in chain]
    missing = {id(c): c for c in clos if id(c) not in inferred}
    if missing:
        # sound in one environment: each name has one type (_fits_cache),
        # and scope is checked below from the usage keys
        vars_ = dict(xi.vars)
        for b in live:
            vars_[b.name] = (b.ty, OMEGA)
        env = TypeEnv(xi.decls, xi.cons, vars_, xi.mult_vars, cache)
        for key, c in missing.items():
            r = _infer_clo(env, c)
            if r is None:
                return False
            inferred[key] = (c, *r)

    groups = _group_runs(live)
    level = {b.name: i for i, group in enumerate(groups) for b in group}

    def use(c: Clo, ty: Type, limit: int) -> Optional[Usage]:
        """The usage of ``c`` if it has type ``ty`` and every free variable
        is in ``xi`` or bound by a group before ``limit``."""
        u = _declared(cache, xi, inferred[id(c)], ty)
        if u is None:
            return None
        for x in u:
            j = level.get(x)
            if (j is None or j >= limit) and x not in xi.vars:
                return None
        return u

    # the %WPair chain: each entry consumed at its demand
    acc: Usage = {}
    for e in chain:
        u = use(e.term, e.ty, len(groups))
        if u is None or mult_vars(e.demand):
            return False
        usage_add_into(acc, usage_scale(e.demand, u))
    # the Let rule, innermost group first; only w groups are recursive
    for i in reversed(range(len(groups))):
        group = groups[i]
        rec = not group[0].linear
        m = OMEGA if rec else ONE
        names = [b.name for b in group]
        rhs: Usage = {}
        for b in group:
            u = use(b.term, b.ty, i + rec)
            if u is None:
                return False
            if rec:
                u = {x: v for x, v in u.items() if x not in names}
            usage_add_into(rhs, u)
        for x in names:
            if not sub_usage(acc.pop(x, ZERO), m):
                return False
        usage_add_into(acc, usage_scale(m, rhs))
    return True


def _declared(cache: CheckCache, xi: TypeEnv, typed: tuple[Clo, Type, Usage],
              ty: Type) -> Optional[Usage]:
    """The usage of a typed closure, if its type is ``ty`` and ``ty`` is
    well-formed."""
    _, t_ty, u = typed
    if not cache.same_type(t_ty, ty):
        return None
    if id(ty) not in cache.types:
        try:
            check_type(xi, ty)
        except CheckError:
            return None
        cache.types[id(ty)] = ty
    return u


_TYPE = operator.itemgetter(0)  # of a (type, multiplicity) binding


def _infer_clo(env: TypeEnv, clo: Clo) -> Optional[tuple[Type, Usage]]:
    """Type and usage of the built term of ``clo`` in ``env``, or None if
    it is ill-typed there.

    The closure's source term is inferred, each of its binders bound in
    place to the type of the name it stands for and restored afterwards,
    so that the memo in ``env`` meets the program's own subterms; its
    usage is then renamed back through the closure's environment.  The
    built term is inferred only when two free variables of the source
    term stand for one name: merging their usages would not be exact,
    since a case join is not additive."""
    vars_ = env.vars
    memo = env.memo
    hit = (memo.entries.get(id(clo.term))
           if memo is not None and not env.mult_vars else None)
    if hit is not None:
        # what ``infer`` would find in the memo, read through the closure's
        # environment without binding its binders
        names = list(map(clo.env.get, hit[3], hit[3]))
        bound = list(map(vars_.get, names))
        if None not in bound:
            usage: Usage = dict(zip(names, hit[2].values()))
            if len(usage) == len(names) and (
                    all(map(operator.is_, map(_TYPE, bound), hit[4]))
                    or all(map(memo.same_type, map(_TYPE, bound), hit[4]))):
                return hit[1], usage
    saved: list[tuple[str, object]] = []
    for x, bound in [(x, vars_.get(y)) for x, y in clo.env.items()]:
        if bound is not None:
            saved.append((x, vars_.get(x, _UNBOUND)))
            vars_[x] = bound
    try:
        r: Optional[InferResult] = infer(env, clo.term)
    except CheckError:
        r = None
    finally:
        _restore(vars_, saved)
    if r is None:
        names = [clo.env.get(x, x) for x in free_vars(clo.term)]
        if len(set(names)) == len(names):
            return None
    else:
        usage = {}
        for x, u in r.usage.items():
            y = clo.env.get(x, x)
            if y not in vars_:
                return None  # out of scope, so the built term fails too
            if y in usage:
                break
            usage[y] = u
        else:
            return r.ty, usage
    try:
        r = infer(env, clo.built())
    except CheckError:
        return None
    return r.ty, r.usage


def _fits_cache(s: AnnState, live: list[EnvBind], cache: CheckCache) -> bool:
    """Can per-term results stand for ``s``?  Yes when no binding shadows
    another and every variable keeps the type it first had in the run, as
    in every state of an evaluator run.  Other states go to the
    reference."""
    xi = s.xi
    if (xi.mult_vars or "%MkWPair" not in xi.cons
            or "%MkUnit" not in xi.cons
            or len({b.name for b in live}) != len(live)):
        return False
    known = cache.names
    for x, ty in [(b.name, b.ty) for b in live] + [
            (x, ty) for x, (ty, _) in xi.vars.items()]:
        first = known.setdefault(x, ty)
        if first is not ty and not type_equiv(first, ty):
            return False
    return True


# a contribution's share of the running totals: its scaled usage at each
# live linear name, and the names it uses out of scope
_Part = tuple[tuple[tuple[str, UsageMult], ...], tuple[str, ...]]


class _Totals:
    """The running verdict of a checked machine: the whole-state fold of
    ``state_welltyped``, kept up to date as the machine changes its
    records, so that a check costs O(change) instead of O(state).

    A machine keeps one only from an empty environment and context, and
    only while each of its groups stays contiguous in state order and no
    unrestricted binding is removed; otherwise the fold takes over for the
    rest of the run.  The fold's runs of bindings are then the groups, and
    it amounts to this.  Each live binding and each entry of the %WPair
    chain (the focus, then the stack) must have its declared type, and
    contributes its usage scaled by the binding's multiplicity or the
    entry's demand.  A name in the ambient context ``xi`` may be used
    anywhere.  Any other name used must be live; a binding must not use a
    name bound after it, nor one of its own group unless the group is w;
    and a live linear name's contributions must sum to exactly 1.

    So only linear names need their contributions counted: ``parts``
    holds, per live linear name, the multiset of its scaled usages, so
    that one can be taken away again.  ``misplaced`` counts, per name, the
    bindings that use it out of scope.  ``applied`` holds each live
    binding's part in these, and ``stack`` each stack entry's, bottom
    first, as of the last check.  The machine marks a binding ``dirty``
    when it inserts, removes, forces or updates it (``_PState.touch``); a
    check reconciles those bindings, diffs the stack against the last
    check's, types only the closures it has not seen, and re-validates
    only the names whose binding, parts or misplaced uses changed."""

    def __init__(self, st: _PState) -> None:
        assert st.cache is not None
        self.st = st
        self.cache = st.cache
        # every name the machine has bound, at its type: the environment
        # closures are typed in
        self.env = TypeEnv(st.xi.decls, st.xi.cons, {}, frozenset(),
                           st.cache)
        self.current: Optional[AnnState] = None  # the machine's snapshot
        self.dirty: dict[int, EnvBind] = {}
        # the bindings put last, by id, until their first check
        self.appended: dict[int, EnvBind] = {}
        self.linear: set[str] = set()  # the live linear names
        self.applied: dict[int, tuple[EnvBind, Clo, _Part]] = {}
        self.focus: tuple = (None, None, None, ((), ()))
        self.stack: list[tuple[SEntry, _Part]] = []
        self.depth: dict[int, int] = {}  # index in ``stack``, by entry id
        self.parts: dict[str, dict[UsageMult, int]] = {}
        self.misplaced: dict[str, int] = {}
        self.changed: set[str] = set()
        self.failing: set[str] = set()

    def check(self, s: AnnState) -> bool:
        """The verdict on ``s``, the machine's current snapshot."""
        binds = self.st.binds
        for b in self.dirty.values():
            name = b.name
            self.changed.add(name)
            self.env.vars[name] = (b.ty, OMEGA)
            if binds.get(name) is b:
                if b.linear:
                    self.linear.add(name)
            elif b.linear:
                self.linear.discard(name)
            else:
                self.cache.totals = None
                return _fold_welltyped(s, self.cache)
        for b in self.dirty.values():
            live = binds.get(b.name) is b and not b.forcing
            appended = self.appended.pop(id(b), None) is b
            old = self.applied.get(id(b))
            if old is not None:
                if live and old[1] is b.term:
                    continue
                del self.applied[id(b)]
                self._take(old[2])
            if live:
                part = self._bind(b, appended)
                if part is None:
                    return self._broken()
                self.applied[id(b)] = (b, b.term, part)
        self.dirty.clear()

        old_focus = self.focus
        if (old_focus[0] is not s.focus or old_focus[1] is not s.demand
                or old_focus[2] is not s.focus_ty):
            self._take(old_focus[3])
            part = self._entry(s.focus, s.focus_ty, s.demand)
            if part is None:
                return self._broken()
            self.focus = (s.focus, s.demand, s.focus_ty, part)

        # entries never change, so the stacks agree below the newest entry
        # the last check also had
        pushed = []
        e = s.stack
        while e is not None:
            k = self.depth.get(id(e))
            if k is not None and self.stack[k][0] is e:
                break
            pushed.append(e)
            e = e.below
        keep = 0 if e is None else self.depth[id(e)] + 1
        while len(self.stack) > keep:
            popped, part = self.stack.pop()
            del self.depth[id(popped)]
            self._take(part)
        for e in reversed(pushed):
            part = self._entry(e.term, e.ty, e.demand)
            if part is None:
                return self._broken()
            self.depth[id(e)] = len(self.stack)
            self.stack.append((e, part))

        for x in self.changed:
            if self._name_ok(x):
                self.failing.discard(x)
            else:
                self.failing.add(x)
        self.changed.clear()
        return not self.failing

    def _typed(self, c: Clo, ty: Type) -> Optional[Usage]:
        """The usage of ``c`` if it has type ``ty`` and uses no name that
        is neither bound nor in the context."""
        inferred = self.cache.inferred
        typed = inferred.get(id(c))
        if typed is None:
            r = _infer_clo(self.env, c)
            if r is None:
                return None
            typed = inferred[id(c)] = (c, *r)
        u = _declared(self.cache, self.st.xi, typed, ty)
        bound = self.st.binds.keys()
        if (u is not None and not u.keys() <= bound
                and not u.keys() - bound <= self.st.xi.vars.keys()):
            return None
        return u

    def _bind(self, b: EnvBind, appended: bool) -> Optional[_Part]:
        u = self._typed(b.term, b.ty)
        if u is None:
            return None
        binds, xi = self.st.binds, self.st.xi.vars
        if appended:
            # put last, so every name it uses was bound before it, or in
            # its group, which is out of its scope if it is linear
            misplaced = [x for x in self._group(b) if x in u and x not in xi
                         ] if b.linear else []
        else:
            misplaced = []
            for x in u.keys() - xi.keys():
                xb = binds[x]
                if (b.linear if xb.group == b.group
                        else xb.label > b.label):
                    misplaced.append(x)
        return self._add(u, ONE if b.linear else OMEGA, tuple(misplaced))

    def _group(self, b: EnvBind) -> list[str]:
        """The names of ``b``'s group, which is contiguous."""
        end = self.st.end
        while b.prev.group == b.group and b.prev is not end:
            b = b.prev
        names = []
        group = b.group
        while b.group == group and b is not end:
            names.append(b.name)
            b = b.next
        return names

    def _entry(self, c: Clo, ty: Type, demand: MultExpr) -> Optional[_Part]:
        u = self._typed(c, ty)
        if u is None or mult_vars(demand):
            return None
        return self._add(u, demand, ())

    def _add(self, u: Usage, scale: MultExpr,
             misplaced: tuple[str, ...]) -> _Part:
        """Count the contribution ``scale * u`` at the live linear names it
        uses and the names it misplaces."""
        parts, changed = self.parts, self.changed
        counted = []
        for x in u.keys() & self.linear:
            v = mult_mul(mult_normalize(scale), u[x])
            p = parts.get(x)
            if p is None:
                p = parts[x] = {}
            p[v] = p.get(v, 0) + 1
            counted.append((x, v))
            changed.add(x)
        for x in misplaced:
            self.misplaced[x] = self.misplaced.get(x, 0) + 1
            changed.add(x)
        return tuple(counted), misplaced

    def _take(self, part: _Part) -> None:
        parts, changed = self.parts, self.changed
        counted, misplaced = part
        for x, v in counted:
            p = parts[x]
            if p[v] > 1:
                p[v] -= 1
            elif len(p) > 1:
                del p[v]
            else:
                del parts[x]
            changed.add(x)
        for x in misplaced:
            n = self.misplaced[x] - 1
            if n:
                self.misplaced[x] = n
            else:
                del self.misplaced[x]
            changed.add(x)

    def _name_ok(self, x: str) -> bool:
        if x in self.st.xi.vars:
            return True
        p = self.parts.get(x)
        b = self.st.binds.get(x)
        if b is None or b.forcing:
            return p is None
        if x in self.misplaced:
            return False
        return not b.linear or (p is not None and p.get(NF_ONE) == 1
                                and len(p) == 1 + (ZERO in p))

    def _broken(self) -> bool:
        """An ill-typed closure: the totals are left half updated, so the
        run's later checks, if any, take the whole-state fold."""
        self.cache.totals = None
        return False


# ---------------------------------------------------------------------------
# The machine

@dataclass
class _PState(Machine):
    xi: TypeEnv  # the ambient context; the shared variable rule extends it
    binds: dict[str, EnvBind] = field(default_factory=dict)
    # sentinel of the binding list: end.next is the first binding
    end: EnvBind = field(default_factory=lambda: EnvBind("", False, TInt(),
                                                         Clo(UNIT_VAL), 0))
    anchors: list[EnvBind] = field(default_factory=list)
    group_counter: int = 0
    array_allocs: int = 0
    array_copies: int = 0
    check: bool = False  # switching it off is final
    check_count: int = 0
    cache: Optional[CheckCache] = None
    # each case node's frame, by id (``case_frame``)
    frames: dict[int, tuple[Case, Lam]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.end.prev = self.end.next = self.end

    def new_group(self) -> int:
        self.group_counter += 1
        return self.group_counter

    def insert(self, bind: EnvBind) -> None:
        """New bindings go just before the innermost binding being forced,
        so that the updated binding can refer to them."""
        at = self.anchors[-1] if self.anchors else self.end
        bind.prev, bind.next = at.prev, at
        at.prev.next = at.prev = bind
        self.binds[bind.name] = bind
        if self.check:
            self.place(bind)

    def remove(self, bind: EnvBind) -> None:
        bind.prev.next, bind.next.prev = bind.next, bind.prev
        del self.binds[bind.name]
        if self.check:
            self.touch(bind)

    def touch(self, bind: EnvBind) -> None:
        """Mark ``bind`` for the running totals' next check: it was
        inserted, removed, forced or updated."""
        totals = self.cache.totals
        if totals is not None:
            totals.dirty[id(bind)] = bind

    def place(self, bind: EnvBind) -> None:
        """Label a binding just inserted, for the running totals.  A
        binding that splits a group ends them: the whole-state fold takes
        over for the rest of the run."""
        totals = self.cache.totals
        if totals is None:
            return
        before, after = bind.prev, bind.next
        if before is not after and before.group == after.group != bind.group:
            self.cache.totals = None
            return
        end = self.end
        if after is end:
            totals.appended[id(bind)] = bind
            bind.label = 0 if before is end else before.label + _GAP
        elif before is end:
            bind.label = after.label - _GAP
        elif after.label - before.label > 1:
            bind.label = (before.label + after.label) // 2
        else:
            self._relabel(bind)
        totals.dirty[id(bind)] = bind

    def _relabel(self, bind: EnvBind) -> None:
        """Spread out the labels of the smallest aligned label range around
        ``bind`` that is sparse enough: at most (4/3)**i bindings in a
        range of 2**i labels.  This is the list labelling of Bender et al.,
        *Two Simplified Algorithms for Maintaining Order in a List* (ESA
        2002): O(log n) labels change per insertion, amortized."""
        end, lo = self.end, bind.prev.label
        left = right = bind
        count, i = 1, 0
        while True:
            i += 1
            base = lo >> i << i
            top = base + (1 << i)
            while left.prev is not end and left.prev.label >= base:
                left = left.prev
                count += 1
            while right.next is not end and right.next.label < top:
                right = right.next
                count += 1
            if count * 3 ** i <= 4 ** i:
                break
        step = (top - base) // count
        for k in range(count):
            left.label = base + k * step
            left = left.next

    def ordered(self) -> Iterator[EnvBind]:
        """The environment in state order."""
        b = self.end.next
        while b is not self.end:
            yield b
            b = b.next

    def case_frame(self, t: Case) -> Lam:
        """The pending branches of ``t`` as a function of its scrutinee,
        ``\\%hole. case %hole of ...``: one per case node and run, so that
        the memo in the check cache sees the same term each time."""
        hit = self.frames.get(id(t))
        if hit is None:
            scrut_ty = t.scrut.ty
            body = _with(t, scrut=Var(HOLE, ty=scrut_ty))
            hit = self.frames[id(t)] = (t, Lam(t.mult, HOLE, scrut_ty, body))
        return hit[1]

    def snapshot(self, focus: Clo, demand: MultExpr, ty: Type,
                 stack: Optional[SEntry]) -> AnnState:
        """The current state; it shares the machine's records and lists
        its bindings only when read (see ``AnnState``)."""
        s = AnnState.__new__(AnnState)
        s.xi, s.focus, s.demand, s.focus_ty, s.stack = (self.xi, focus,
                                                        demand, ty, stack)
        s.machine = self
        if self.cache is not None and self.cache.totals is not None:
            self.cache.totals.current = s
        return s


@dataclass
class PureResult:
    outcome: Outcome
    steps: int
    array_allocs: int
    array_copies: int
    check_count: int
    trace: list[TraceRecord] = field(default_factory=list)
    state: "_PState" = field(repr=False, default=None)  # type: ignore[assignment]

    def linear_bindings(self) -> list[str]:
        return [b.name for b in self.state.ordered() if b.linear]


def _load(s: AnnState, fuel: int, check: bool,
          want_trace: bool) -> _PState:
    """A machine in state ``s``.  The machine links and changes its
    bindings and context, so it takes copies of those in ``s``: evaluation
    never changes a caller's ``AnnState``, and one ``EnvBind`` may be given
    in several states.  The machine never changes a stack entry, so it
    shares ``s.stack``."""
    xi = dataclasses.replace(
        with_internal_decls(s.xi),
        vars={x: (ty, OMEGA) for x, (ty, _) in s.xi.vars.items()})
    st = _PState(xi=xi, fuel=fuel, check=check,
                 cache=CheckCache() if check else None,
                 trace=[] if want_trace else None)
    for b in s.env:
        st.insert(dataclasses.replace(b))
        st.group_counter = max(st.group_counter, b.group)
    if check and not s.env and not xi.vars and not xi.mult_vars:
        st.cache.totals = _Totals(st)
    return st


def _run(st: _PState, s: AnnState) -> PureResult:
    return _finish(st, lambda: _eval(st, s.focus, s.demand, s.focus_ty,
                                     s.stack))


def _finish(st: _PState, run) -> PureResult:
    return PureResult(st.drive(lambda: run().built()), st.steps,
                      st.array_allocs, st.array_copies, st.check_count,
                      st.records, st)


def eval_pure(s: AnnState, fuel: int, want_trace: bool = False,
              check: bool = False) -> PureResult:
    """Evaluate ``s``.  With ``check``, state well-typedness is re-checked
    at the conclusion of every rule application: PreservationViolation on
    the first ill-typed state; the initial state must be well-typed."""
    st = _load(s, fuel, check, want_trace)
    if check and not state_welltyped(s, st.cache):
        raise ValueError("a checked run requires a well-typed initial "
                         "state")
    return _run(st, s)


def instrumented_eval(s: AnnState, fuel: int) -> PureResult:
    """``eval_pure`` with every state checked."""
    return eval_pure(s, fuel, check=True)


def force_pure_variable(prev: PureResult, name: str, demand: MultExpr,
                        fuel: int) -> PureResult:
    """Force one more variable in a finished state (reads constructor
    fields out of a result).  Counters keep accumulating."""
    st = prev.state
    st.fuel = fuel
    b = st.binds.get(name)
    ty = b.ty if b is not None else TInt()
    return _finish(st, lambda: _eval(st, Clo(Var(name, ty=ty)), demand, ty,
                                     None))


# ---------------------------------------------------------------------------
# Rules

def _concrete(st: _PState, m: MultExpr) -> MultExpr:
    match m:
        case One():
            return ONE
        case Omega():
            return OMEGA
    nf = mult_normalize(m)
    if nf == NF_ONE:
        return ONE
    if nf == NF_OMEGA:
        return OMEGA
    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "demand", "",
                     "non-concrete multiplicity reached at runtime")


def _dmul(st: _PState, a: MultExpr, b: MultExpr) -> MultExpr:
    """The concrete product of two multiplicities.  No law removes a
    variable, so a factor that is not concrete blocks as the product
    would."""
    a, b = _concrete(st, a), _concrete(st, b)
    return OMEGA if a is OMEGA or b is OMEGA else ONE


def _ret(st: _PState, rule: str, value: Clo, demand: MultExpr, ty: Type,
         stack: Optional[SEntry]) -> Clo:
    if st.check:
        st.check_count += 1
        ann = st.snapshot(value, demand, ty, stack)
        if not state_welltyped(ann, st.cache):
            raise PreservationViolation(
                rule, f"value {summarize(value.term, value.env)} at "
                      f"demand {'1' if demand == ONE else 'w'} with "
                      f"{len(st.binds)} bindings")
    return value


def _eval(st: _PState, c: Clo, demand: MultExpr, ty: Type,
          stack: Optional[SEntry]) -> Clo:
    while True:
        t, env = c.term, c.env
        match t:
            case Lam():
                st.tick("abs", t, env)
                return _ret(st, "abs", c, demand, ty, stack)
            case MultLam():
                st.tick("m.abs", t, env)
                return _ret(st, "m.abs", c, demand, ty, stack)
            case IntLit():
                st.tick("int", t, env)
                return _ret(st, "int", c, demand, ty, stack)
            case Con():
                st.tick("constructor", t, env)
                return _ret(st, "constructor", c, demand, ty, stack)
            case ArrayLit():
                st.tick("array value", t, env)
                return _ret(st, "array value", c, demand, ty, stack)

            case Var(x):
                x = env.get(x, x)
                b = st.binds.get(x)
                if b is None:
                    raise st.blocked(
                        BlockReason.MISSING_LINEAR_BINDING,
                        "linear variable", x,
                        f"no binding for '{x}' (already consumed?)")
                if b.forcing:
                    raise st.blackhole(x)
                if b.linear:
                    if _concrete(st, demand) != ONE:
                        raise st.blocked(
                            BlockReason.MISSING_LINEAR_BINDING,
                            "linear variable", x,
                            f"linear binding '{x}' demanded non-linearly")
                    st.tick("linear variable", t, env)
                    st.remove(b)
                    c = b.term
                    continue  # single tail premise at demand 1
                st.tick("shared variable", t, env)
                b.forcing = True
                st.xi.vars[x] = (b.ty, OMEGA)  # grows, never pruned
                st.anchors.append(b)
                if st.check:
                    st.touch(b)
                try:
                    z = _eval(st, b.term, demand, ty, stack)
                finally:
                    st.anchors.pop()
                    b.forcing = False
                    if st.check:
                        st.touch(b)
                b.term = z
                return _ret(st, "shared variable", z, demand, ty, stack)

            case App(fun, arg):
                assert isinstance(arg, Var), "term must be in sharing form"
                st.tick("app", t, env)
                fun_ty = fun.ty
                assert isinstance(fun_ty, TArrow), \
                    "pure evaluation needs annotated terms"
                pi = t.mult_ann if t.mult_ann is not None else fun_ty.mult
                entry = SEntry(Clo(arg, env), _dmul(st, pi, demand),
                               fun_ty.dom, stack)
                fv = _eval(st, Clo(fun, env), demand, fun_ty, entry)
                lam = fv.term
                if not isinstance(lam, Lam):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "app", "",
                                     "application head is not a function")
                c = Clo(lam.body, {**fv.env,
                                   lam.var: env.get(arg.name, arg.name)})
                continue

            case MultApp(fun, m):
                st.tick("m.app", t, env)
                fun_ty = fun.ty
                assert fun_ty is not None, \
                    "pure evaluation needs annotated terms"
                fv = _eval(st, Clo(fun, env), demand, fun_ty, stack)
                mlam = fv.term
                if not isinstance(mlam, MultLam):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "m.app",
                                     "", "multiplicity application head is "
                                         "not a multiplicity abstraction")
                c = Clo(term_subst_mult(mlam.body, mlam.param, m), fv.env)
                continue

            case Let(m, binds, body):
                st.tick("let", t, env)
                bind_mult = _dmul(st, demand, m)
                group = st.new_group()
                inner = env.copy()
                for b in binds:
                    inner[b.var] = st.fresh(FRESH_PREFIX)
                rhs_env = inner if t.rec else env
                for b in binds:
                    assert b.var_ty is not None
                    st.insert(EnvBind(inner[b.var], bind_mult == ONE,
                                      b.var_ty,
                                      Clo(b.rhs, st.trim(rhs_env, b.rhs)),
                                      group))
                c = Clo(body, inner)
                continue

            case Case(m, scrut, branches):
                st.tick("case", t, env)
                scrut_ty = scrut.ty
                assert scrut_ty is not None, \
                    "pure evaluation needs annotated terms"
                frame_ty = TArrow(scrut_ty, m, ty)
                # drawn but unused, so that heap names and traces stay as
                # tests/data/eval_golden.json records them
                st.fresh(FRESH_PREFIX)
                # the pending branches, as a function of the scrutinee; only
                # a state check reads them
                frame = Clo(st.case_frame(t), env) if st.check else None
                entry = SEntry(frame, demand, frame_ty, stack)
                sv = _eval(st, Clo(scrut, env), _dmul(st, m, demand),
                           scrut_ty, entry)
                con = sv.term
                if not isinstance(con, Con):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "case", "",
                                     "case scrutinee is not a constructor")
                branch = next((b for b in branches if b.con == con.name),
                              None)
                if branch is None:
                    raise st.blocked(BlockReason.MISSING_BRANCH, "case",
                                     con.name,
                                     f"no branch for constructor "
                                     f"'{con.name}'")
                if len(branch.binders) != len(con.args):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "case",
                                     con.name, "branch arity mismatch")
                if branch.binders:
                    env = env.copy()
                    for y, a in zip(branch.binders, con.args):
                        assert isinstance(a, Var)
                        env[y] = sv.env.get(a.name, a.name)
                c = Clo(branch.body, env)
                continue

            case Prim(name, args):
                return _eval_prim(st, t, env, name, args, demand, ty, stack)

            case _:
                raise AssertionError(f"cannot evaluate {t!r}")


# Premise evaluation order per primitive (indices into the argument list),
# mirroring the ordinary semantics; the remaining indices are arguments
# consumed without their own premise.
_PRIM_ORDER: dict[str, list[int]] = {
    "newMArray": [0],
    "write": [1, 0],
    "freeze": [0],
    "index": [1, 0],
    "add": [0, 1],
    "sub": [0, 1],
    "mul": [0, 1],
    "eq": [0, 1],
    "lt": [0, 1],
}

# The arguments still unconsumed while each premise runs, ascending.
_PENDING: dict[str, list[list[int]]] = {
    name: [sorted(set(order[k + 1:])
                  | (set(range(len(PRIM_ARG_MULTS[name]))) - set(order)))
           for k in range(len(order))]
    for name, order in _PRIM_ORDER.items()}


def _prim_arg(st: _PState, name: str, args: tuple[Clo, ...], stage: int,
              demand: MultExpr, stack: Optional[SEntry]) -> Clo:
    """Premise ``stage`` of a primitive.  Each argument still unconsumed
    meanwhile is on the stack at its signature multiplicity scaled by the
    demand."""
    mults = PRIM_ARG_MULTS[name]
    for j in _PENDING[name][stage]:
        arg = args[j]
        assert isinstance(arg.term, Var) and arg.term.ty is not None
        stack = SEntry(arg, _dmul(st, mults[j], demand), arg.term.ty, stack)
    i = _PRIM_ORDER[name][stage]
    arg = args[i]
    assert isinstance(arg.term, Var) and arg.term.ty is not None
    return _eval(st, arg, _dmul(st, mults[i], demand), arg.term.ty, stack)


def _want_int(st: _PState, name: str, v: Clo) -> int:
    if not isinstance(v.term, IntLit):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                         f"'{name}' needs an integer, got "
                         f"{summarize(v.term, v.env)}")
    return v.term.value


def _want_array(st: _PState, name: str, cargs: tuple[Clo, ...],
                demand: MultExpr, stack: Optional[SEntry], want_frozen: bool,
                i: Optional[int] = None) -> ArrayLit:
    """The premise for the array argument ``cargs[0]``: an array in the
    wanted typestate, with ``i``, if given, in bounds.  A block there names
    the heap binding the argument stands for."""
    v = _prim_arg(st, name, cargs, _PRIM_ORDER[name].index(0), demand, stack)
    arr = v.term
    if not isinstance(arr, ArrayLit):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                         f"'{name}' needs an array, got "
                         f"{summarize(v.term, v.env)}")
    arg = cargs[0].term
    assert isinstance(arg, Var)
    where = cargs[0].env.get(arg.name, arg.name)
    if arr.frozen_tag != want_frozen:
        state = "frozen" if arr.frozen_tag else "mutable"
        raise st.blocked(BlockReason.TYPESTATE_VIOLATION, name, where,
                         f"'{name}' applied to a {state} array")
    if i is not None and not 0 <= i < len(arr.elems):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, where,
                         f"index {i} out of bounds for array of size "
                         f"{len(arr.elems)}")
    return arr


def _eval_prim(st: _PState, t: Prim, env: Env, name: str,
               args: tuple[Term, ...], demand: MultExpr, ty: Type,
               stack: Optional[SEntry]) -> Clo:
    # one closure per argument, so an argument pending in several premises
    # is one term to the state check
    cargs = tuple(Clo(a, env) for a in args)
    match name:
        case "newMArray":
            st.tick("newMArray", t, env)
            size = _want_int(st, name, _prim_arg(st, name, cargs, 0,
                                                 demand, stack))
            if size < 0:
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                                 f"negative array size {size}")
            elem_var, cont = args[1], args[2]
            assert isinstance(elem_var, Var) and isinstance(cont, Var)
            elem_ty = elem_var.ty
            cont_ty = cont.ty
            assert elem_ty is not None and isinstance(cont_ty, TArrow)
            st.array_allocs += 1
            arr_ty = TMArray(elem_ty)
            lit = ArrayLit((env.get(elem_var.name, elem_var.name),) * size,
                           elem_ty, False, ty=arr_ty)
            x = st.fresh(FRESH_PREFIX)
            inner: Term = Let(
                mult=ONE,
                binds=(LetBind(x, arr_ty, lit),),
                body=App(cont, Var(x, ty=arr_ty), mult_ann=ONE,
                         ty=cont_ty.cod),
                ty=cont_ty.cod)
            z = _eval(st, Clo(inner, env), ONE, cont_ty.cod, stack)
            if not (isinstance(z.term, Con) and z.term.name == "Unrestricted"
                    and len(z.term.args) == 1):
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                                 "array continuation did not return an "
                                 "Unrestricted value")
            return _ret(st, "newMArray", z, demand, ty, stack)

        case "write":
            st.tick("write", t, env)
            i = _want_int(st, name, _prim_arg(st, name, cargs, 0,
                                              demand, stack))
            arr = _want_array(st, name, cargs, demand, stack,
                              want_frozen=False, i=i)
            elem = args[2]
            assert isinstance(elem, Var)
            elems = (arr.elems[:i] + (env.get(elem.name, elem.name),)
                     + arr.elems[i + 1:])
            st.array_copies += 1  # a structurally fresh array every write
            fresh_arr = ArrayLit(elems, arr.elem_ty, False, ty=arr.ty)
            return _ret(st, "write", Clo(fresh_arr), demand, ty, stack)

        case "freeze":
            st.tick("freeze", t, env)
            arr = _want_array(st, name, cargs, demand, stack,
                              want_frozen=False)
            frozen = ArrayLit(arr.elems, arr.elem_ty, True,
                              ty=TArray(arr.elem_ty))
            x = st.fresh(FRESH_PREFIX)
            st.insert(EnvBind(x, False, TArray(arr.elem_ty), Clo(frozen),
                              st.new_group()))
            value = Con("Unrestricted", (TArray(arr.elem_ty),), (),
                        (Var(x, ty=TArray(arr.elem_ty)),), ty=ty)
            return _ret(st, "freeze", Clo(value), demand, ty, stack)

        case "index":
            st.tick("index", t, env)
            i = _want_int(st, name, _prim_arg(st, name, cargs, 0,
                                              demand, stack))
            arr = _want_array(st, name, cargs, demand, stack,
                              want_frozen=True, i=i)
            elem_name = arr.elems[i]
            b = st.binds.get(elem_name)
            elem_ty = b.ty if b is not None else arr.elem_ty
            return _eval(st, Clo(Var(elem_name, ty=elem_ty)), demand, elem_ty,
                         stack)

        case "add" | "sub" | "mul" | "eq" | "lt":
            st.tick("prim", t, env)
            a = _want_int(st, name, _prim_arg(st, name, cargs, 0,
                                              demand, stack))
            b = _want_int(st, name, _prim_arg(st, name, cargs, 1,
                                              demand, stack))
            return _ret(st, "prim", Clo(arith(name, a, b)), demand, ty,
                        stack)

        case _:
            raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "prim", "",
                             f"unknown primitive '{name}'")
