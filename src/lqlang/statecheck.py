"""State well-typedness for the pure semantics.

A state is well-typed when its encoding typechecks: the environment becomes
nested lets at the binding multiplicities, and the focus plus the stack
become a chain of left-weighted pairs whose constructor consumes its left
component at the entry's demand.  The tests build it and infer it from
scratch (``tests/reference_state.py``).  ``state_welltyped`` gives the same
verdict without re-typing the whole state: a closure that joins the state, as
a binding or on the chain, is typed through ``infer``'s memo for the run
(``CheckCache``), keyed by source subterm, so a closure pushed again is
answered at its root, and a subterm of the program is typed again only
when one of its free variables has another type (``_infer_clo``).  The
verdict itself is kept as running totals (``Checker``), the one judge.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import CheckError
from .multiplicity import (NF_ONE, ZERO, Usage, UsageMult, mult_mul,
                           mult_normalize)
from .runtime import Clo
from .syntax import MultExpr, OMEGA, ONE, Type, free_vars, mult_vars
from .typecheck import (_UNBOUND, InferMemo, InferResult, TypeEnv, _restore,
                        check_type, infer, type_equiv)

# the label distance between bindings put at either end of a machine's
# binding list (``Checker.inserted``)
_GAP = 1 << 20

@dataclass(slots=True)
class SEntry:
    """A stack entry: a closure consumed at ``demand`` once the focus is
    done, above the entries ``below`` it, so that a push is O(1)."""
    term: Clo
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
    prev: Optional[EnvBind] = field(default=None, repr=False, compare=False)
    next: Optional[EnvBind] = field(default=None, repr=False, compare=False)


_GROUP = operator.attrgetter("group")


@dataclass
class AnnState:
    """A state: the ambient context, the environment in state order, the
    focus with its demand and type, and the newest stack entry.  A state
    read off a running machine (``Checker.snapshot``) shares the machine's
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


# ---------------------------------------------------------------------------
# Typing closures once per run

@dataclass
class CheckCache(InferMemo):
    """What the state checks of one run share: the run's memo for
    ``infer`` (``InferMemo``), and ``types``, the interned types that
    passed ``check_type``."""
    types: set[Type] = field(default_factory=set)


def _declared(cache: CheckCache, xi: TypeEnv, t_ty: Type, u: Usage,
              ty: Type) -> Optional[Usage]:
    """The usage ``u`` of a closure of type ``t_ty``, if ``t_ty`` is
    ``ty`` and ``ty`` is well-formed, which is checked once per run."""
    if not type_equiv(t_ty, ty):
        return None
    if ty not in cache.types:
        try:
            check_type(xi, ty)
        except CheckError:
            return None
        cache.types.add(ty)
    return u


def _infer_clo(env: TypeEnv, clo: Clo) -> Optional[tuple[Type, Usage]]:
    """Type and usage of the built term of ``clo`` in ``env``, or None if
    it is ill-typed there.

    The closure's source term is inferred, each of its binders bound in
    place to the type of the name it stands for and restored afterwards,
    so that ``infer`` finds the program's own subterms in the memo in
    ``env`` (``InferMemo.hit``); its usage is then renamed back through
    the closure's environment.  The built term is inferred only when two
    free variables of the source term stand for one name: merging their
    usages would not be exact, since a case join is not additive.  A
    closure is typed each time it joins the state; one typed before is
    then answered by the memo at its root."""
    vars_ = env.vars
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
        usage: Usage = {}
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


# ---------------------------------------------------------------------------
# The running totals

def state_welltyped(s: AnnState, checker: Optional[Checker] = None) -> bool:
    """The verdict on ``s``, from one inference per
    closure that joined the state: from the running totals of ``checker``
    on its machine's current snapshot, else from totals replayed from
    ``s`` that share the checker's cache, which must only see states of
    its run; ``UnrepresentableState`` if the totals cannot represent it."""
    if checker is not None and s is checker.current:
        return checker.check(s)
    return Checker(checker and checker.cache).check(s)


class UnrepresentableState(AssertionError):
    """A state the running totals cannot represent (see ``Checker``).  No
    evaluator run makes one, so a machine's state that is one is an
    internal error.  ``reason`` names the condition, and ``name`` the first
    offending binding in state order, or for a multiplicity variable in
    context, the first such variable by name."""

    def __init__(self, reason: str, name: str) -> None:
        super().__init__(f"state not representable: {reason}: '{name}'")
        self.reason, self.name = reason, name


MULT_VAR = "multiplicity variable in context"
DUPLICATE = "two bindings of one name"
MIXED_GROUP = "group of linear and unrestricted bindings"
CONTEXT_NAME = "context name not bound as an unrestricted binding of its type"
FORCED_OUTSIDE = "forced binding outside the context"


# a contribution's share of the running totals: its scaled usage at each
# live linear name, and the names it uses out of scope
_Part = tuple[tuple[tuple[str, UsageMult], ...], tuple[str, ...]]


class Checker:
    """The verdict on a state kept as running totals, updated as a checking
    machine changes its records, so that a check costs O(change) instead
    of O(state): change propagation in the sense of Acar, Blelloch &
    Harper, *Adaptive Functional Programming* (POPL 2002).

    The let groups of the encoding are the runs of live bindings of one
    ``group`` in state order, and its typing amounts to this.  Each live
    binding and each entry of the pair chain (the focus, then the stack)
    must have its declared type, and contributes its usage scaled by the
    binding's multiplicity or the entry's demand.  A name in the ambient
    context ``xi`` may be used anywhere.  Any other name used must be live;
    a binding must not use a name of a later run, nor one of its own run
    unless the group is w; and a live linear name's contributions must sum
    to exactly 1.  So only linear names need their contributions counted:
    ``parts`` holds, per live linear name, the multiset of its scaled
    usages, so that one can be taken away again.  ``misplaced`` counts, per
    name, the bindings that use it out of scope.  ``applied`` holds each
    live binding's part in these, and ``stack`` each chain entry's, bottom
    first, as of the last check.  Scope comes from ``labels``, which number
    the bindings in state order.  The machine reports each binding it
    inserts, removes, forces or updates (``report``); a check reconciles
    those bindings, diffs the chain against the last check's, types only
    the closures that joined the state, and re-validates only the names
    whose binding, parts or misplaced uses changed.

    A replay (``_replay``) builds the totals from nothing: the bindings of
    a state count as inserted in state order, and its chain as pushed.  A
    machine's checker replays its initial state, and again when the
    machine removes an unrestricted binding, whose users are not counted,
    when an insertion splits a group, and after an ill-typed closure.
    While each group is contiguous in the binding list, runs are groups;
    otherwise ``runs`` numbers each live binding's run.  A state with a
    multiplicity variable in context, two bindings of one name, a group of
    linear and unrestricted bindings, a context name bound other than as
    an unrestricted binding of its type, or a forced binding outside the
    context is not represented: a check of one raises
    ``UnrepresentableState``."""

    def __init__(self, cache: Optional[CheckCache] = None, st=None) -> None:
        self.cache = cache or CheckCache()
        self.st = st  # the machine whose records these are, if any
        self.current: Optional[AnnState] = None  # the machine's snapshot
        self.stale = True  # replay at the next check

    def snapshot(self, focus: Clo, demand: MultExpr, ty: Type,
                 stack: Optional[SEntry]) -> AnnState:
        """The machine's current state; it shares the machine's records
        and lists its bindings only when read (see ``AnnState``)."""
        s = AnnState.__new__(AnnState)
        s.xi, s.focus, s.demand, s.focus_ty, s.stack = (self.st.xi, focus,
                                                        demand, ty, stack)
        s.machine = self.st
        self.current = s
        return s

    def report(self, b: EnvBind) -> None:
        """The machine inserted, removed, forced or updated ``b``."""
        if self.stale:
            return
        removed = self.st.binds.get(b.name) is not b
        if removed and not b.linear or (
                not self._rerun(b) if self.runs is not None
                else id(b) not in self.labels and b.prev is not b.next
                and b.prev.group == b.next.group != b.group):
            self.stale = True
            return
        if removed:
            del self.labels[id(b)]
            self.linear.discard(b.name)
        elif id(b) not in self.labels:
            self._place(b)
            self.env.vars[b.name] = (b.ty, OMEGA)
            if b.linear:
                self.linear.add(b.name)
        self.dirty[id(b)] = b

    def _rerun(self, b: EnvBind) -> bool:
        """Once a group is split: ``b`` just joined or left the live
        bindings.  Give it its run in the encoding, and say whether
        every other binding keeps its run."""
        end, before, after = self.st.end, b.prev, b.next
        while before.forcing:  # the sentinel is not
            before = before.prev
        while after.forcing:
            after = after.next
        if before is not end is not after and (
                before.group == after.group != b.group):
            return False  # two runs merge, or one splits
        self.runs.pop(id(b), None)
        if self.st.binds.get(b.name) is b and not b.forcing:
            same = [n for n in (before, after)
                    if n is not end and n.group == b.group]
            self.runs[id(b)] = (self.runs[id(same[0])] if same
                                else next(self.new_run))
        return True

    def _place(self, b: EnvBind) -> None:
        """Label a binding just inserted."""
        end, labels = self.st.end, self.labels
        before, after = b.prev, b.next
        if after is end:
            labels[id(b)] = 0 if before is end else labels[id(before)] + _GAP
        elif before is end:
            labels[id(b)] = labels[id(after)] - _GAP
        elif labels[id(after)] - labels[id(before)] > 1:
            labels[id(b)] = (labels[id(before)] + labels[id(after)]) // 2
        else:
            self._relabel(b)

    def _relabel(self, b: EnvBind) -> None:
        """Spread out the labels of the smallest aligned label range around
        ``b`` that is sparse enough: at most (4/3)**i bindings in a range
        of 2**i labels.  This is the list labelling of Bender et al., *Two
        Simplified Algorithms for Maintaining Order in a List* (ESA 2002):
        O(log n) labels change per insertion, amortized."""
        end, labels = self.st.end, self.labels
        lo = labels[id(b.prev)]
        left = right = b
        count, i = 1, 0
        while True:
            i += 1
            base = lo >> i << i
            top = base + (1 << i)
            while left.prev is not end and labels[id(left.prev)] >= base:
                left = left.prev
                count += 1
            while right.next is not end and labels[id(right.next)] < top:
                right = right.next
                count += 1
            if count * 3 ** i <= 4 ** i:
                break
        step = (top - base) // count
        for k in range(count):
            labels[id(left)] = base + k * step
            left = left.next

    def _replay(self, s: AnnState) -> None:
        """Build the totals from nothing, for ``s``, or raise
        ``UnrepresentableState`` if they cannot represent it."""
        xi, order = s.xi, s.env
        if xi.mult_vars:
            raise UnrepresentableState(MULT_VAR, min(xi.mult_vars))
        names: set[str] = set()
        linear: dict[int, bool] = {}  # by group, its first binding's
        for b in order:
            ctx = xi.vars.get(b.name)
            if b.name in names:
                raise UnrepresentableState(DUPLICATE, b.name)
            if linear.setdefault(b.group, b.linear) != b.linear:
                raise UnrepresentableState(MIXED_GROUP, b.name)
            if ctx is None:
                if b.forcing:
                    raise UnrepresentableState(FORCED_OUTSIDE, b.name)
            elif b.linear and not b.forcing or not type_equiv(ctx[0], b.ty):
                raise UnrepresentableState(CONTEXT_NAME, b.name)
            names.add(b.name)
        self.stale = False
        self.xi = xi
        self.binds = (self.st.binds if self.st is not None
                      else {b.name: b for b in order})
        # the context and every name bound since the replay, at its type:
        # the environment closures are typed in
        self.env = TypeEnv(xi.decls, xi.cons, {**xi.vars, **{
            b.name: (b.ty, OMEGA) for b in order}}, frozenset(), self.cache)
        self.labels = {id(b): i * _GAP for i, b in enumerate(order)}
        groups = [g for g, _ in itertools.groupby(order, _GROUP)]
        if len(set(groups)) == len(groups):
            self.runs: Optional[dict[int, int]] = None
        else:
            live = [b for b in order if not b.forcing]
            self.runs = {id(b): k for k, (_, run) in enumerate(
                itertools.groupby(live, _GROUP)) for b in run}
            self.new_run = itertools.count(len(live))
        self.dirty = {id(b): b for b in order}
        self.linear = {b.name for b in order if b.linear}  # bound linear names
        self.applied: dict[int, tuple[EnvBind, Clo, _Part]] = {}
        self.stack: list[tuple[SEntry, _Part]] = []
        self.depth: dict[int, int] = {}  # index in ``stack``, by entry id
        self.parts: dict[str, dict[UsageMult, int]] = {}
        self.misplaced: dict[str, int] = {}
        self.changed: set[str] = set()
        self.failing: set[str] = set()

    def check(self, s: AnnState) -> bool:
        """The verdict on ``s``: the machine's current snapshot, or the
        state these totals were made for."""
        if self.stale:
            self._replay(s)
        binds = self.binds
        for b in self.dirty.values():
            self.changed.add(b.name)
            live = binds.get(b.name) is b and not b.forcing
            old = self.applied.get(id(b))
            if old is not None:
                if live and old[1] is b.term:
                    continue
                del self.applied[id(b)]
                self._take(old[2])
            if live:
                part = self._bind(b)
                if part is None:
                    return self._broken()
                self.applied[id(b)] = (b, b.term, part)
        self.dirty.clear()

        # the chain, the focus on top; entries never change, so the chains
        # agree below the newest entry the last check also had
        pushed = []
        e = self.stack[-1][0] if self.stack else None
        if e is None or not (e.term is s.focus and e.demand is s.demand
                             and e.ty is s.focus_ty and e.below is s.stack):
            e = SEntry(s.focus, s.demand, s.focus_ty, s.stack)
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
            u = self._typed(e.term, e.ty)
            if u is None or mult_vars(e.demand):
                return self._broken()
            self.depth[id(e)] = len(self.stack)
            self.stack.append((e, self._add(u, e.demand, ())))

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
        r = _infer_clo(self.env, c)
        if r is None:
            return None
        u = _declared(self.cache, self.xi, *r, ty)
        bound = self.binds.keys()
        if (u is not None and not u.keys() <= bound
                and not u.keys() - bound <= self.xi.vars.keys()):
            return None
        return u

    def _bind(self, b: EnvBind) -> Optional[_Part]:
        u = self._typed(b.term, b.ty)
        if u is None:
            return None
        binds, labels, runs = self.binds, self.labels, self.runs
        misplaced = []
        for x in u.keys() - self.xi.vars.keys():
            xb = binds[x]
            if (b.linear if (xb.group == b.group if runs is None
                             else runs[id(xb)] == runs[id(b)])
                    else labels[id(xb)] > labels[id(b)]):
                misplaced.append(x)
        return self._add(u, ONE if b.linear else OMEGA, tuple(misplaced))

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
        if x in self.xi.vars:
            return True
        p = self.parts.get(x)
        b = self.binds.get(x)
        if b is None or b.forcing:
            return p is None
        if x in self.misplaced:
            return False
        return not b.linear or (p is not None and p.get(NF_ONE) == 1
                                and len(p) == 1 + (ZERO in p))

    def _broken(self) -> bool:
        """An ill-typed closure: the totals are left half updated, so the
        next check, if any, replays."""
        self.stale = True
        return False
