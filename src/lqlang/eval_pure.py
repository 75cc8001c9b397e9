"""The pure big-step semantics over annotated states.

States carry full type information: an ambient context (types for
variables whose bindings are currently, or were, under evaluation), an
ordered typed environment, a focused term with the demand (1 or w) at
which it is being consumed, and a stack describing the rest of the
computation.  The context, the stack entries and the case frames are
typing witnesses that only the state check reads, so only a checked run
builds them: an unchecked one keeps no stack (``None``) and leaves the
context as it was.  It still works out every demand a premise runs at.
Skipping ``_dmul`` on a witness's demand changes no outcome: ``m.app``
substitutes before a body runs, so a closed, checked program never
reaches a non-concrete multiplicity there.  Arrays are plain values
here: ``write`` returns a fresh copy, ``freeze`` retags, and nothing is
mutated in place.

The machine evaluates closures (``runtime.Clo``) rather than substituting:
environment bindings, stack entries, the focus and values are terms under
an environment from source binders to environment names, and beta, case
and let extend that environment.  The machine's state is made of the
records an ``AnnState`` holds: its bindings are ``EnvBind``s, found by name
in a dict and linked in state order, its stack entries are ``SEntry``s
linked by ``below``, and its ambient context is one ``TypeEnv`` that the
shared variable rule of a checked run extends.  Inserting a binding
before the one being forced, removing a consumed one and pushing an entry
are O(1), and a state is read off the machine without copying or listing
a binding, an entry, the context or a term; names, steps and traces are
those of substitution.

``_eval`` is the big-step relation run as a machine, derived by CPS
conversion and defunctionalization (Ager, Biernacki, Danvy & Midtgaard,
PPDP 2003), towards Sestoft's mark-1 machine (JFP 1997).  It is one loop
over a list of control frames, one per pending premise, each saying what
is left of its rule once the premise has a value: a shared variable's
update, an application head, a case scrutinee, an ``m.app`` head, each
premise of a primitive, and ``newMArray``'s body.  A control frame holds
no typing witness, only the demand and type its rule resumes at.  The
witnesses are built under the ``st.checker is not None`` tests, so a
checked and an unchecked run share the one loop: the stack entries, the
case frames, the context, the checker's reports and the check of each
rule's conclusion (``_ret``); and the witness stack a rule ran above, kept
on a list of its own while a premise runs above another.  Premises run in
the order the rules give them, so steps, heap names and traces are those
of the recursive reading, and fuel, not the host's recursion limit, bounds
how deep a run goes.  When an abort, a ``PreservationViolation`` or any
other exception leaves the loop, each pending update frame, newest first,
does what its rule would have on finishing: it drops its anchor, clears
its binding's ``forcing`` and reports the binding to the checker.  A rule
is chosen with ``type(t) is`` tests, and a frame with ``is`` tests on its
kind, both tried in the order they come most often; exactly one test
holds, so the order carries no meaning.

Linear bindings are removed from the environment when forced and forcing
them at demand w blocks; on well-typed programs neither a removed binding
nor a w-demanded linear binding is ever encountered, which is exactly what
the progress suite checks.

``instrumented_eval`` checks state well-typedness (``statecheck``) at the
conclusion of every rule application, with a ``statecheck.Checker`` to
which the machine reports every binding it inserts, removes, forces and
updates; in a tail chain of rules the conclusion states coincide, so one
check covers the chain.  A state its running totals cannot represent
raises ``statecheck.UnrepresentableState``, an internal error.

Two readings of the array rules are fixed here and documented in the
README: the continuation of ``newMArray`` is run at demand 1 expecting an
Unrestricted result, and ``freeze`` binds the frozen array as an
unrestricted binding (frozen arrays are shareable; a linear binding would
make repeated indexing block and would leave an unconsumable binding
behind).  The stack entry a checked run pushes while a case scrutinee is
evaluated is a one-argument function wrapping the branches, so that the
pending branches are accounted for without guessing which branch will be
taken.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .multiplicity import NF_OMEGA, NF_ONE, mult_normalize
from .pretty import summarize
from .runtime import (ARITH, BlockReason, Clo, EMPTY_ENV, Env, Machine,
                      Outcome, TraceRecord, arith)
from .statecheck import AnnState, Checker, EnvBind, SEntry, state_welltyped
from .syntax import (App, ArrayLit, Case, Con, IntLit, Lam, Let, LetBind,
                     MultApp, MultExpr, MultLam, OMEGA, ONE, Omega, One, Prim,
                     TArray, TArrow, TInt, TMArray, Term, Type, Var,
                     term_subst_mult)
from .typecheck import PRIM_ARG_MULTS, TypeEnv

FRESH_PREFIX = "%p"
# The binder of every case frame: neither a translated binder ("%s...") nor
# a heap name ("%p...").
HOLE = "%hole"


class PreservationViolation(Exception):
    """A rule application produced an ill-typed state: an evaluator bug."""

    def __init__(self, rule: str, summary: str) -> None:
        super().__init__(f"after rule '{rule}': {summary}")
        self.rule = rule
        self.summary = summary


def initial_state(term: Term, ty: Type, env: TypeEnv) -> AnnState:
    """Whole-program state: the result of a run is consumed once."""
    xi = dataclasses.replace(env, vars={})
    return AnnState(xi=xi, env=(), focus=Clo(term), demand=ONE, focus_ty=ty)


# ---------------------------------------------------------------------------
# The machine

@dataclass
class _PState(Machine):
    # the ambient context; the shared variable rule of a checked run
    # extends it
    xi: TypeEnv
    binds: dict[str, EnvBind] = field(default_factory=dict)
    # sentinel of the binding list: end.next is the first binding
    end: EnvBind = field(default_factory=lambda: EnvBind("", False, TInt(),
                                                         Clo(Var("")), 0))
    anchors: list[EnvBind] = field(default_factory=list)
    group_counter: int = 0
    array_allocs: int = 0
    array_copies: int = 0
    check_count: int = 0
    checker: Optional[Checker] = None  # in a checked run
    # each case node's frame, by id (``case_frame``), in a checked run
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
        if self.checker is not None:
            self.checker.report(bind)

    def remove(self, bind: EnvBind) -> None:
        bind.prev.next, bind.next.prev = bind.next, bind.prev
        del self.binds[bind.name]
        if self.checker is not None:
            self.checker.report(bind)

    def ordered(self) -> Iterator[EnvBind]:
        """The environment in state order."""
        b = self.end.next
        while b is not self.end:
            yield b
            b = b.next

    def case_frame(self, t: Case, ty: Type) -> tuple[Lam, TArrow]:
        """The pending branches of ``t`` as a function of its scrutinee,
        ``\\%hole. case %hole of ...``, and its type when the case has type
        ``ty``: one frame per case node and run, so that the memo in the
        check cache, keyed by identity, sees the same term each time."""
        frame = self.frames.get(id(t))
        if frame is None:
            scrut_ty = t.scrut.ty
            body = t._with(scrut=Var(HOLE, ty=scrut_ty))
            frame = self.frames[id(t)] = (t, Lam(t.mult, HOLE, scrut_ty, body))
        return frame[1], TArrow(t.scrut.ty, t.mult, ty)


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
        s.xi, vars={x: (ty, OMEGA) for x, (ty, _) in s.xi.vars.items()})
    st = _PState(xi=xi, fuel=fuel, trace=[] if want_trace else None)
    for b in s.env:
        st.insert(dataclasses.replace(b))
        st.group_counter = max(st.group_counter, b.group)
    st.checker = Checker(st=st) if check else None
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
    if check and not state_welltyped(st.checker.snapshot(
            s.focus, s.demand, s.focus_ty, s.stack), st.checker):
        raise ValueError("a checked run requires a well-typed initial "
                         "state")
    return _run(st, s)


def instrumented_eval(s: AnnState, fuel: int) -> PureResult:
    """``eval_pure`` with every state checked."""
    return eval_pure(s, fuel, check=True)


def force_pure_variable(prev: PureResult, name: str, demand: MultExpr,
                        fuel: int) -> PureResult:
    """Force one more variable in a finished state (reads constructor
    fields out of a result).  Counters keep accumulating.  No state is
    checked: a checked run's checker is set aside meanwhile."""
    st = prev.state
    st.fuel = fuel
    b = st.binds.get(name)
    ty = b.ty if b is not None else TInt()
    checker, st.checker = st.checker, None
    try:
        return _finish(st, lambda: _eval(st, Clo(Var(name, ty=ty)), demand,
                                         ty, None))
    finally:
        st.checker = checker


# ---------------------------------------------------------------------------
# Rules

def _concrete(st: _PState, m: MultExpr) -> MultExpr:
    cls = type(m)
    if cls is One:
        return ONE
    if cls is Omega:
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
    if a is ONE and b is ONE:
        return ONE
    a, b = _concrete(st, a), _concrete(st, b)
    return OMEGA if a is OMEGA or b is OMEGA else ONE


def _ret(st: _PState, rule: str, value: Clo, demand: MultExpr, ty: Type,
         stack: Optional[SEntry]) -> None:
    """In a checked run: the conclusion of ``rule``, ``value`` at ``demand``
    and ``ty`` above ``stack``, must be a well-typed state."""
    st.check_count += 1
    if not state_welltyped(st.checker.snapshot(value, demand, ty, stack),
                           st.checker):
        raise PreservationViolation(
            rule, f"value {summarize(value.term, value.env)} at "
                  f"demand {'1' if demand == ONE else 'w'} with "
                  f"{len(st.binds)} bindings")


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

# The frames of ``_eval``, one per pending premise: each is a tuple whose
# first item is one of these kinds, and whose last two are the demand and
# type of the rule that pushed it, which it resumes at.  Between the kind
# and those come what the rule needs to finish: its node and environment,
# and for a primitive its argument closures (in a checked run) and the
# value of its first premise.
_UPDATE = "update"        # (_UPDATE, b, ...): update the forced binding b
_APP = "app"              # (_APP, t, env, ...): enter the head's body
_CASE = "case"            # (_CASE, t, env, ...): enter the branch
_MAPP = "m.app"           # (_MAPP, t, ...): instantiate the head
_ARITH_A = "arith a"      # (_ARITH_A, t, env, cargs, ...): second operand
_ARITH_B = "arith b"      # (_ARITH_B, t, env, cargs, a, ...): compute
_NEW_SIZE = "new size"    # (_NEW_SIZE, t, env, cargs, ...): run the body
_NEW_BODY = "new body"    # (_NEW_BODY, ...): check the body's value
_WRITE_I = "write i"      # (_WRITE_I, t, env, cargs, ...): the array
_WRITE_ARR = "write arr"  # (_WRITE_ARR, t, env, cargs, i, ...): copy
_FREEZE = "freeze"        # (_FREEZE, t, env, cargs, ...): retag
_INDEX_I = "index i"      # (_INDEX_I, t, env, cargs, ...): the array
_INDEX_ARR = "index arr"  # (_INDEX_ARR, t, env, cargs, i, ...): the element
# each other primitive's first frame
_PRIM_FRAMES = {"newMArray": _NEW_SIZE, "write": _WRITE_I,
                "freeze": _FREEZE, "index": _INDEX_I}


def _eval(st: _PState, c: Clo, demand: MultExpr, ty: Type,
          stack: Optional[SEntry]) -> Clo:
    """The value of ``c`` at ``demand`` and ``ty`` above the witness stack
    ``stack``.  The focus is the term ``t`` under ``env``.  ``c`` is its
    closure when that is one the state holds (a binding's), so that a value
    found there is returned as that same closure; otherwise it is None, and
    a closure is made only for a value."""
    checker = st.checker
    frames: list[tuple] = []
    below: list[Optional[SEntry]] = []
    t, env = c.term, c.env
    try:
        while True:
            cls = type(t)
            if cls is Var:
                x = env.get(t.name, t.name)
                b = st.binds.get(x)
                if b is None:
                    raise st.blocked(
                        BlockReason.MISSING_LINEAR_BINDING,
                        "linear variable", x,
                        f"no binding for '{x}' (already consumed?)")
                if b.forcing:
                    raise st.blackhole(x)
                if b.linear:
                    if _concrete(st, demand) is not ONE:
                        raise st.blocked(
                            BlockReason.MISSING_LINEAR_BINDING,
                            "linear variable", x,
                            f"linear binding '{x}' demanded non-linearly")
                    st.tick("linear variable", t, env)
                    st.remove(b)
                    c = b.term
                    t, env = c.term, c.env
                    continue  # single tail premise at demand 1
                st.tick("shared variable", t, env)
                b.forcing = True
                st.anchors.append(b)
                if checker is not None:
                    st.xi.vars[x] = (b.ty, OMEGA)  # grows, never pruned
                    checker.report(b)
                frames.append((_UPDATE, b, demand, ty))
                c = b.term
                t, env = c.term, c.env
                continue
            if cls is Let:
                st.tick("let", t, env)
                bind_mult = _dmul(st, demand, t.mult)
                group = st.new_group()
                binds = t.binds
                inner = env.copy()
                for b in binds:
                    inner[b.var] = st.fresh(FRESH_PREFIX)
                rhs_env = inner if t.rec else env
                for b in binds:
                    assert b.var_ty is not None
                    st.insert(EnvBind(inner[b.var], bind_mult is ONE,
                                      b.var_ty,
                                      Clo(b.rhs, st.trim(rhs_env, b)), group))
                t, env, c = t.body, inner, None
                continue
            if cls is IntLit:
                st.tick("int", t, env)
                v = c if c is not None else Clo(t, env)
                if checker is not None:
                    _ret(st, "int", v, demand, ty, stack)
            elif cls is Prim:
                name = t.name
                if name in ARITH:
                    st.tick("prim", t, env)
                    kind = _ARITH_A
                elif name in _PRIM_FRAMES:
                    st.tick(name, t, env)
                    kind = _PRIM_FRAMES[name]
                else:
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "prim",
                                     "", f"unknown primitive '{name}'")
                # one closure per argument, so that an argument pending in
                # several premises is one term to the state check
                cargs = None
                if checker is not None:
                    cargs = tuple([Clo(a, env) for a in t.args])
                frames.append((kind, t, env, cargs, demand, ty))
                t, demand, ty, stack = _prim_arg(st, t, cargs, 0, demand,
                                                 stack, below)
                c = None
                continue
            elif cls is App:
                arg = t.arg
                assert isinstance(arg, Var), "term must be in sharing form"
                st.tick("app", t, env)
                fun = t.fun
                fun_ty = fun.ty
                assert isinstance(fun_ty, TArrow), \
                    "pure evaluation needs annotated terms"
                frames.append((_APP, t, env, demand, ty))
                if checker is not None:
                    pi = t.mult_ann if t.mult_ann is not None else fun_ty.mult
                    below.append(stack)
                    stack = SEntry(Clo(arg, env), _dmul(st, pi, demand),
                                   fun_ty.dom, stack)
                t, c, ty = fun, None, fun_ty
                continue
            elif cls is Lam:
                st.tick("abs", t, env)
                v = c if c is not None else Clo(t, env)
                if checker is not None:
                    _ret(st, "abs", v, demand, ty, stack)
            elif cls is Case:
                st.tick("case", t, env)
                scrut = t.scrut
                scrut_ty = scrut.ty
                assert scrut_ty is not None, \
                    "pure evaluation needs annotated terms"
                # drawn but unused, so that heap names and traces stay as
                # tests/data/eval_golden.json records them
                st.fresh(FRESH_PREFIX)
                frames.append((_CASE, t, env, demand, ty))
                # the pending branches, as a function of the scrutinee; only
                # a state check reads them
                if checker is not None:
                    pending, pending_ty = st.case_frame(t, ty)
                    below.append(stack)
                    stack = SEntry(Clo(pending, env), demand, pending_ty,
                                   stack)
                demand, ty = _dmul(st, t.mult, demand), scrut_ty
                t, c = scrut, None
                continue
            elif cls is Con:
                st.tick("constructor", t, env)
                v = c if c is not None else Clo(t, env)
                if checker is not None:
                    _ret(st, "constructor", v, demand, ty, stack)
            elif cls is MultLam:
                st.tick("m.abs", t, env)
                v = c if c is not None else Clo(t, env)
                if checker is not None:
                    _ret(st, "m.abs", v, demand, ty, stack)
            elif cls is MultApp:
                st.tick("m.app", t, env)
                fun_ty = t.fun.ty
                assert fun_ty is not None, \
                    "pure evaluation needs annotated terms"
                frames.append((_MAPP, t, demand, ty))
                t, c, ty = t.fun, None, fun_ty
                continue
            elif cls is ArrayLit:
                st.tick("array value", t, env)
                v = c if c is not None else Clo(t, env)
                if checker is not None:
                    _ret(st, "array value", v, demand, ty, stack)
            else:
                raise AssertionError(f"cannot evaluate {t!r}")

            # ``v`` is a value: return it to the pending frames until one
            # has a term to evaluate next
            c = None
            while frames:
                frame = frames.pop()
                kind = frame[0]
                demand, ty = frame[-2], frame[-1]
                if kind is _UPDATE:
                    b = frame[1]
                    st.anchors.pop()
                    b.forcing = False
                    if checker is not None:
                        checker.report(b)
                    b.term = v
                    if checker is not None:
                        _ret(st, "shared variable", v, demand, ty, stack)
                    continue
                if kind is _APP:
                    t, env = frame[1], frame[2]
                    if checker is not None:
                        stack = below.pop()
                    lam = v.term
                    if not isinstance(lam, Lam):
                        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "app",
                                         "", "application head is not a "
                                             "function")
                    arg = t.arg.name
                    t, env = lam.body, {**v.env, lam.var: env.get(arg, arg)}
                    break
                if kind is _CASE:
                    t, env = frame[1], frame[2]
                    if checker is not None:
                        stack = below.pop()
                    con = v.term
                    if not isinstance(con, Con):
                        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "case",
                                         "", "case scrutinee is not a "
                                             "constructor")
                    branch = next((b for b in t.branches
                                   if b.con == con.name), None)
                    if branch is None:
                        raise st.blocked(BlockReason.MISSING_BRANCH, "case",
                                         con.name, f"no branch for "
                                                   f"constructor "
                                                   f"'{con.name}'")
                    if len(branch.binders) != len(con.args):
                        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "case",
                                         con.name, "branch arity mismatch")
                    if branch.binders:
                        env = env.copy()
                        for y, a in zip(branch.binders, con.args):
                            assert isinstance(a, Var)
                            env[y] = v.env.get(a.name, a.name)
                    t = branch.body
                    break
                if kind is _MAPP:
                    mlam = v.term
                    if not isinstance(mlam, MultLam):
                        raise st.blocked(BlockReason.PRIMITIVE_MISUSE,
                                         "m.app", "", "multiplicity "
                                         "application head is not a "
                                         "multiplicity abstraction")
                    t = term_subst_mult(mlam.body, mlam.param, frame[1].mult)
                    env = v.env
                    break

                if kind is _NEW_BODY:
                    z = v.term
                    if not (isinstance(z, Con) and z.name == "Unrestricted"
                            and len(z.args) == 1):
                        raise st.blocked(BlockReason.PRIMITIVE_MISUSE,
                                         "newMArray", "", "array "
                                         "continuation did not return an "
                                         "Unrestricted value")
                    if checker is not None:
                        _ret(st, "newMArray", v, demand, ty, stack)
                    continue

                # a primitive's premise
                t, env, cargs = frame[1], frame[2], frame[3]
                if checker is not None:
                    stack = below.pop()
                if kind is _ARITH_A:
                    frames.append((_ARITH_B, t, env, cargs,
                                   _want_int(st, t.name, v), demand, ty))
                    t, demand, ty, stack = _prim_arg(st, t, cargs, 1, demand,
                                                     stack, below)
                    break
                if kind is _ARITH_B:
                    v = Clo(arith(t.name, frame[4], _want_int(st, t.name, v)))
                    if checker is not None:
                        _ret(st, "prim", v, demand, ty, stack)
                    continue
                if kind is _NEW_SIZE:
                    size = _want_int(st, "newMArray", v)
                    if size < 0:
                        raise st.blocked(BlockReason.PRIMITIVE_MISUSE,
                                         "newMArray", "",
                                         f"negative array size {size}")
                    elem_var, cont = t.args[1], t.args[2]
                    assert isinstance(elem_var, Var) and isinstance(cont,
                                                                    Var)
                    elem_ty = elem_var.ty
                    cont_ty = cont.ty
                    assert elem_ty is not None and isinstance(cont_ty, TArrow)
                    st.array_allocs += 1
                    arr_ty = TMArray(elem_ty)
                    lit = ArrayLit((env.get(elem_var.name, elem_var.name),)
                                   * size, elem_ty, False, ty=arr_ty)
                    x = st.fresh(FRESH_PREFIX)
                    frames.append((_NEW_BODY, demand, ty))
                    t = Let(mult=ONE,
                            binds=(LetBind(x, arr_ty, lit, fv=lit.elems[:1]),),
                            body=App(cont, Var(x, ty=arr_ty), mult_ann=ONE,
                                     ty=cont_ty.cod),
                            ty=cont_ty.cod)
                    demand, ty = ONE, cont_ty.cod
                    break
                if kind is _WRITE_I:
                    frames.append((_WRITE_ARR, t, env, cargs,
                                   _want_int(st, "write", v), demand, ty))
                    t, demand, ty, stack = _prim_arg(st, t, cargs, 1, demand,
                                                     stack, below)
                    break
                if kind is _WRITE_ARR:
                    i = frame[4]
                    arr = _want_array(st, "write", v, t, env,
                                      want_frozen=False, i=i)
                    elem = t.args[2]
                    assert isinstance(elem, Var)
                    elems = (arr.elems[:i] + (env.get(elem.name, elem.name),)
                             + arr.elems[i + 1:])
                    st.array_copies += 1  # a structurally fresh array
                    v = Clo(ArrayLit(elems, arr.elem_ty, False, ty=arr.ty))
                    if checker is not None:
                        _ret(st, "write", v, demand, ty, stack)
                    continue
                if kind is _FREEZE:
                    arr = _want_array(st, "freeze", v, t, env,
                                      want_frozen=False)
                    arr_ty = TArray(arr.elem_ty)
                    frozen = ArrayLit(arr.elems, arr.elem_ty, True, ty=arr_ty)
                    x = st.fresh(FRESH_PREFIX)
                    st.insert(EnvBind(x, False, arr_ty, Clo(frozen),
                                      st.new_group()))
                    v = Clo(Con("Unrestricted", (arr_ty,), (),
                                (Var(x, ty=arr_ty),), ty=ty))
                    if checker is not None:
                        _ret(st, "freeze", v, demand, ty, stack)
                    continue
                if kind is _INDEX_I:
                    frames.append((_INDEX_ARR, t, env, cargs,
                                   _want_int(st, "index", v), demand, ty))
                    t, demand, ty, stack = _prim_arg(st, t, cargs, 1, demand,
                                                     stack, below)
                    break
                if kind is _INDEX_ARR:
                    i = frame[4]
                    arr = _want_array(st, "index", v, t, env,
                                      want_frozen=True, i=i)
                    elem_name = arr.elems[i]
                    b = st.binds.get(elem_name)
                    ty = b.ty if b is not None else arr.elem_ty
                    t, env = Var(elem_name, ty=ty), EMPTY_ENV
                    break
                raise AssertionError(f"unknown frame {frame!r}")
            else:
                return v
    finally:
        for frame in reversed(frames):
            if frame[0] is _UPDATE:
                b = frame[1]
                st.anchors.pop()
                b.forcing = False
                if checker is not None:
                    checker.report(b)


def _prim_arg(st: _PState, t: Prim, cargs: Optional[tuple[Clo, ...]],
              stage: int, demand: MultExpr, stack: Optional[SEntry],
              below: list[Optional[SEntry]]
              ) -> tuple[Var, MultExpr, Type, Optional[SEntry]]:
    """Premise ``stage`` of the primitive ``t`` at ``demand`` above
    ``stack``: the argument to evaluate, under the primitive's environment,
    with its demand, type and witness stack.  In a checked run, ``stack``
    goes on ``below``, and each argument still unconsumed meanwhile is on
    the premise's stack at its signature multiplicity scaled by the
    demand."""
    name = t.name
    mults = PRIM_ARG_MULTS[name]
    if cargs is not None:
        below.append(stack)
        for j in _PENDING[name][stage]:
            arg = cargs[j]
            assert isinstance(arg.term, Var) and arg.term.ty is not None
            stack = SEntry(arg, _dmul(st, mults[j], demand), arg.term.ty,
                           stack)
    i = _PRIM_ORDER[name][stage]
    arg = t.args[i]
    assert isinstance(arg, Var) and arg.ty is not None
    return arg, _dmul(st, mults[i], demand), arg.ty, stack


def _want_int(st: _PState, name: str, v: Clo) -> int:
    if not isinstance(v.term, IntLit):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                         f"'{name}' needs an integer, got "
                         f"{summarize(v.term, v.env)}")
    return v.term.value


def _want_array(st: _PState, name: str, v: Clo, t: Prim, env: Env,
                want_frozen: bool, i: Optional[int] = None) -> ArrayLit:
    """The value ``v`` of the array argument of ``t`` under ``env``: an
    array in the wanted typestate, with ``i``, if given, in bounds.  A
    block there names the binding the argument stands for."""
    arr = v.term
    if not isinstance(arr, ArrayLit):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                         f"'{name}' needs an array, got "
                         f"{summarize(v.term, v.env)}")
    arg = t.args[0]
    assert isinstance(arg, Var)
    where = env.get(arg.name, arg.name)
    if arr.frozen_tag != want_frozen:
        state = "frozen" if arr.frozen_tag else "mutable"
        raise st.blocked(BlockReason.TYPESTATE_VIOLATION, name, where,
                         f"'{name}' applied to a {state} array")
    if i is not None and not 0 <= i < len(arr.elems):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, where,
                         f"index {i} out of bounds for array of size "
                         f"{len(arr.elems)}")
    return arr
