"""The pure big-step semantics over annotated states.

States carry full type information: an ambient context (types for
variables whose bindings are currently, or were, under evaluation), an
ordered typed environment, a focused term with the demand (1 or w) at
which it is being consumed, and a stack describing the rest of the
computation.  The context, the stack entries and the case frames are
typing witnesses that only the state check reads, so only a checked run
builds them: an unchecked one passes no stack (``None``) and leaves the
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

``_eval`` chooses a rule with ``type(t) is`` tests, tried in the order the
rules fire most often.  No node class has a subclass, so exactly one test
holds, and the order carries no meaning.

Linear bindings are removed from the environment when forced and forcing
them at demand w blocks; on well-typed programs neither a removed binding
nor a w-demanded linear binding is ever encountered, which is exactly what
the progress suite checks.

``instrumented_eval`` checks state well-typedness (``statecheck``) at the
conclusion of every rule application, with a ``statecheck.Checker`` to
which the machine reports every binding it inserts, removes, forces and
updates; in a tail chain of rules the conclusion states coincide, so one
check covers the chain.

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
from .runtime import (ARITH, BlockReason, Clo, Env, Machine, Outcome,
                      TraceRecord, arith)
from .statecheck import (UNIT_VAL, AnnState, Checker, EnvBind, SEntry,
                         state_welltyped, with_internal_decls)
from .syntax import (App, ArrayLit, Case, Con, IntLit, Lam, Let, LetBind,
                     MultApp, MultExpr, MultLam, OMEGA, ONE, Omega, One, Prim,
                     TArray, TArrow, TInt, TMArray, Term, Type, Var, _with,
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
    xi = dataclasses.replace(with_internal_decls(env), vars={})
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
                                                         Clo(UNIT_VAL), 0))
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
            body = _with(t, scrut=Var(HOLE, ty=scrut_ty))
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
        with_internal_decls(s.xi),
        vars={x: (ty, OMEGA) for x, (ty, _) in s.xi.vars.items()})
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
         stack: Optional[SEntry]) -> Clo:
    checker = st.checker
    if checker is not None:
        st.check_count += 1
        if not state_welltyped(checker.snapshot(value, demand, ty, stack),
                               checker):
            raise PreservationViolation(
                rule, f"value {summarize(value.term, value.env)} at "
                      f"demand {'1' if demand == ONE else 'w'} with "
                      f"{len(st.binds)} bindings")
    return value


def _eval(st: _PState, c: Clo, demand: MultExpr, ty: Type,
          stack: Optional[SEntry]) -> Clo:
    while True:
        t, env = c.term, c.env
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
                continue  # single tail premise at demand 1
            st.tick("shared variable", t, env)
            b.forcing = True
            st.anchors.append(b)
            if st.checker is not None:
                st.xi.vars[x] = (b.ty, OMEGA)  # grows, never pruned
                st.checker.report(b)
            try:
                z = _eval(st, b.term, demand, ty, stack)
            finally:
                st.anchors.pop()
                b.forcing = False
                if st.checker is not None:
                    st.checker.report(b)
            b.term = z
            return _ret(st, "shared variable", z, demand, ty, stack)
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
                st.insert(EnvBind(inner[b.var], bind_mult is ONE, b.var_ty,
                                  Clo(b.rhs, st.trim(rhs_env, b)), group))
            c = Clo(t.body, inner)
            continue
        if cls is IntLit:
            st.tick("int", t, env)
            return _ret(st, "int", c, demand, ty, stack)
        if cls is Prim:
            return _eval_prim(st, t, env, t.name, t.args, demand, ty, stack)
        if cls is App:
            arg = t.arg
            assert isinstance(arg, Var), "term must be in sharing form"
            st.tick("app", t, env)
            fun = t.fun
            fun_ty = fun.ty
            assert isinstance(fun_ty, TArrow), \
                "pure evaluation needs annotated terms"
            entry = None
            if st.checker is not None:
                pi = t.mult_ann if t.mult_ann is not None else fun_ty.mult
                entry = SEntry(Clo(arg, env), _dmul(st, pi, demand),
                               fun_ty.dom, stack)
            fv = _eval(st, Clo(fun, env), demand, fun_ty, entry)
            lam = fv.term
            if not isinstance(lam, Lam):
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "app", "",
                                 "application head is not a function")
            c = Clo(lam.body, {**fv.env, lam.var: env.get(arg.name,
                                                          arg.name)})
            continue
        if cls is Lam:
            st.tick("abs", t, env)
            return _ret(st, "abs", c, demand, ty, stack)
        if cls is Case:
            st.tick("case", t, env)
            scrut = t.scrut
            scrut_ty = scrut.ty
            assert scrut_ty is not None, \
                "pure evaluation needs annotated terms"
            # drawn but unused, so that heap names and traces stay as
            # tests/data/eval_golden.json records them
            st.fresh(FRESH_PREFIX)
            # the pending branches, as a function of the scrutinee; only a
            # state check reads them
            entry = None
            if st.checker is not None:
                frame, frame_ty = st.case_frame(t, ty)
                entry = SEntry(Clo(frame, env), demand, frame_ty, stack)
            sv = _eval(st, Clo(scrut, env), _dmul(st, t.mult, demand),
                       scrut_ty, entry)
            con = sv.term
            if not isinstance(con, Con):
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "case", "",
                                 "case scrutinee is not a constructor")
            branch = next((b for b in t.branches if b.con == con.name),
                          None)
            if branch is None:
                raise st.blocked(BlockReason.MISSING_BRANCH, "case",
                                 con.name,
                                 f"no branch for constructor '{con.name}'")
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
        if cls is Con:
            st.tick("constructor", t, env)
            return _ret(st, "constructor", c, demand, ty, stack)
        if cls is MultLam:
            st.tick("m.abs", t, env)
            return _ret(st, "m.abs", c, demand, ty, stack)
        if cls is MultApp:
            st.tick("m.app", t, env)
            fun_ty = t.fun.ty
            assert fun_ty is not None, \
                "pure evaluation needs annotated terms"
            fv = _eval(st, Clo(t.fun, env), demand, fun_ty, stack)
            mlam = fv.term
            if not isinstance(mlam, MultLam):
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "m.app",
                                 "", "multiplicity application head is "
                                     "not a multiplicity abstraction")
            c = Clo(term_subst_mult(mlam.body, mlam.param, t.mult), fv.env)
            continue
        if cls is ArrayLit:
            st.tick("array value", t, env)
            return _ret(st, "array value", c, demand, ty, stack)

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
    """Premise ``stage`` of a primitive.  In a checked run, each argument
    still unconsumed meanwhile is on the stack at its signature
    multiplicity scaled by the demand."""
    mults = PRIM_ARG_MULTS[name]
    if st.checker is not None:
        for j in _PENDING[name][stage]:
            arg = args[j]
            assert isinstance(arg.term, Var) and arg.term.ty is not None
            stack = SEntry(arg, _dmul(st, mults[j], demand), arg.term.ty,
                           stack)
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
    if name in ARITH:
        st.tick("prim", t, env)
        a = _want_int(st, name, _prim_arg(st, name, cargs, 0, demand, stack))
        b = _want_int(st, name, _prim_arg(st, name, cargs, 1, demand, stack))
        return _ret(st, "prim", Clo(arith(name, a, b)), demand, ty, stack)
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
                binds=(LetBind(x, arr_ty, lit, fv=lit.elems[:1]),),
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
            arr_ty = TArray(arr.elem_ty)
            frozen = ArrayLit(arr.elems, arr.elem_ty, True, ty=arr_ty)
            x = st.fresh(FRESH_PREFIX)
            st.insert(EnvBind(x, False, arr_ty, Clo(frozen), st.new_group()))
            value = Con("Unrestricted", (arr_ty,), (), (Var(x, ty=arr_ty),),
                        ty=ty)
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

        case _:
            raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "prim", "",
                             f"unknown primitive '{name}'")
