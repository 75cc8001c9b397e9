"""The ordinary big-step semantics: lazy evaluation with a mutable heap.

The heap holds two kinds of bindings: closures (``runtime.Clo``, always
unrestricted; forcing one overwrites it with its value, which is how
sharing is modelled) and array cells, which are mutated in place by
``write`` and retagged from mutable to frozen by ``freeze``.

Terms are evaluated as closures (see ``runtime``): a term with an
environment from its source binders to heap names.  Beta, case and let
extend the environment instead of substituting into the body; a let
stores each right-hand side as a closure whose environment is cut down to
that term's free variables, as the sharing translation listed them.
``_eval`` returns the value as a closure, so a forced variable's heap entry
becomes the value closure itself.  Heap names, steps and traces are those
of substitution: a term is built from its closure (``Clo.built``) only for
a traced step, an abort and the final value.

``_eval`` is the big-step relation run as a machine, derived by CPS
conversion and defunctionalization (Ager, Biernacki, Danvy & Midtgaard,
*A Functional Correspondence between Evaluators and Abstract Machines*,
PPDP 2003), towards Sestoft's mark-1 machine (JFP 1997).  It is one loop
over a list of frames, one per pending premise, each saying what is left
of its rule once the premise has a value: a forced variable's update, an
application head, a case scrutinee, an ``m.app`` head, each premise of a
primitive, and ``newMArray``'s body.  Premises run in the order the rules
give them, so steps, heap names and traces are those of the recursive
reading, and fuel, not the host's recursion limit, bounds how deep a run
goes.  When an abort (or any other exception) leaves the loop, each
pending update frame first takes its name out of ``forcing``, as its rule
would have on finishing.  A rule is chosen with ``type(t) is`` tests, and
a frame with ``is`` tests on its kind, both tried in the order they come
most often; exactly one test holds, so the order carries no meaning.

Typestate is checked dynamically here: ``write`` and ``freeze`` block on
a frozen cell and ``index`` blocks on a mutable one.  On well-typed
programs these blocks never fire, which the harness checks empirically.

Evaluation is fuel-bounded.  Running out of fuel is not an error: it is a
partial run that more fuel would extend, and is reported as its own
outcome.  Forcing a suspension that is already being forced reports a
blackhole (ill-founded recursion through unrestricted bindings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .pretty import summarize
from .runtime import (ARITH, BlockReason, Clo, EMPTY_ENV, Env, Machine,
                      Outcome, TraceRecord, arith)
from .syntax import (App, ArrName, ArrayLit, Case, Con, IntLit, Lam, Let,
                     LetBind, MultApp, MultLam, ONE, Prim, Term, Var,
                     term_subst_mult)
from .typecheck import PRIM_ARG_MULTS

FRESH_PREFIX = "%h"
CELL_PREFIX = "%a"


@dataclass
class Cell:
    frozen: bool
    elems: list[str]


Binding = Union[Clo, Cell]


@dataclass
class Heap:
    bindings: dict[str, Binding] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.bindings)

    def cells(self) -> dict[str, Cell]:
        return {x: b for x, b in self.bindings.items()
                if isinstance(b, Cell)}


@dataclass
class _State(Machine):
    heap: Heap
    cell_allocs: int = 0
    newmarray_count: int = 0
    write_count: int = 0
    forcing: set[str] = field(default_factory=set)


@dataclass
class EvalResult:
    outcome: Outcome
    heap: Heap
    steps: int
    cell_allocs: int
    newmarray_count: int
    write_count: int
    trace: list[TraceRecord] = field(default_factory=list)
    state: "_State" = field(repr=False, default=None)  # type: ignore[assignment]


def _finish(st: _State, run) -> EvalResult:
    return EvalResult(st.drive(run), st.heap, st.steps, st.cell_allocs,
                      st.newmarray_count, st.write_count, st.records, st)


def eval_term(heap: Heap, t: Term, fuel: int,
              want_trace: bool = False) -> EvalResult:
    """Evaluate a sharing-form term to weak-head normal form.

    The heap is owned and mutated by this evaluation.
    """
    st = _State(heap=heap, fuel=fuel, trace=[] if want_trace else None)
    return _finish(st, lambda: _eval(st, t, EMPTY_ENV).built())


def trace_eval(heap: Heap, t: Term, fuel: int) -> tuple[Outcome, list[TraceRecord]]:
    r = eval_term(heap, t, fuel, want_trace=True)
    return r.outcome, r.trace


def force_variable(prev: EvalResult, name: str, fuel: int) -> EvalResult:
    """Force one more variable under an existing final heap (used to read
    constructor fields out of a result).  Counters keep accumulating."""
    st = prev.state
    st.fuel = fuel
    return _finish(st, lambda: _eval(st, Var(name), EMPTY_ENV).built())


# The frames of ``_eval``, one per pending premise: each is a tuple whose
# first item is one of these kinds, and holds what its rule needs to finish
# once the premise has a value.
_UPDATE = "update"        # (_UPDATE, x): overwrite the forced binding x
_APP = "app"              # (_APP, t, env): enter the head's body
_CASE = "case"            # (_CASE, t, env): enter the scrutinee's branch
_MAPP = "m.app"           # (_MAPP, t): instantiate the head at t.mult
_ARITH_A = "arith a"      # (_ARITH_A, t, env): then the second operand
_ARITH_B = "arith b"      # (_ARITH_B, t, a): compute
_NEW_SIZE = "new size"    # (_NEW_SIZE, t, env): allocate, run the body
_NEW_BODY = "new body"    # (_NEW_BODY,): check the body's value
_WRITE_I = "write i"      # (_WRITE_I, t, env): then the array
_WRITE_ARR = "write arr"  # (_WRITE_ARR, t, env, i): write in place
_FREEZE = "freeze"        # (_FREEZE, t, env): retag
_INDEX_I = "index i"      # (_INDEX_I, t, env): then the array
_INDEX_ARR = "index arr"  # (_INDEX_ARR, t, i): force the element
# each other primitive's first frame, and the argument its premise runs
_PRIM_FRAMES = {"newMArray": (_NEW_SIZE, 0), "write": (_WRITE_I, 1),
                "freeze": (_FREEZE, 0), "index": (_INDEX_I, 1)}


def _eval(st: _State, t: Term, env: Env) -> Clo:
    heap = st.heap.bindings
    forcing = st.forcing
    frames: list[tuple] = []
    try:
        while True:
            cls = type(t)
            if cls is Var:
                x = env.get(t.name, t.name)
                binding = heap.get(x)
                if x in forcing:
                    raise st.blackhole(x)
                if binding is None:
                    raise st.blocked(BlockReason.MISSING_LINEAR_BINDING,
                                     "variable", x, f"no binding for '{x}'")
                if isinstance(binding, Cell):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE,
                                     "variable", x,
                                     "term variable resolved to an array "
                                     "cell")
                st.tick("variable", t, env)
                forcing.add(x)
                frames.append((_UPDATE, x))
                t, env = binding.term, binding.env
                continue
            if cls is Let:
                st.tick("let", t, env)
                binds = t.binds
                inner = env.copy()
                for b in binds:
                    inner[b.var] = st.fresh(FRESH_PREFIX)
                rhs_env = inner if t.rec else env
                for b in binds:
                    heap[inner[b.var]] = Clo(b.rhs, st.trim(rhs_env, b))
                t, env = t.body, inner
                continue
            if cls is IntLit:
                st.tick("int", t, env)
                v = Clo(t)
            elif cls is Prim:
                name, args = t.name, t.args
                arity = len(PRIM_ARG_MULTS.get(name, ()))
                if len(args) < arity:  # reachable only without the checker
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "prim", "",
                                     f"primitive '{name}' expects {arity} "
                                     f"arguments, got {len(args)}")
                if name in ARITH:
                    st.tick("prim", t, env)
                    kind, first = _ARITH_A, 0
                elif name in _PRIM_FRAMES:
                    st.tick(name, t, env)
                    if name == "newMArray":
                        st.newmarray_count += 1
                    elif name == "write":
                        st.write_count += 1
                    kind, first = _PRIM_FRAMES[name]
                else:
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "prim",
                                     "", f"unknown primitive '{name}'")
                frames.append((kind, t, env))
                t = args[first]
                continue
            elif cls is App:
                assert isinstance(t.arg, Var), "term must be in sharing form"
                st.tick("application", t, env)
                frames.append((_APP, t, env))
                t = t.fun
                continue
            elif cls is Lam:
                st.tick("abs", t, env)
                v = Clo(t, env)
            elif cls is Case:
                st.tick("case", t, env)
                frames.append((_CASE, t, env))
                t = t.scrut
                continue
            elif cls is Con:
                st.tick("constructor", t, env)
                v = Clo(t, env)
            elif cls is ArrName:
                st.tick("mutable cell", t, env)
                if not isinstance(heap.get(t.name), Cell):
                    raise st.blocked(BlockReason.MISSING_LINEAR_BINDING,
                                     "mutable cell", t.name,
                                     f"no array cell named '{t.name}'")
                v = Clo(t)
            elif cls is MultLam:
                st.tick("m.abs", t, env)
                v = Clo(t, env)
            elif cls is MultApp:
                st.tick("m.app", t, env)
                frames.append((_MAPP, t))
                t = t.fun
                continue
            elif cls is ArrayLit:
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "value", "",
                                 "array values do not occur in this "
                                 "semantics")
            else:
                raise AssertionError(f"cannot evaluate {t!r}")

            # ``v`` is a value: return it to the pending frames until one
            # has a term to evaluate next
            while frames:
                frame = frames.pop()
                kind = frame[0]
                if kind is _UPDATE:
                    x = frame[1]
                    forcing.discard(x)
                    heap[x] = v
                    continue
                if kind is _APP:
                    _, t, env = frame
                    lam = v.term
                    if not isinstance(lam, Lam):
                        raise st.blocked(BlockReason.PRIMITIVE_MISUSE,
                                         "application", "",
                                         "application head is not a "
                                         "function")
                    arg = t.arg.name
                    t, env = lam.body, {**v.env, lam.var: env.get(arg, arg)}
                    break
                if kind is _CASE:
                    _, t, env = frame
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
                if kind is _ARITH_A:
                    _, t, env = frame
                    frames.append((_ARITH_B, t, _want_int(st, t.name, v)))
                    t = t.args[1]
                    break
                if kind is _ARITH_B:
                    _, t, a = frame
                    v = Clo(arith(t.name, a, _want_int(st, t.name, v)))
                    continue
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
                if kind is _NEW_SIZE:
                    _, t, env = frame
                    name, args = t.name, t.args
                    size = _want_int(st, name, v)
                    if size < 0:
                        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name,
                                         "", f"negative array size {size}")
                    assert isinstance(args[1], Var) and isinstance(args[2],
                                                                   Var)
                    cell_name = st.fresh(CELL_PREFIX)
                    heap[cell_name] = Cell(False, [env.get(args[1].name,
                                                           args[1].name)]
                                           * size)
                    st.cell_allocs += 1
                    x = st.fresh(FRESH_PREFIX)
                    frames.append((_NEW_BODY,))
                    t = Let(mult=ONE,
                            binds=(LetBind(x, None,  # type: ignore[arg-type]
                                           ArrName(cell_name), fv=()),),
                            body=App(args[2], Var(x)))
                    break
                if kind is _NEW_BODY:
                    value = v.term
                    if not (isinstance(value, Con)
                            and value.name == "Unrestricted"
                            and len(value.args) == 1):
                        raise st.blocked(BlockReason.PRIMITIVE_MISUSE,
                                         "newMArray", "", "array "
                                         "continuation did not return an "
                                         "Unrestricted value")
                    continue
                if kind is _WRITE_I:
                    _, t, env = frame
                    frames.append((_WRITE_ARR, t, env,
                                   _want_int(st, t.name, v)))
                    t = t.args[0]
                    break
                if kind is _WRITE_ARR:
                    _, t, env, i = frame
                    cell_name, cell = _want_cell(st, t.name, v, i,
                                                 want_frozen=False)
                    elem = t.args[2]
                    assert isinstance(elem, Var)
                    # in place; no allocation
                    cell.elems[i] = env.get(elem.name, elem.name)
                    v = Clo(ArrName(cell_name))
                    continue
                if kind is _FREEZE:
                    cell_name, cell = _want_cell(st, "freeze", v, None,
                                                 want_frozen=False)
                    cell.frozen = True  # retag in place
                    alias = st.fresh(FRESH_PREFIX)
                    heap[alias] = Clo(ArrName(cell_name))
                    v = Clo(Con("Unrestricted", (), (), (Var(alias),)))
                    continue
                if kind is _INDEX_I:
                    _, t, env = frame
                    frames.append((_INDEX_ARR, t, _want_int(st, t.name, v)))
                    t = t.args[0]
                    break
                if kind is _INDEX_ARR:
                    _, t, i = frame
                    cell_name, cell = _want_cell(st, t.name, v, i,
                                                 want_frozen=True)
                    t, env = Var(cell.elems[i]), EMPTY_ENV
                    break
                raise AssertionError(f"unknown frame {frame!r}")
            else:
                return v
    finally:
        for frame in frames:
            if frame[0] is _UPDATE:
                forcing.discard(frame[1])


def _want_int(st: _State, prim: str, v: Clo) -> int:
    if not isinstance(v.term, IntLit):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, prim, "",
                         f"'{prim}' needs an integer, got "
                         f"{summarize(v.term, v.env)}")
    return v.term.value


def _want_cell(st: _State, prim: str, v: Clo, i: Optional[int],
               want_frozen: bool) -> tuple[str, Cell]:
    """The cell that ``v`` names, in the wanted typestate, with the index
    ``i``, if given, in bounds."""
    if not isinstance(v.term, ArrName):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, prim, "",
                         f"'{prim}' needs an array, got "
                         f"{summarize(v.term, v.env)}")
    name = v.term.name
    cell = st.heap.bindings.get(name)
    if not isinstance(cell, Cell):
        raise st.blocked(BlockReason.MISSING_LINEAR_BINDING, prim, name,
                         f"no array cell named '{name}'")
    if cell.frozen != want_frozen:
        state = "frozen" if cell.frozen else "mutable"
        raise st.blocked(BlockReason.TYPESTATE_VIOLATION, prim, name,
                         f"'{prim}' applied to a {state} array")
    if i is not None and not 0 <= i < len(cell.elems):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, prim, name,
                         f"index {i} out of bounds for array of size "
                         f"{len(cell.elems)}")
    return name, cell
