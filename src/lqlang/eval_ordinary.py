"""The ordinary big-step semantics: lazy evaluation with a mutable heap.

The heap holds two kinds of bindings: closures (``runtime.Clo``, always
unrestricted; forcing one overwrites it with its value, which is how
sharing is modelled) and array cells, which are mutated in place by
``write`` and retagged from mutable to frozen by ``freeze``.

Terms are evaluated as closures (see ``runtime``): a term with an
environment from its source binders to heap names.  Beta, case and let
extend the environment instead of substituting into the body; a let
stores each right-hand side as a closure whose environment is cut down to
that term's free variables.  ``_eval`` returns the value as a closure, so
a forced variable's heap entry becomes the value closure itself.  Heap
names, steps and traces are those of substitution: a term is built from
its closure (``Clo.built``) only for a traced step, an abort and the final
value.

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
from typing import Union

from .pretty import summarize
from .runtime import (BlockReason, Clo, EMPTY_ENV, Env, Machine, Outcome,
                      TraceRecord, arith)
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


def _eval(st: _State, t: Term, env: Env) -> Clo:
    heap = st.heap.bindings
    while True:
        match t:
            case Lam():
                st.tick("abs", t, env)
                return Clo(t, env)
            case MultLam():
                st.tick("m.abs", t, env)
                return Clo(t, env)
            case IntLit():
                st.tick("int", t, env)
                return Clo(t)
            case Con():
                st.tick("constructor", t, env)
                return Clo(t, env)
            case ArrayLit():
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "value", "",
                                 "array values do not occur in this semantics")

            case ArrName(l):
                st.tick("mutable cell", t, env)
                if not isinstance(heap.get(l), Cell):
                    raise st.blocked(BlockReason.MISSING_LINEAR_BINDING,
                                     "mutable cell", l,
                                     f"no array cell named '{l}'")
                return Clo(t)

            case Var(x):
                x = env.get(x, x)
                binding = heap.get(x)
                if x in st.forcing:
                    raise st.blackhole(x)
                if binding is None:
                    raise st.blocked(BlockReason.MISSING_LINEAR_BINDING,
                                     "variable", x,
                                     f"no binding for '{x}'")
                if isinstance(binding, Cell):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE,
                                     "variable", x,
                                     "term variable resolved to an array cell")
                st.tick("variable", t, env)
                st.forcing.add(x)
                try:
                    value = _eval(st, binding.term, binding.env)
                finally:
                    st.forcing.discard(x)
                heap[x] = value
                return value

            case App(fun, arg):
                assert isinstance(arg, Var), "term must be in sharing form"
                st.tick("application", t, env)
                fv = _eval(st, fun, env)
                lam = fv.term
                if not isinstance(lam, Lam):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE,
                                     "application", "",
                                     "application head is not a function")
                t, env = lam.body, {**fv.env, lam.var: env.get(arg.name,
                                                               arg.name)}
                continue

            case MultApp(fun, m):
                st.tick("m.app", t, env)
                fv = _eval(st, fun, env)
                mlam = fv.term
                if not isinstance(mlam, MultLam):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "m.app",
                                     "", "multiplicity application head is "
                                         "not a multiplicity abstraction")
                t, env = term_subst_mult(mlam.body, mlam.param, m), fv.env
                continue

            case Let(_, binds, body):
                st.tick("let", t, env)
                inner = env.copy()
                for b in binds:
                    inner[b.var] = st.fresh(FRESH_PREFIX)
                rhs_env = inner if t.rec else env
                for b in binds:
                    heap[inner[b.var]] = Clo(b.rhs, st.trim(rhs_env, b.rhs))
                t, env = body, inner
                continue

            case Case(_, scrut, branches):
                st.tick("case", t, env)
                sv = _eval(st, scrut, env)
                con = sv.term
                if not isinstance(con, Con):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "case", "",
                                     "case scrutinee is not a constructor")
                branch = next((b for b in branches if b.con == con.name),
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
                t = branch.body
                continue

            case Prim(name, args):
                return _eval_prim(st, t, env, name, args)

            case _:
                raise AssertionError(f"cannot evaluate {t!r}")


def _force_int(st: _State, prim: str, arg: Term, env: Env) -> int:
    v = _eval(st, arg, env)
    if not isinstance(v.term, IntLit):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, prim, "",
                         f"'{prim}' needs an integer, got "
                         f"{summarize(v.term, v.env)}")
    return v.term.value


def _force_cell(st: _State, prim: str, arg: Term, env: Env,
                want_frozen: bool) -> tuple[str, Cell]:
    v = _eval(st, arg, env)
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
    return name, cell


def _check_bounds(st: _State, prim: str, name: str, cell: Cell,
                  i: int) -> None:
    if not 0 <= i < len(cell.elems):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, prim, name,
                         f"index {i} out of bounds for array of size "
                         f"{len(cell.elems)}")


def _eval_prim(st: _State, t: Prim, env: Env, name: str,
               args: tuple[Term, ...]) -> Clo:
    heap = st.heap.bindings
    arity = len(PRIM_ARG_MULTS.get(name, ()))
    if len(args) < arity:  # reachable only without the typechecker
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "prim", "",
                         f"primitive '{name}' expects {arity} arguments, "
                         f"got {len(args)}")
    match name:
        case "newMArray":
            st.tick("newMArray", t, env)
            st.newmarray_count += 1
            size = _force_int(st, name, args[0], env)
            if size < 0:
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                                 f"negative array size {size}")
            assert isinstance(args[1], Var) and isinstance(args[2], Var)
            cell_name = st.fresh(CELL_PREFIX)
            heap[cell_name] = Cell(False, [env.get(args[1].name,
                                                   args[1].name)] * size)
            st.cell_allocs += 1
            x = st.fresh(FRESH_PREFIX)
            inner: Term = Let(
                mult=ONE,
                binds=(LetBind(x, None, ArrName(cell_name)),),  # type: ignore[arg-type]
                body=App(args[2], Var(x)))
            result = _eval(st, inner, env)
            value = result.term
            if not (isinstance(value, Con) and value.name == "Unrestricted"
                    and len(value.args) == 1):
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                                 "array continuation did not return an "
                                 "Unrestricted value")
            return result

        case "write":
            st.tick("write", t, env)
            st.write_count += 1
            i = _force_int(st, name, args[1], env)
            cell_name, cell = _force_cell(st, name, args[0], env,
                                          want_frozen=False)
            _check_bounds(st, name, cell_name, cell, i)
            assert isinstance(args[2], Var)
            # in place; no allocation
            cell.elems[i] = env.get(args[2].name, args[2].name)
            return Clo(ArrName(cell_name))

        case "freeze":
            st.tick("freeze", t, env)
            cell_name, cell = _force_cell(st, name, args[0], env,
                                          want_frozen=False)
            cell.frozen = True  # retag in place
            alias = st.fresh(FRESH_PREFIX)
            heap[alias] = Clo(ArrName(cell_name))
            return Clo(Con("Unrestricted", (), (), (Var(alias),)))

        case "index":
            st.tick("index", t, env)
            i = _force_int(st, name, args[1], env)
            cell_name, cell = _force_cell(st, name, args[0], env,
                                          want_frozen=True)
            _check_bounds(st, name, cell_name, cell, i)
            return _eval(st, Var(cell.elems[i]), EMPTY_ENV)

        case "add" | "sub" | "mul" | "eq" | "lt":
            st.tick("prim", t, env)
            a = _force_int(st, name, args[0], env)
            b = _force_int(st, name, args[1], env)
            return Clo(arith(name, a, b))

        case _:
            raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "prim", "",
                             f"unknown primitive '{name}'")
