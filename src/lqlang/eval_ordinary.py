"""The ordinary big-step semantics: lazy evaluation with a mutable heap.

The heap holds two kinds of bindings: suspensions (always unrestricted;
forcing one overwrites it with its value, which is how sharing is
modelled) and array cells, which are mutated in place by ``write`` and
retagged from mutable to frozen by ``freeze``.  Typestate is checked
dynamically here: ``write`` and ``freeze`` block on a frozen cell and
``index`` blocks on a mutable one.  On well-typed programs these blocks
never fire, which the harness checks empirically.

Evaluation is fuel-bounded.  Running out of fuel is not an error: it is a
partial run that more fuel would extend, and is reported as its own
outcome.  Forcing a suspension that is already being forced reports a
blackhole (ill-founded recursion through unrestricted bindings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .pretty import summarize
from .runtime import BlockReason, Machine, Outcome, TraceRecord
from .syntax import (App, ArrName, ArrayLit, Case, Con, IntLit, Lam, Let,
                     LetBind, MultApp, MultLam, ONE, Prim, Term, Type, Var,
                     is_omega_mult, rename_vars, term_subst_mult)

FRESH_PREFIX = "%h"
CELL_PREFIX = "%a"


@dataclass
class Susp:
    term: Term
    ann: Optional[Type] = None


@dataclass
class Cell:
    frozen: bool
    elems: list[str]


Binding = Union[Susp, Cell]


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
    return _finish(st, lambda: _eval(st, t))


def trace_eval(heap: Heap, t: Term, fuel: int) -> tuple[Outcome, list[TraceRecord]]:
    r = eval_term(heap, t, fuel, want_trace=True)
    return r.outcome, r.trace


def force_variable(prev: EvalResult, name: str, fuel: int) -> EvalResult:
    """Force one more variable under an existing final heap (used to read
    constructor fields out of a result).  Counters keep accumulating."""
    st = prev.state
    st.fuel = fuel
    return _finish(st, lambda: _eval(st, Var(name)))


def _eval(st: _State, t: Term) -> Term:
    heap = st.heap.bindings
    while True:
        match t:
            case Lam():
                st.tick("abs", t)
                return t
            case MultLam():
                st.tick("m.abs", t)
                return t
            case IntLit():
                st.tick("int", t)
                return t
            case Con():
                st.tick("constructor", t)
                return t
            case ArrayLit():
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "value", "",
                                 "array values do not occur in this semantics")

            case ArrName(l):
                st.tick("mutable cell", t)
                if not isinstance(heap.get(l), Cell):
                    raise st.blocked(BlockReason.MISSING_LINEAR_BINDING,
                                     "mutable cell", l,
                                     f"no array cell named '{l}'")
                return t

            case Var(x):
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
                st.tick("variable", t)
                st.forcing.add(x)
                try:
                    value = _eval(st, binding.term)
                finally:
                    st.forcing.discard(x)
                heap[x] = Susp(value, binding.ann)
                return value

            case App(fun, arg):
                assert isinstance(arg, Var), "term must be in sharing form"
                st.tick("application", t)
                fv = _eval(st, fun)
                if not isinstance(fv, Lam):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE,
                                     "application", "",
                                     "application head is not a function")
                t = rename_vars(fv.body, {fv.var: arg.name})
                continue

            case MultApp(fun, m):
                st.tick("m.app", t)
                fv = _eval(st, fun)
                if not isinstance(fv, MultLam):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "m.app",
                                     "", "multiplicity application head is "
                                         "not a multiplicity abstraction")
                t = term_subst_mult(fv.body, fv.param, m)
                continue

            case Let(mult, binds, body):
                st.tick("let", t)
                ren = {b.var: st.fresh(FRESH_PREFIX) for b in binds}
                # only w-groups are recursive: a 1-group's right-hand side
                # is outside the scope of its own binders
                rhs_ren = ren if is_omega_mult(mult) else {}
                for b in binds:
                    heap[ren[b.var]] = Susp(rename_vars(b.rhs, rhs_ren),
                                            b.var_ty)
                t = rename_vars(body, ren)
                continue

            case Case(_, scrut, branches):
                st.tick("case", t)
                sv = _eval(st, scrut)
                if not isinstance(sv, Con):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "case", "",
                                     "case scrutinee is not a constructor")
                branch = next((b for b in branches if b.con == sv.name), None)
                if branch is None:
                    raise st.blocked(BlockReason.MISSING_BRANCH, "case",
                                     sv.name,
                                     f"no branch for constructor '{sv.name}'")
                if len(branch.binders) != len(sv.args):
                    raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "case",
                                     sv.name, "branch arity mismatch")
                mapping = {y: a.name for y, a in zip(branch.binders, sv.args)}  # type: ignore[union-attr]
                t = rename_vars(branch.body, mapping)
                continue

            case Prim(name, args):
                result = _eval_prim(st, t, name, args)
                if isinstance(result, _Continue):
                    t = result.term
                    continue
                return result

            case _:
                raise AssertionError(f"cannot evaluate {t!r}")


@dataclass
class _Continue:
    term: Term


def _force_int(st: _State, prim: str, arg: Term) -> int:
    v = _eval(st, arg)
    if not isinstance(v, IntLit):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, prim, "",
                         f"'{prim}' needs an integer, got {summarize(v)}")
    return v.value


def _force_cell(st: _State, prim: str, arg: Term,
                want_frozen: bool) -> tuple[str, Cell]:
    v = _eval(st, arg)
    if not isinstance(v, ArrName):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, prim, "",
                         f"'{prim}' needs an array, got {summarize(v)}")
    cell = st.heap.bindings.get(v.name)
    if not isinstance(cell, Cell):
        raise st.blocked(BlockReason.MISSING_LINEAR_BINDING, prim, v.name,
                         f"no array cell named '{v.name}'")
    if cell.frozen != want_frozen:
        state = "frozen" if cell.frozen else "mutable"
        raise st.blocked(BlockReason.TYPESTATE_VIOLATION, prim, v.name,
                         f"'{prim}' applied to a {state} array")
    return v.name, cell


def _check_bounds(st: _State, prim: str, name: str, cell: Cell,
                  i: int) -> None:
    if not 0 <= i < len(cell.elems):
        raise st.blocked(BlockReason.PRIMITIVE_MISUSE, prim, name,
                         f"index {i} out of bounds for array of size "
                         f"{len(cell.elems)}")


def _eval_prim(st: _State, t: Prim, name: str,
               args: tuple[Term, ...]) -> Term | _Continue:
    heap = st.heap.bindings
    match name:
        case "newMArray":
            st.tick("newMArray", t)
            st.newmarray_count += 1
            size = _force_int(st, name, args[0])
            if size < 0:
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                                 f"negative array size {size}")
            assert isinstance(args[1], Var) and isinstance(args[2], Var)
            cell_name = st.fresh(CELL_PREFIX)
            heap[cell_name] = Cell(False, [args[1].name] * size)
            st.cell_allocs += 1
            x = st.fresh(FRESH_PREFIX)
            inner: Term = Let(
                mult=ONE,
                binds=(LetBind(x, None, ArrName(cell_name)),),  # type: ignore[arg-type]
                body=App(args[2], Var(x)))
            result = _eval(st, inner)
            if not (isinstance(result, Con) and result.name == "Unrestricted"
                    and len(result.args) == 1):
                raise st.blocked(BlockReason.PRIMITIVE_MISUSE, name, "",
                                 "array continuation did not return an "
                                 "Unrestricted value")
            return result

        case "write":
            st.tick("write", t)
            st.write_count += 1
            i = _force_int(st, name, args[1])
            cell_name, cell = _force_cell(st, name, args[0],
                                          want_frozen=False)
            _check_bounds(st, name, cell_name, cell, i)
            assert isinstance(args[2], Var)
            cell.elems[i] = args[2].name  # in place; no allocation
            return ArrName(cell_name)

        case "freeze":
            st.tick("freeze", t)
            cell_name, cell = _force_cell(st, name, args[0],
                                          want_frozen=False)
            cell.frozen = True  # retag in place
            alias = st.fresh(FRESH_PREFIX)
            heap[alias] = Susp(ArrName(cell_name), None)
            return Con("Unrestricted", (), (), (Var(alias),))

        case "index":
            st.tick("index", t)
            i = _force_int(st, name, args[1])
            cell_name, cell = _force_cell(st, name, args[0],
                                          want_frozen=True)
            _check_bounds(st, name, cell_name, cell, i)
            return _Continue(Var(cell.elems[i]))

        case "add" | "sub" | "mul" | "eq" | "lt":
            st.tick("prim", t)
            a = _force_int(st, name, args[0])
            b = _force_int(st, name, args[1])
            match name:
                case "add":
                    return IntLit(a + b)
                case "sub":
                    return IntLit(a - b)
                case "mul":
                    return IntLit(a * b)
                case "eq":
                    return Con("True" if a == b else "False", (), (), ())
                case "lt":
                    return Con("True" if a < b else "False", (), (), ())

        case _:
            raise st.blocked(BlockReason.PRIMITIVE_MISUSE, "prim", "",
                             f"unknown primitive '{name}'")
    raise AssertionError("unreachable")
