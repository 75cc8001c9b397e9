"""Differential and property testing for the two evaluators.

``gen_welltyped`` builds random closed programs of ground type by threading
a budget of must-use-exactly-once variables through the productions, so
linear binders are consumed by construction; every emitted program is
verified with the typechecker before being handed out.  ``bisim_run``
evaluates one program under both semantics and compares the fully forced
ground results.  ``fuzz`` combines generation, progress and preservation
checking, and agreement into one summary, with one pure run per program:
the checked run is also the pure side of the agreement check.  Any
violation is dumped as a reproducer file in surface syntax (re-runnable
with the default prelude, so reproducers carry no datatype declarations
of their own).
"""

from __future__ import annotations

import dataclasses
import functools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from .diagnostics import CheckError
from .eval_ordinary import EvalResult, Heap, eval_term, force_variable
from .eval_pure import (PreservationViolation, PureResult, eval_pure,
                        force_pure_variable, initial_state)
# not called here, but perfbench/tracing.py wraps it in this namespace
from .eval_pure import instrumented_eval  # noqa: F401
from .multiplicity import NF_ONE, mult_normalize
from .parser import parse_prelude
from .pretty import show_program
from .runtime import Outcome, OutcomeKind
from .syntax import (App, Branch, Case, Con, DataDecl, INT, IntLit, Lam, Let,
                     LetBind, MVar, MultApp, MultExpr, MultLam, OMEGA, ONE,
                     Prim, TArrow, TData, TForall, TMArray, Term, Type, Var)
from .translate import to_sharing
from .typecheck import CheckedProgram, TypeEnv, check_program, instantiate_con

BOOL = TData("Bool")
PAIR_II = TData("Pair", (ONE, ONE), (INT, INT))
LIST_INT = TData("List", (), (INT,))
UNR_INT = TData("Unrestricted", (), (INT,))


@functools.cache
def _prelude_decls() -> tuple[DataDecl, ...]:
    """The generator's datatype pool: the shipped prelude, so reproducer
    files need no declarations of their own."""
    return tuple(parse_prelude().decls)


SUMLIST_DEF = (
    "sumlist",
    TArrow(LIST_INT, ONE, INT),
    OMEGA,
    Lam(ONE, "xs", LIST_INT,
        Case(ONE, Var("xs"),
             (Branch("Nil", (), IntLit(0)),
              Branch("Cons", ("h", "t"),
                     Prim("add", (Var("h"),
                                  App(Var("sumlist"), Var("t")))))))),
)


class GenerationExhausted(Exception):
    pass


MAX_RETRIES = 20  # generation attempts per program


@dataclass
class GenConfig:
    seed: int = 0
    max_depth: int = 5
    array_prob: float = 0.3
    target: str = "Int"  # "Int" or "Bool"

    def validate(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 <= self.array_prob <= 1.0:
            raise ValueError("array_prob must lie in [0, 1]")
        if self.target not in ("Int", "Bool"):
            raise ValueError("target must be 'Int' or 'Bool'")


@dataclass
class GenProgram:
    decls: list[DataDecl]
    defs: list[tuple]
    main: Term
    # the typechecker's verdict on this program, set by ``gen_welltyped``
    checked: Optional[CheckedProgram] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Generation

class _Gen:
    """One generation attempt.  ``lin`` maps variables that must be used
    exactly once to their types; ``omega`` maps freely usable variables."""

    def __init__(self, rng: random.Random, cfg: GenConfig) -> None:
        self.rng = rng
        self.cfg = cfg
        self.counter = 0
        self.uses_list = False

    def fresh(self) -> str:
        self.counter += 1
        return f"g{self.counter}"

    def split(self, lin: dict[str, Type]) -> tuple[dict, dict]:
        items = list(lin.items())
        self.rng.shuffle(items)
        cut = self.rng.randint(0, len(items))
        return dict(items[:cut]), dict(items[cut:])

    def pick_mult(self) -> MultExpr:
        return self.rng.choices([ONE, OMEGA], weights=[2.0, 2.0])[0]

    # -- leaf discharging ---------------------------------------------------

    def settle_int(self, lin: dict[str, Type],
                   omega: dict[str, Type]) -> Term:
        """Consume every pending linear variable exactly once, producing
        an Int.  Always succeeds; used at depth zero."""
        parts: list[Term] = []
        for v, ty in lin.items():
            parts.append(self.consume_once(v, ty, omega))
        if not parts:
            if omega and self.rng.random() < 0.4:
                ints = [x for x, ty in omega.items() if ty == INT]
                if ints:
                    return Var(self.rng.choice(ints))
            return IntLit(self.rng.randint(0, 9))
        out = parts[0]
        for p in parts[1:]:
            out = Prim("add", (out, p))
        return out

    def consume_once(self, v: str, ty: Type,
                     omega: dict[str, Type]) -> Term:
        """An Int-valued term consuming ``v`` exactly once."""
        if ty == INT:
            return Var(v)
        if ty == BOOL:
            return Case(ONE, Var(v), (Branch("True", (), IntLit(1)),
                                      Branch("False", (), IntLit(0))))
        if ty == PAIR_II:
            a, b = self.fresh(), self.fresh()
            return Case(ONE, Var(v),
                        (Branch("MkPair", (a, b),
                                Prim("add", (Var(a), Var(b)))),))
        if ty == UNR_INT:
            x = self.fresh()
            return Case(ONE, Var(v), (Branch("Unrestricted", (x,), Var(x)),))
        if ty == LIST_INT:
            self.uses_list = True
            return App(Var("sumlist"), Var(v))
        raise AssertionError(f"no consumer for {ty}")

    # -- typed generators ---------------------------------------------------

    def gen(self, ty: Type, lin: dict[str, Type], omega: dict[str, Type],
            depth: int) -> Term:
        if ty == INT:
            return self.gen_int(lin, omega, depth)
        if ty == BOOL:
            return self.gen_bool(lin, omega, depth)
        if ty == PAIR_II:
            return self.gen_pair(lin, omega, depth)
        if ty == LIST_INT:
            return self.gen_list(lin, omega, depth)
        if ty == UNR_INT:
            return self.gen_unr(lin, omega, depth)
        raise AssertionError(f"no generator for {ty}")

    def bindable_types(self) -> list[Type]:
        return [INT, BOOL, PAIR_II, LIST_INT]

    def gen_int(self, lin: dict[str, Type], omega: dict[str, Type],
                depth: int) -> Term:
        rng = self.rng
        if depth <= 0:
            return self.settle_int(lin, omega)
        # one linear variable of the right type may be the whole term
        if len(lin) == 1 and rng.random() < 0.2:
            (v, ty), = lin.items()
            if ty == INT:
                return Var(v)
        productions = ["arith", "let1", "letw", "beta", "casebool",
                       "pair_elim", "list_sum"]
        if rng.random() < self.cfg.array_prob:
            productions.append("array")
        if rng.random() < 0.2:
            productions.append("poly")
        match rng.choice(productions):
            case "arith":
                la, lb = self.split(lin)
                op = rng.choice(["add", "sub", "mul"])
                return Prim(op, (self.gen_int(la, omega, depth - 1),
                                 self.gen_int(lb, omega, depth - 1)))
            case "let1":
                la, lb = self.split(lin)
                y = self.fresh()
                ty = rng.choice(self.bindable_types())
                rhs = self.gen(ty, la, omega, depth - 1)
                body = self.gen_int({**lb, y: ty}, omega, depth - 1)
                return Let(ONE, (LetBind(y, ty, rhs),), body)
            case "letw":
                y = self.fresh()
                rhs = self.gen_int({}, omega, depth - 1)
                body = self.gen_int(lin, {**omega, y: INT}, depth - 1)
                return Let(OMEGA, (LetBind(y, INT, rhs),), body)
            case "beta":
                la, lb = self.split(lin)
                y = self.fresh()
                ty = rng.choice(self.bindable_types())
                arg = self.gen(ty, la, omega, depth - 1)
                body = self.gen_int({**lb, y: ty}, omega, depth - 1)
                return App(Lam(ONE, y, ty, body), arg)
            case "casebool":
                la, lb = self.split(lin)
                scrut = self.gen_bool(la, omega, depth - 1)
                then = self.gen_int(dict(lb), omega, depth - 1)
                other = self.gen_int(dict(lb), omega, depth - 1)
                return Case(ONE, scrut, (Branch("True", (), then),
                                         Branch("False", (), other)))
            case "pair_elim":
                la, lb = self.split(lin)
                scrut = self.gen_pair(la, omega, depth - 1)
                a, b = self.fresh(), self.fresh()
                body = self.gen_int({**lb, a: INT, b: INT}, omega, depth - 1)
                return Case(ONE, scrut, (Branch("MkPair", (a, b), body),))
            case "list_sum":
                self.uses_list = True
                la, lb = self.split(lin)
                lst = self.gen_list(la, omega, depth - 1)
                rest = self.gen_int(lb, omega, depth - 1)
                return Prim("add", (App(Var("sumlist"), lst), rest))
            case "array":
                return self.gen_array_int(lin, omega, depth)
            case "poly":
                return self.gen_poly_int(lin, omega, depth)
        raise AssertionError


    def gen_bool(self, lin: dict[str, Type], omega: dict[str, Type],
                 depth: int) -> Term:
        rng = self.rng
        if depth <= 0:
            if lin:
                return Prim("lt", (self.settle_int(lin, omega),
                                   IntLit(rng.randint(1, 10))))
            return Con(rng.choice(["True", "False"]), (), (), ())
        match rng.choice(["cmp", "not", "casebool", "let1"]):
            case "cmp":
                la, lb = self.split(lin)
                op = rng.choice(["eq", "lt"])
                return Prim(op, (self.gen_int(la, omega, depth - 1),
                                 self.gen_int(lb, omega, depth - 1)))
            case "not":
                inner = self.gen_bool(lin, omega, depth - 1)
                return Case(ONE, inner,
                            (Branch("True", (), Con("False", (), (), ())),
                             Branch("False", (), Con("True", (), (), ()))))
            case "casebool":
                la, lb = self.split(lin)
                scrut = self.gen_bool(la, omega, depth - 1)
                then = self.gen_bool(dict(lb), omega, depth - 1)
                other = self.gen_bool(dict(lb), omega, depth - 1)
                return Case(ONE, scrut, (Branch("True", (), then),
                                         Branch("False", (), other)))
            case "let1":
                la, lb = self.split(lin)
                y = self.fresh()
                rhs = self.gen_int(la, omega, depth - 1)
                body = self.gen_bool({**lb, y: INT}, omega, depth - 1)
                return Let(ONE, (LetBind(y, INT, rhs),), body)
        raise AssertionError

    def gen_pair(self, lin: dict[str, Type], omega: dict[str, Type],
                 depth: int) -> Term:
        la, lb = self.split(lin)
        return Con("MkPair", (INT, INT), (ONE, ONE),
                   (self.gen_int(la, omega, max(0, depth - 1)),
                    self.gen_int(lb, omega, max(0, depth - 1))))

    def gen_list(self, lin: dict[str, Type], omega: dict[str, Type],
                 depth: int) -> Term:
        self.uses_list = True
        n = self.rng.randint(0, 2 + (depth > 1))
        parts: list[dict[str, Type]] = []
        rest = dict(lin)
        for _ in range(n):
            la, rest = self.split(rest)
            parts.append(la)
        out: Term = Con("Nil", (INT,), (), ())
        if n == 0 and rest:
            # no cells to absorb the linear context; settle it into one cell
            parts, rest, n = [rest], {}, 1
        for la in reversed(parts):
            head = self.gen_int(la, omega, max(0, depth - 1))
            out = Con("Cons", (INT,), (), (head, out))
        if rest:
            la = rest
            head = self.gen_int(la, omega, max(0, depth - 1))
            out = Con("Cons", (INT,), (), (head, out))
        return out

    def gen_unr(self, lin: dict[str, Type], omega: dict[str, Type],
                depth: int) -> Term:
        # the field is unrestricted, so no linear variable may cross it
        inner = self.gen_int({}, omega, max(0, depth - 1))
        wrapped: Term = Con("Unrestricted", (INT,), (), (inner,))
        if lin:
            y = self.fresh()
            return Let(ONE, (LetBind(y, INT, self.settle_int(lin, omega)),),
                       _seq_int(y, wrapped))
        return wrapped

    def gen_array_int(self, lin: dict[str, Type], omega: dict[str, Type],
                      depth: int) -> Term:
        """Allocate, write a few slots, freeze, then index; pending linear
        variables are consumed next to the indexing."""
        rng = self.rng
        size = rng.randint(1, 3)
        init = self.gen_int({}, omega, max(0, depth - 2))
        chain: Term = Var("ma")
        for _ in range(rng.randint(0, 2)):
            chain = Prim("write", (chain, IntLit(rng.randrange(size)),
                                   self.gen_int({}, omega,
                                                max(0, depth - 2))))
        cont = Lam(ONE, "ma", TMArray(INT), Prim("freeze", (chain,)))
        pipeline = Prim("newMArray", (IntLit(size), init, cont))
        arr = self.fresh()
        reads: Term = Prim("index", (Var(arr), IntLit(rng.randrange(size))))
        if rng.random() < 0.5:
            reads = Prim("add", (reads, Prim("index",
                                             (Var(arr),
                                              IntLit(rng.randrange(size))))))
        if lin:
            reads = Prim("add", (reads,
                                 self.gen_int(lin, omega, depth - 1)))
        return Case(ONE, pipeline,
                    (Branch("Unrestricted", (arr,), reads),))

    def gen_poly_int(self, lin: dict[str, Type], omega: dict[str, Type],
                     depth: int) -> Term:
        """Route the computation through a multiplicity-polymorphic
        application combinator instantiated at 1 or w."""
        rng = self.rng
        ap = self.fresh()
        f, x = self.fresh(), self.fresh()
        ap_ty = TForall("p", TArrow(TArrow(INT, MVar("p"), INT), ONE,
                                    TArrow(INT, MVar("p"), INT)))
        ap_rhs = MultLam("p", Lam(ONE, f, TArrow(INT, MVar("p"), INT),
                                  Lam(MVar("p"), x, INT,
                                      App(Var(f), Var(x)))))
        inst = self.pick_mult()
        la, lb = self.split(lin)
        y = self.fresh()
        if inst == ONE:
            fn_body = self.gen_int({**la, y: INT}, omega, depth - 1)
            arg = self.gen_int(lb, omega, depth - 1)
        else:
            fn_body = self.gen_int(dict(la), {**omega, y: INT}, depth - 1)
            arg = self.gen_int({}, omega, depth - 1)
            if lb:
                fn_body = Prim("add", (fn_body,
                                       self.gen_int(lb, omega, depth - 1)))
        fn = Lam(inst, y, INT, fn_body)
        call = App(App(MultApp(Var(ap), inst), fn), arg)
        return Let(OMEGA, (LetBind(ap, ap_ty, ap_rhs),), call)

    # -- program assembly ---------------------------------------------------

    def program(self) -> GenProgram:
        target = INT if self.cfg.target == "Int" else BOOL
        main = self.gen(target, {}, {}, self.cfg.max_depth)
        defs = [SUMLIST_DEF] if self.uses_list else []
        return GenProgram(list(_prelude_decls()), defs, main)


def _seq_int(consumed_var: str, result: Term) -> Term:
    """Consume an Int binding for effect, then produce ``result``: realized
    as a True/False case on a comparison so nothing is discarded."""
    return Case(ONE, Prim("lt", (Var(consumed_var), IntLit(0))),
                (Branch("True", (), result), Branch("False", (), result)))


def gen_welltyped(cfg: GenConfig) -> GenProgram:
    """A closed well-typed program of the configured ground type; verified
    with the typechecker, whose result is kept in ``checked``."""
    cfg.validate()
    rng = random.Random(f"lq:{cfg.seed}")
    last_error: Optional[CheckError] = None
    for _ in range(MAX_RETRIES):
        gen = _Gen(rng, cfg)
        prog = gen.program()
        try:
            prog.checked = check_program(prog.decls, prog.defs, prog.main)
            return prog
        except CheckError as exc:  # pragma: no cover - generator soundness
            last_error = exc
    raise GenerationExhausted(
        f"no well-typed program after {MAX_RETRIES} attempts: "
        f"{last_error}")


# ---------------------------------------------------------------------------
# Ground values and deep forcing

ValueTree = Union[tuple]  # ("int", n) | ("con", name, (children...)) | ("opaque", kind)


def is_ground_type(ty: Type, env: TypeEnv,
                   _seen: Optional[frozenset] = None) -> bool:
    seen = _seen or frozenset()
    match ty:
        case t if t == INT:
            return True
        case TData(name, margs, targs):
            key = (name, targs)
            if key in seen:
                return True  # recursive occurrence, fine
            decl = env.decls.get(name)
            if decl is None:
                return False
            inner = seen | {key}
            for c in decl.constructors:
                fields, _ = instantiate_con(env, c.name, targs, margs)
                for fty, _ in fields:
                    if not is_ground_type(fty, env, inner):
                        return False
            return True
        case _:
            return False


def deep_force(value: Term,
               force_field: Callable[[Con, int], Outcome]
               ) -> tuple[ValueTree, bool]:
    """Fully force a ground result; returns (tree, ok).  ``force_field``
    forces field ``i`` of a constructor value in its evaluator."""
    match value:
        case IntLit(n):
            return ("int", n), True
        case Con(name, _, _, args):
            children = []
            for i in range(len(args)):
                out = force_field(value, i)
                if not out.is_value:
                    return ("opaque", out.kind.value), False
                tree, ok = deep_force(out.value, force_field)
                if not ok:
                    return tree, False
                children.append(tree)
            return ("con", name, tuple(children)), True
        case _:
            return ("opaque", type(value).__name__), False


def _field_name(con: Con, i: int) -> str:
    arg = con.args[i]
    assert isinstance(arg, Var)
    return arg.name


def deep_force_ordinary(res: EvalResult, value: Term,
                        fuel: int) -> tuple[ValueTree, bool]:
    return deep_force(value, lambda con, i: force_variable(
        res, _field_name(con, i), fuel).outcome)


def deep_force_pure(res: PureResult, value: Term, env: TypeEnv,
                    fuel: int) -> tuple[ValueTree, bool]:
    """As ``deep_force_ordinary``; each field is forced at the demand of
    its declared multiplicity."""
    def force_field(con: Con, i: int) -> Outcome:
        fields, _ = instantiate_con(env, con.name, con.type_args,
                                    con.mult_args)
        demand = ONE if mult_normalize(fields[i][1]) == NF_ONE else OMEGA
        return force_pure_variable(res, _field_name(con, i), demand,
                                   fuel).outcome
    return deep_force(value, force_field)


# ---------------------------------------------------------------------------
# Differential runs

@dataclass
class DiffReport:
    program_id: str
    ordinary_outcome: str
    pure_outcome: str
    agree: bool
    fuel: int
    ordinary_steps: int
    pure_steps: int
    ordinary_value: Optional[ValueTree] = None
    pure_value: Optional[ValueTree] = None
    ordinary_allocs: int = 0
    ordinary_newmarrays: int = 0
    ordinary_writes: int = 0
    pure_allocs: int = 0
    pure_copies: int = 0


def bisim_run(decls: list[DataDecl], defs: list, main: Term, fuel: int,
              program_id: str = "<program>") -> DiffReport:
    checked = check_program(decls, defs, main)
    if not is_ground_type(checked.ty, checked.env):
        raise ValueError(f"{program_id}: result type is not ground")
    return _bisim(checked, to_sharing(checked.term, checked.env), fuel,
                  program_id)


def _bisim(checked: CheckedProgram, sharing: Term, fuel: int,
           program_id: str, pres: Optional[PureResult] = None) -> DiffReport:
    """Run a checked program's sharing form under both semantics and
    compare the fully forced results.  ``pres``, if given, is the pure
    run to compare, with its state checks switched off."""
    ores = eval_term(Heap(), sharing, fuel)
    if pres is None:
        pres = eval_pure(initial_state(sharing, checked.ty, checked.env),
                         fuel)
    report = DiffReport(
        program_id=program_id,
        ordinary_outcome=ores.outcome.kind.value,
        pure_outcome=pres.outcome.kind.value,
        agree=False,
        fuel=fuel,
        ordinary_steps=ores.steps,
        pure_steps=pres.steps,
        ordinary_allocs=ores.cell_allocs,
        ordinary_newmarrays=ores.newmarray_count,
        ordinary_writes=ores.write_count,
        pure_allocs=pres.array_allocs,
        pure_copies=pres.array_copies,
    )
    if ores.outcome.is_value and pres.outcome.is_value:
        otree, ook = deep_force_ordinary(ores, ores.outcome.value, fuel)
        ptree, pok = deep_force_pure(pres, pres.outcome.value, checked.env,
                                     fuel)
        report.ordinary_value = otree
        report.pure_value = ptree
        report.agree = ook and pok and otree == ptree
    elif (ores.outcome.kind is OutcomeKind.OUT_OF_FUEL
          and pres.outcome.kind is OutcomeKind.OUT_OF_FUEL):
        report.agree = True
    # the two semantics apply their rules in step: equal step counts
    report.agree = report.agree and ores.steps == pres.steps
    return report


# ---------------------------------------------------------------------------
# Fuzzing

@dataclass
class FuzzSummary:
    count: int
    fuel: int
    seed: int
    progress_violations: int = 0
    preservation_violations: int = 0
    disagreements: int = 0
    blackholes: int = 0
    fuel_outs: int = 0
    generation_failures: int = 0
    state_checks: int = 0
    reproducers: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0  # wall time of the whole loop

    @property
    def clean(self) -> bool:
        return (self.progress_violations == 0
                and self.preservation_violations == 0
                and self.disagreements == 0)

    def table(self) -> str:
        rows = [
            ("programs", self.count),
            ("progress violations", self.progress_violations),
            ("preservation violations", self.preservation_violations),
            ("disagreements", self.disagreements),
            ("blackholes", self.blackholes),
            ("fuel exhaustions", self.fuel_outs),
            ("generation failures", self.generation_failures),
            ("state checks", self.state_checks),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value:>8}" for name, value in rows]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "fuel": self.fuel,
            "seed": self.seed,
            "progress_violations": self.progress_violations,
            "preservation_violations": self.preservation_violations,
            "disagreements": self.disagreements,
            "blackholes": self.blackholes,
            "fuel_outs": self.fuel_outs,
            "generation_failures": self.generation_failures,
            "state_checks": self.state_checks,
            "reproducers": list(self.reproducers),
            "elapsed_s": self.elapsed_s,
            "programs_per_s": self.count / self.elapsed_s,
            "state_checks_per_s": self.state_checks / self.elapsed_s,
        }


def _dump_reproducer(prog: GenProgram, directory: Path, seed: int,
                     index: int) -> str:
    # declarations are the prelude's, so only defs and main are written
    text = show_program([], prog.defs, prog.main)
    path = directory / f"lq-repro-{seed}-{index}.lq"
    path.write_text(text, encoding="utf-8")
    return str(path)


def fuzz(cfg: GenConfig, count: int, fuel: int,
         repro_dir: Optional[str] = None) -> FuzzSummary:
    """Generate ``count`` programs; check progress, preservation and
    agreement on each.  Violations are counted and dumped; blackholes and
    fuel exhaustion are tracked separately."""
    if count < 1:
        raise ValueError("count must be >= 1")
    cfg.validate()
    summary = FuzzSummary(count=count, fuel=fuel, seed=cfg.seed)
    directory = Path(repro_dir) if repro_dir else Path.cwd()
    start = time.perf_counter()
    for i in range(count):
        sub_cfg = dataclasses.replace(cfg, seed=hash((cfg.seed, i)) & 0xFFFFFFFF)
        try:
            prog = gen_welltyped(sub_cfg)
        except GenerationExhausted:
            summary.generation_failures += 1
            continue
        checked = prog.checked
        sharing = to_sharing(checked.term, checked.env)
        program_id = f"fuzz-{cfg.seed}-{i}"
        # one pure run serves both preservation and agreement
        state = initial_state(sharing, checked.ty, checked.env)
        try:
            pres = eval_pure(state, fuel, check=True)
            summary.state_checks += pres.check_count
            pres.state.check = False  # forcing the result checks nothing
            preserved = True
        except PreservationViolation:
            pres = eval_pure(state, fuel)
            preserved = False
        report = _bisim(checked, sharing, fuel, program_id, pres)
        blocked = OutcomeKind.BLOCKED.value
        if report.ordinary_outcome == blocked or report.pure_outcome == blocked:
            summary.progress_violations += 1
            summary.reproducers.append(
                _dump_reproducer(prog, directory, cfg.seed, i))
        elif not report.agree:
            if (report.ordinary_outcome == report.pure_outcome
                    == OutcomeKind.BLACKHOLE.value):
                summary.blackholes += 1
            else:  # one running out of fuel alone is a step mismatch too
                summary.disagreements += 1
                summary.reproducers.append(
                    _dump_reproducer(prog, directory, cfg.seed, i))
        elif report.ordinary_outcome == OutcomeKind.OUT_OF_FUEL.value:
            summary.fuel_outs += 1
        if not preserved:
            summary.preservation_violations += 1
            summary.reproducers.append(
                _dump_reproducer(prog, directory, cfg.seed, i))
    summary.elapsed_s = time.perf_counter() - start
    return summary
