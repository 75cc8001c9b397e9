"""Outcomes, traces, closures and the machine plumbing shared by both
evaluators.

Both evaluators work on closures instead of substituting: a ``Clo`` is a
term paired with an environment (``Env``) from its free source binders to
the names they stand for, and a beta, case or let step extends the
environment rather than copying the body.  A let step cuts each new
closure's environment down to its right-hand side's free variables
(``Machine.trim``), read from the list that the sharing translation gave
the binding as it built it (``LetBind.fv``), so a step never walks the
program.  ``Clo`` is the one closure type of both machines: the ordinary
heap's suspensions and values, and the pure machine's bindings, stack
entries, focus and values.  A closure becomes a term again (``Clo.built``,
``rename_vars``) only where a term is observed: a traced or aborted step, a
final value, or a state encoded whole (``statecheck.encode_state``).  The
pure evaluator's state check types closures as they are.

``Machine`` holds what the two semantics have in common: fuel, the step
count, fresh names, the rule trace, the aborts (fuel, blocked, blackhole)
and the driver that turns a run into an outcome; ``arith`` computes the
integer primitives for both.  Every rule that decides mutation, linear
consumption or typestate stays in its evaluator, so the differential test
still compares two independent semantics.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .pretty import show_term, summarize
from .syntax import Con, INT, LetBind, TData, Term, int_node, rename_vars

# Source binder -> the heap or environment name it stands for.  An
# environment is never changed once built; extending one copies it.  A name
# that is not in the environment stands for itself.
Env = dict[str, str]
EMPTY_ENV: Env = {}


class Clo:
    """A term under an environment.  Its built term (``rename_vars`` of the
    term under the environment) is made once, on first use, and kept for
    ``statecheck.encode_state``, which builds each closure of each state."""

    __slots__ = ("term", "env", "_built")

    def __init__(self, term: Term, env: Env = EMPTY_ENV) -> None:
        self.term = term
        self.env = env
        self._built: Optional[Term] = None

    def built(self) -> Term:
        if self._built is None:
            self._built = rename_vars(self.term, self.env)
        return self._built


# the arithmetic primitives, which both evaluators test for first
ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
         "eq": operator.eq, "lt": operator.lt}
_BOOL = TData("Bool")
# nodes are never changed, so every comparison returns one of these two
_TRUE = Con("True", (), (), (), ty=_BOOL)
_FALSE = Con("False", (), (), (), ty=_BOOL)


def arith(name: str, a: int, b: int) -> Term:
    """The typed value of the primitive ``name`` (``add``, ``sub``, ``mul``,
    ``eq`` or ``lt``) on ``a`` and ``b``: an integer, or ``True``/``False``
    for a comparison."""
    result = ARITH[name](a, b)
    if result is True:
        return _TRUE
    if result is False:
        return _FALSE
    return int_node(result, INT)


class OutcomeKind(enum.Enum):
    VALUE = "value"
    OUT_OF_FUEL = "fuel"
    BLOCKED = "blocked"
    BLACKHOLE = "blackhole"


class BlockReason(enum.Enum):
    MISSING_LINEAR_BINDING = "MissingLinearBinding"
    TYPESTATE_VIOLATION = "TypestateViolation"
    MISSING_BRANCH = "MissingBranch"
    PRIMITIVE_MISUSE = "PrimitiveMisuse"


@dataclass(frozen=True)
class TraceRecord:
    rule: str
    redex: str


@dataclass
class Outcome:
    kind: OutcomeKind
    value: Optional[Term] = None
    reason: Optional[BlockReason] = None
    rule: Optional[str] = None        # rule at which evaluation stopped
    location: Optional[str] = None    # offending variable / cell name
    detail: str = ""                  # head redex summary or explanation
    steps: int = 0

    @property
    def is_value(self) -> bool:
        return self.kind is OutcomeKind.VALUE

    def describe(self) -> str:
        match self.kind:
            case OutcomeKind.VALUE:
                assert self.value is not None
                return show_term(self.value)
            case OutcomeKind.OUT_OF_FUEL:
                return f"out of fuel at: {self.detail}"
            case OutcomeKind.BLOCKED:
                assert self.reason is not None
                where = f" at {self.location}" if self.location else ""
                return (f"blocked ({self.reason.value}) in rule "
                        f"'{self.rule}'{where}: {self.detail}")
            case OutcomeKind.BLACKHOLE:
                return f"blackhole at {self.location}: {self.detail}"
        raise AssertionError(self.kind)


class EvalAbort(Exception):
    """Internal control flow: unwinds an evaluation to its driver."""

    def __init__(self, outcome: Outcome) -> None:
        super().__init__(outcome.kind.value)
        self.outcome = outcome


@dataclass(kw_only=True)
class Machine:
    """The state of one evaluation that does not depend on its semantics;
    each evaluator's state extends it."""

    fuel: int
    steps: int = 0
    fresh_counter: int = 0
    trace: Optional[list[TraceRecord]] = None

    def fresh(self, prefix: str) -> str:
        name = f"{prefix}{self.fresh_counter}"
        self.fresh_counter += 1
        return name

    def trim(self, env: Env, b: LetBind) -> Env:
        """``env`` cut down to the free variables of ``b``'s right-hand
        side, so that a stored closure keeps only the names it can reach.
        The list is the one the sharing translation, or the ``newMArray``
        rule that built ``b``, recorded on it (``LetBind.fv``), so a step
        does not walk the term; a binding without one is a program that
        did not go through the translation."""
        fv = b.fv
        assert fv is not None, (
            f"let binding '{b.var}' has no recorded free-variable list")
        if not env:
            return env
        return {x: env[x] for x in fv if x in env}

    def tick(self, rule: str, redex: Term, env: Env) -> None:
        """Count one rule application to the closure ``redex``/``env``."""
        if self.fuel <= 0:
            raise EvalAbort(Outcome(OutcomeKind.OUT_OF_FUEL,
                                    detail=summarize(redex, env),
                                    steps=self.steps))
        self.fuel -= 1
        self.steps += 1
        if self.trace is not None:
            self.trace.append(TraceRecord(rule,
                                          summarize(redex, env)))

    def blocked(self, reason: BlockReason, rule: str, location: str,
                detail: str) -> EvalAbort:
        return EvalAbort(Outcome(OutcomeKind.BLOCKED, reason=reason,
                                 rule=rule, location=location, detail=detail,
                                 steps=self.steps))

    def blackhole(self, x: str) -> EvalAbort:
        return EvalAbort(Outcome(OutcomeKind.BLACKHOLE, location=x,
                                 detail=f"'{x}' was forced during its own "
                                        f"evaluation", steps=self.steps))

    def drive(self, run: Callable[[], Term]) -> Outcome:
        """Run one evaluation: its value, or the outcome it stopped with."""
        try:
            value = run()
        except EvalAbort as abort:
            return abort.outcome
        return Outcome(OutcomeKind.VALUE, value=value, steps=self.steps)

    @property
    def records(self) -> list[TraceRecord]:
        return self.trace if self.trace is not None else []
