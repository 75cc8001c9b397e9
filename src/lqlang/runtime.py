"""Outcomes, traces and the machine plumbing shared by both evaluators.

``Machine`` holds what the two semantics have in common: fuel, the step
count, fresh names, the rule trace, the aborts (fuel, blocked, blackhole)
and the driver that turns a run into an outcome.  Every rule that decides
mutation, linear consumption or typestate stays in its evaluator, so the
differential test still compares two independent semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from .pretty import show_term, summarize
from .syntax import Term


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

    def tick(self, rule: str, redex: Term) -> None:
        if self.fuel <= 0:
            raise EvalAbort(Outcome(OutcomeKind.OUT_OF_FUEL,
                                    detail=summarize(redex),
                                    steps=self.steps))
        self.fuel -= 1
        self.steps += 1
        if self.trace is not None:
            self.trace.append(TraceRecord(rule, summarize(redex)))

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
