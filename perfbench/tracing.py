"""Spans recorded around calls into lqlang's layers, from outside the
library.

A traced run wraps public functions in the namespace where their caller
looks them up, so nothing under ``src/`` changes.  Recursive functions
(``infer``, ``_eval``, ``deep_force_*``, ``rename_vars``) are never
wrapped: their time falls into the self time of the nearest wrapped
caller.
"""

from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

# (module, attribute, span name).  ``lqlang.eval_pure`` must come from
# importlib: the package rebinds its ``eval_pure`` attribute to the function.
WRAPPED = (
    ("lqlang.harness", "check_program", "typecheck.check_program"),
    ("lqlang.harness", "to_sharing", "translate.to_sharing"),
    ("lqlang.harness", "eval_term", "eval_ordinary.eval_term"),
    ("lqlang.harness", "eval_pure", "eval_pure.eval_pure"),
    ("lqlang.harness", "instrumented_eval", "eval_pure.instrumented_eval"),
    ("lqlang.harness", "gen_welltyped", "harness.gen_welltyped"),
    ("lqlang.harness", "bisim_run", "harness.bisim_run"),
    ("lqlang.eval_pure", "state_welltyped", "eval_pure.state_welltyped"),
)


def _counts(result: Any) -> dict[str, int]:
    """Work counts from an evaluator's own result fields."""
    out = {}
    for attr, key in (("steps", "steps"), ("cell_allocs", "cell_allocs"),
                      ("write_count", "writes"),
                      ("array_allocs", "array_allocs"),
                      ("array_copies", "array_copies"),
                      ("check_count", "state_checks")):
        value = getattr(result, attr, None)
        if isinstance(value, int):
            out[key] = value
    return out


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1
    program: str
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; ``call`` times one call as a child of the
    innermost open span."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.open: list[int] = []
        self.program = ""
        self.extra: dict[str, int] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args: Any, **kw: Any) -> Any:
        index = len(self.spans)
        parent = self.open[-1] if self.open else -1
        self.spans.append(None)
        self.open.append(index)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kw)
            return result
        finally:
            end = perf_counter()
            self.open.pop()
            self.spans[index] = Span(name, start, end, parent, self.program,
                                     _counts(result))

    def reset(self) -> None:
        """Forget what the warm-up recorded."""
        self.spans.clear()
        self.extra.clear()

    def count(self, key: str, value: int) -> None:
        """A count with no result object to read it from."""
        self.extra[key] = self.extra.get(key, 0) + value

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def wrapper(*args, _fn=original, _name=name, **kw):
                return self.call(_name, _fn, *args, **kw)

            setattr(module, attr, functools.wraps(original)(wrapper))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent,
                                     "program": s.program,
                                     "counts": s.counts}) + "\n")


class NullTracer:
    """The untraced run: calls go straight through."""

    enabled = False
    program = ""

    def call(self, name: str, fn: Callable, *args: Any, **kw: Any) -> Any:
        return fn(*args, **kw)

    def count(self, key: str, value: int) -> None:
        pass

    def reset(self) -> None:
        pass


@dataclass
class LayerStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Busy time, self time (busy minus the time direct children cover)
    and summed counts, per span name."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, LayerStats] = {}
    for i, s in enumerate(spans):
        st = out.setdefault(s.name, LayerStats())
        st.calls += 1
        st.busy += s.end - s.start
        st.self_time += s.end - s.start - child_time[i]
        for k, v in s.counts.items():
            st.counts[k] = st.counts.get(k, 0) + v
    return out


def child_calls(spans: list[Span], child: str, parent: str) -> int:
    """How many ``child`` spans ran directly under a ``parent`` span."""
    return sum(1 for s in spans
               if s.name == child and s.parent >= 0
               and spans[s.parent].name == parent)
