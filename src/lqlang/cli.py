"""Command-line driver: check, run and fuzz over ``.lq`` files.

Exit codes are the machine contract: 0 success, 1 rejection / non-value
outcome / disagreement / fuzz violation, 2 usage or I/O error, 3 internal
error (such as Python's recursion limit), reported as one line.
Diagnostics always go to the error stream.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .diagnostics import CheckError
from .eval_ordinary import Heap, eval_term
from .eval_pure import eval_pure, initial_state
from .harness import (GenConfig, deep_force_ordinary, deep_force_pure, fuzz,
                      is_ground_type)
from .parser import SourceFile, parse_prelude, parse_program, prelude_source
from .pretty import show_term, show_type
from .runtime import Outcome, OutcomeKind, TraceRecord
from .syntax import OMEGA
from .translate import to_sharing
from .typecheck import (CheckedProgram, TypeEnv, check_program,
                        elaborate_defs)

DEFAULT_FUEL = 100_000


class Rejected(Exception):
    """The diagnostics of a rejected source file; ``main`` prints each as
    ``FILE:LINE:COL: Kind: message`` and exits with 1."""

    def __init__(self, source: str, exc: CheckError) -> None:
        super().__init__(str(exc))
        self.source = source
        self.diagnostics = exc.diagnostics


def _parse(path: str, **kwargs) -> SourceFile:
    text = open(path, "r", encoding="utf-8").read()
    try:
        return parse_program(text, source=path, **kwargs)
    except CheckError as exc:
        raise Rejected(path, exc) from None


def _check(sf: SourceFile) -> CheckedProgram:
    try:
        return check_program(sf.decls, sf.defs, sf.main)
    except CheckError as exc:
        raise Rejected(sf.source, exc) from None


def _load_prelude() -> SourceFile:
    override = os.environ.get("LLQ_PRELUDE")
    if override:
        return _parse(override, require_main=False)
    return parse_prelude(prelude_source())


def _load(path: str, no_prelude: bool) -> SourceFile:
    base = None if no_prelude else _load_prelude()
    return _parse(path, base=base)


def _tree_text(tree) -> str:
    match tree:
        case ("int", n):
            return str(n)
        case ("con", name, children):
            if not children:
                return name
            parts = [name]
            for c in children:
                s = _tree_text(c)
                parts.append(f"({s})" if " " in s else s)
            return " ".join(parts)
        case ("opaque", kind):
            return f"<{kind}>"
    return str(tree)


def _json_outcome(outcome: Outcome, semantics: str, value_text: Optional[str],
                  trace: Optional[list[TraceRecord]]) -> dict:
    out: dict = {
        "outcome": outcome.kind.value,
        "steps": outcome.steps,
        "semantics": semantics,
    }
    if value_text is not None:
        out["value"] = value_text
    if not outcome.is_value:
        out["reason"] = outcome.reason.value if outcome.reason else None
        out["rule"] = outcome.rule
        out["location"] = outcome.location
        out["detail"] = outcome.detail
    if trace is not None:
        out["trace"] = [{"rule": r.rule, "redex": r.redex} for r in trace]
    return out


def cmd_check(args: argparse.Namespace) -> int:
    checked = _check(_load(args.file, args.no_prelude))
    print(f"main : {show_type(checked.ty)}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    sf = _load(args.file, args.no_prelude)
    semantics = (["ordinary", "pure"] if args.sem == "both" else [args.sem])

    if args.no_typecheck:
        if args.sem != "ordinary":
            print("--no-typecheck supports only --sem=ordinary (the pure "
                  "semantics needs type annotations)", file=sys.stderr)
            return 2
        env = TypeEnv.from_decls(sf.decls)
        program = elaborate_defs(sf.defs, sf.main)
        try:
            sharing = to_sharing(program, env, untyped_arrow_mult=OMEGA)
        except CheckError as exc:
            raise Rejected(sf.source, exc) from None
        checked_ty = None
        checked_env = env
    else:
        checked = _check(sf)
        sharing = to_sharing(checked.term, checked.env)
        checked_ty = checked.ty
        checked_env = checked.env

    ground = (checked_ty is not None
              and is_ground_type(checked_ty, checked_env))
    results = []
    for sem in semantics:
        if sem == "ordinary":
            res = eval_term(Heap(), sharing, args.fuel,
                            want_trace=args.trace)
        else:
            assert checked_ty is not None
            res = eval_pure(initial_state(sharing, checked_ty, checked_env),
                            args.fuel, want_trace=args.trace)
        tree = None
        if res.outcome.is_value and ground:
            if sem == "ordinary":
                tree, ok = deep_force_ordinary(res, res.outcome.value,
                                               args.fuel)
            else:
                tree, ok = deep_force_pure(res, res.outcome.value,
                                           checked_env, args.fuel)
            if not ok:
                tree = None
        text = (_tree_text(tree) if tree is not None
                else show_term(res.outcome.value)
                if res.outcome.is_value else None)
        results.append((sem, res.outcome, tree, text,
                        res.trace if args.trace else None))

    if args.json:
        blobs = [_json_outcome(outcome, sem, text, trace)
                 for sem, outcome, _, text, trace in results]
        print(json.dumps(blobs if len(blobs) > 1 else blobs[0], indent=2))
    else:
        for sem, outcome, _, text, trace in results:
            prefix = f"[{sem}] " if len(results) > 1 else ""
            if trace:
                for r in trace:
                    print(f"{prefix}  {r.rule:<16} {r.redex}")
            if outcome.is_value:
                print(f"{prefix}{text}")
            else:
                print(f"{prefix}{outcome.describe()}")

    if len(results) == 2:
        (_, o1, t1, _, _), (_, o2, t2, _, _) = results
        # as in the fuzzer: the semantics apply their rules in step
        agree = (o1.kind == o2.kind and o1.steps == o2.steps
                 and (t1 == t2 or not ground))
        if not agree:
            print("semantics disagree", file=sys.stderr)
            return 1
        return 0 if o1.kind is OutcomeKind.VALUE else 1
    return 0 if results[0][1].kind is OutcomeKind.VALUE else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    cfg = GenConfig(seed=args.seed, max_depth=args.depth,
                    array_prob=args.array_prob)
    summary = fuzz(cfg, args.count, args.fuel, repro_dir=args.repro_dir)
    if args.json:
        print(json.dumps(summary.to_json(), indent=2))
    else:
        print(summary.table())
        for path in summary.reproducers:
            print(f"reproducer: {path}", file=sys.stderr)
    return 0 if summary.clean else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lq", description="Linearity checker and twin evaluators for "
                               ".lq programs")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck a program")
    p_check.add_argument("file")
    p_check.add_argument("--no-prelude", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="evaluate a program")
    p_run.add_argument("file")
    p_run.add_argument("--sem", choices=["ordinary", "pure", "both"],
                       default="ordinary")
    p_run.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--json", action="store_true")
    p_run.add_argument("--no-prelude", action="store_true")
    p_run.add_argument("--no-typecheck", action="store_true",
                       help="debug: skip the typechecker and run the "
                            "in-place evaluator on an unchecked program")
    p_run.set_defaults(fn=cmd_run)

    p_fuzz = sub.add_parser("fuzz", help="differential fuzzing")
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p_fuzz.add_argument("--depth", type=int, default=5)
    p_fuzz.add_argument("--array-prob", type=float, default=0.3)
    p_fuzz.add_argument("--repro-dir", default=None)
    p_fuzz.add_argument("--json", action="store_true")
    p_fuzz.set_defaults(fn=cmd_fuzz)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    sys.setrecursionlimit(20_000)
    # integer literals and values of any length; the limit is put back for
    # a caller in the same process
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _main(argv: Optional[list[str]]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "fuel", 0) < 0:
            raise ValueError("fuel must be >= 0")
        return args.fn(args)
    except Rejected as exc:
        for d in exc.diagnostics:
            print(f"{exc.source}:{d}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, AssertionError) as exc:
        detail = " ".join(str(exc).split())
        print(f"error: internal error ({type(exc).__name__}): {detail}",
              file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
