"""Observable behaviour of both evaluators, recorded for a regression test.

For every corpus program (accepted ones under both semantics and the
instrumented run, rejected ones under the ordinary semantics without the
typechecker) and for generated programs of seeds 0-199, ``records`` gives
the outcome (kind, reason, rule, location, detail, steps), the fully
forced value, a sha256 of the ``(rule, redex)`` trace and the instrumented
run's state-check count.  ``test_eval_golden.py`` compares it with
``data/eval_golden.json``.

Regenerate the file (only when a change of behaviour is intended) with

    PYTHONPATH=src python tests/eval_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from lqlang.diagnostics import CheckError
from lqlang.eval_ordinary import Heap, eval_term
from lqlang.eval_pure import eval_pure, initial_state, instrumented_eval
from lqlang.harness import (GenConfig, deep_force_ordinary, deep_force_pure,
                            gen_welltyped, is_ground_type)
from lqlang.parser import parse_prelude, parse_program
from lqlang.syntax import OMEGA
from lqlang.translate import to_sharing
from lqlang.typecheck import TypeEnv, check_program, elaborate_defs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "eval_golden.json"
FUEL = 2_000
SEEDS = range(200)


def _outcome(res, tree) -> dict:
    o = res.outcome
    digest = hashlib.sha256(json.dumps(
        [[r.rule, r.redex] for r in res.trace]).encode()).hexdigest()
    return {"kind": o.kind.value,
            "reason": o.reason.value if o.reason else None,
            "rule": o.rule, "location": o.location, "detail": o.detail,
            "steps": o.steps, "value": json.loads(json.dumps(tree)),
            "trace": digest}


def _run_typed(checked) -> dict:
    sharing = to_sharing(checked.term, checked.env)
    ground = is_ground_type(checked.ty, checked.env)
    ores = eval_term(Heap(), sharing, FUEL, want_trace=True)
    otree = (deep_force_ordinary(ores, ores.outcome.value, FUEL)
             if ground and ores.outcome.is_value else None)
    state = initial_state(sharing, checked.ty, checked.env)
    pres = eval_pure(state, FUEL, want_trace=True)
    ptree = (deep_force_pure(pres, pres.outcome.value, checked.env, FUEL)
             if ground and pres.outcome.is_value else None)
    checks = instrumented_eval(state, FUEL).check_count
    return {"ordinary": _outcome(ores, otree), "pure": _outcome(pres, ptree),
            "check_count": checks}


def _run_untyped(sf) -> dict:
    env = TypeEnv.from_decls(sf.decls)
    program = elaborate_defs(sf.defs, sf.main)
    sharing = to_sharing(program, env, untyped_arrow_mult=OMEGA)
    ores = eval_term(Heap(), sharing, FUEL, want_trace=True)
    return {"ordinary": _outcome(ores, None)}


def records() -> dict[str, dict]:
    prelude = parse_prelude()
    out: dict[str, dict] = {}
    paths = sorted((ROOT / "corpus").rglob("*.lq"))
    for path in paths:
        key = str(path.relative_to(ROOT))
        sf = parse_program(path.read_text("utf-8"), source=key, base=prelude)
        try:
            checked = check_program(sf.decls, sf.defs, sf.main)
        except CheckError:
            try:
                out[key] = _run_untyped(sf)
            except CheckError as exc:  # not even elaborable
                out[key] = {"error": str(exc)}
            continue
        out[key] = _run_typed(checked)
    for seed in SEEDS:
        prog = gen_welltyped(GenConfig(seed=seed))
        out[f"seed-{seed}"] = _run_typed(prog.checked)
    return out


if __name__ == "__main__":
    sys.setrecursionlimit(20_000)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records(), indent=1, sort_keys=True) + "\n",
                      "utf-8")
    print(f"wrote {GOLDEN}")
