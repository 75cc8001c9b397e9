"""Both evaluators keep their pending premises on a stack of their own, so
fuel, not the host's recursion limit, bounds how deep a run goes, and an
aborted run gives back every binding it was forcing."""

import sys

from lqlang.eval_ordinary import Heap, eval_term
from lqlang.eval_pure import eval_pure, initial_state, instrumented_eval
from lqlang.parser import parse_program
from lqlang.runtime import OutcomeKind
from lqlang.syntax import IntLit
from lqlang.translate import to_sharing
from lqlang.typecheck import check_program

from conftest import CORPUS


def _tri(prelude, n):
    text = (CORPUS / "recursion_int.lq").read_text("utf-8")
    sf = parse_program(text.replace("main = tri 5", f"main = tri {n}"),
                       source=f"tri {n}", base=prelude)
    checked = check_program(sf.decls, sf.defs, sf.main)
    return to_sharing(checked.term, checked.env), checked


def test_tri_20000_runs_under_a_recursion_limit_of_1000(prelude):
    sharing, checked = _tri(prelude, 20_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        ordinary = eval_term(Heap(), sharing, 10_000_000)
        pure = eval_pure(initial_state(sharing, checked.ty, checked.env),
                         10_000_000)
    finally:
        sys.setrecursionlimit(limit)
    assert ordinary.outcome.value == IntLit(200010000)
    assert pure.outcome.value == IntLit(200010000)
    assert ordinary.steps == pure.steps


def test_running_out_of_fuel_gives_back_every_forced_binding(prelude):
    """Forcing the last of a chain of 60 shared bindings forces each one
    before it inside it, so 120 steps in, about 20 forcings are pending."""
    text = "main = let[w] x0 : Int = 0 in\n" + "".join(
        f"  let[w] x{i} : Int = add(x{i - 1}, 1) in\n" for i in range(1, 61))
    sf = parse_program(text + "  x60\n", source="chain", base=prelude)
    checked = check_program(sf.decls, sf.defs, sf.main)
    sharing = to_sharing(checked.term, checked.env)
    assert eval_term(Heap(), sharing, 100_000).outcome.value == IntLit(60)
    ordinary = eval_term(Heap(), sharing, 120)
    assert ordinary.outcome.kind is OutcomeKind.OUT_OF_FUEL
    assert ordinary.state.forcing == set()
    for run in (eval_pure, instrumented_eval):
        pure = run(initial_state(sharing, checked.ty, checked.env), 120)
        assert pure.outcome.kind is OutcomeKind.OUT_OF_FUEL
        assert pure.state.anchors == []
        assert not any(b.forcing for b in pure.state.ordered())
