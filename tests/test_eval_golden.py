"""Evaluation on closures keeps the observable behaviour of substitution:
outcomes, steps, forced values, rule traces and state-check counts on the
corpus and on generated programs, as recorded in ``data/eval_golden.json``.
"""

import json

from lqlang.eval_ordinary import Heap, eval_term
from lqlang.eval_pure import eval_pure, initial_state, instrumented_eval
from lqlang.translate import to_sharing

from conftest import CORPUS, check_corpus
from eval_golden import GOLDEN, records


def test_evaluators_match_the_golden_record():
    expected = json.loads(GOLDEN.read_text("utf-8"))
    actual = records()
    assert actual.keys() == expected.keys()
    diffs = [key for key in expected if actual[key] != expected[key]]
    assert diffs == [], f"{len(diffs)} programs differ, first {diffs[:5]}"


def test_untraced_runs_build_only_the_final_value(prelude, monkeypatch):
    """Without a trace, a check or an abort, neither evaluator turns a
    closure back into a term except for the value it returns."""
    import lqlang.runtime
    built = []
    real = lqlang.runtime.rename_vars

    def counting(t, env):
        built.append(t)
        return real(t, env)

    # both evaluators build terms only through runtime (``Clo.built``)
    monkeypatch.setattr(lqlang.runtime, "rename_vars", counting)
    checked = check_corpus(CORPUS / "list_sum.lq", prelude)
    sh = to_sharing(checked.term, checked.env)
    ores = eval_term(Heap(), sh, 100_000)
    pres = eval_pure(initial_state(sh, checked.ty, checked.env), 100_000)
    assert ores.outcome.is_value and pres.outcome.is_value
    assert ores.steps == pres.steps > 40
    assert len(built) == 2


def test_checked_runs_build_only_the_final_value(prelude, monkeypatch):
    """A state check types the machine's closures as they are: an
    instrumented run turns no closure back into a term but its value."""
    import lqlang.runtime
    built = []
    real = lqlang.runtime.rename_vars

    def counting(t, env):
        built.append(t)
        return real(t, env)

    monkeypatch.setattr(lqlang.runtime, "rename_vars", counting)
    checked = check_corpus(CORPUS / "list_sum.lq", prelude)
    sh = to_sharing(checked.term, checked.env)
    res = instrumented_eval(initial_state(sh, checked.ty, checked.env),
                            100_000)
    assert res.outcome.is_value
    assert res.check_count == 19
    assert len(built) == 1
