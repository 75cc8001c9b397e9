"""The in-place semantics: lazy sharing, array mutation, typestate blocks,
blackholing, fuel."""

import pytest

from lqlang.eval_ordinary import Cell, Heap, eval_term, trace_eval
from lqlang.runtime import BlockReason, Clo, OutcomeKind
from lqlang.syntax import (App, ArrName, Branch, Case, Con, INT, IntLit, Lam,
                           Let, LetBind, OMEGA, ONE, Prim, TMArray, Var)
from lqlang.translate import to_sharing
from lqlang.typecheck import annotate, check_program

from conftest import check_corpus, corpus_files


def run(env, term, fuel=100_000, trace=False):
    annotate(env, term)
    sh = to_sharing(term, env)
    return eval_term(Heap(), sh, fuel, want_trace=trace)


ARRAY7 = Case(ONE, Prim("newMArray",
                        (IntLit(2), IntLit(0),
                         Lam(ONE, "ma", TMArray(INT),
                             Prim("freeze",
                                  (Prim("write",
                                        (Var("ma"), IntLit(0), IntLit(7))),))))),
              (Branch("Unrestricted", ("arr",),
                      Prim("index", (Var("arr"), IntLit(0)))),))


def test_array_roundtrip_value_and_final_cell(prelude_env):
    res = run(prelude_env, ARRAY7)
    assert res.outcome.kind is OutcomeKind.VALUE
    assert res.outcome.value == IntLit(7)
    cells = list(res.heap.cells().values())
    assert len(cells) == 1 and cells[0].frozen  # retagged in place


def test_lambda_value_immediate(prelude_env):
    res = run(prelude_env, Lam(ONE, "x", INT, Var("x")))
    assert res.outcome.kind is OutcomeKind.VALUE
    assert len(res.heap) == 0
    assert res.steps == 1


def test_write_after_freeze_blocks_typestate():
    # deliberately unchecked: freeze then write the same cell
    heap = Heap({"l": Cell(True, ["x"]), "x": Clo(IntLit(0)),
                 "v": Clo(IntLit(5))})
    prog = Prim("write", (ArrName("l"), IntLit(0), Var("v")))
    res = eval_term(heap, prog, 100)
    assert res.outcome.kind is OutcomeKind.BLOCKED
    assert res.outcome.reason is BlockReason.TYPESTATE_VIOLATION
    assert res.outcome.rule == "write"
    assert res.outcome.location == "l"


def test_index_mutable_blocks_typestate():
    heap = Heap({"l": Cell(False, ["x"]), "x": Clo(IntLit(0))})
    res = eval_term(heap, Prim("index", (ArrName("l"), IntLit(0))), 100)
    assert res.outcome.kind is OutcomeKind.BLOCKED
    assert res.outcome.reason is BlockReason.TYPESTATE_VIOLATION


def test_double_freeze_blocks_typestate():
    heap = Heap({"l": Cell(True, ["x"]), "x": Clo(IntLit(0))})
    res = eval_term(heap, Prim("freeze", (ArrName("l"),)), 100)
    assert res.outcome.kind is OutcomeKind.BLOCKED
    assert res.outcome.reason is BlockReason.TYPESTATE_VIOLATION


def test_blackhole(prelude_env):
    t = Let(OMEGA, (LetBind("x", INT, Var("x")),), Var("x"))
    res = run(prelude_env, t)
    assert res.outcome.kind is OutcomeKind.BLACKHOLE


def test_missing_binding_blocks():
    res = eval_term(Heap(), Var("nowhere"), 100)
    assert res.outcome.kind is OutcomeKind.BLOCKED
    assert res.outcome.reason is BlockReason.MISSING_LINEAR_BINDING


def test_let_without_recorded_free_variables_is_refused():
    """A let step reads its binding's free-variable list, which only the
    sharing translation records; a term that skipped it is refused."""
    t = Let(ONE, (LetBind("z", INT, IntLit(1)),), Var("z"))
    with pytest.raises(AssertionError, match="'z'"):
        eval_term(Heap(), t, 100)


def test_missing_branch_blocks(prelude_env):
    t = Case(ONE, Con("True", (), (), ()), (Branch("False", (), IntLit(0)),))
    sh = to_sharing(infer_unchecked(prelude_env, t), prelude_env)
    res = eval_term(Heap(), sh, 100)
    assert res.outcome.kind is OutcomeKind.BLOCKED
    assert res.outcome.reason is BlockReason.MISSING_BRANCH


def infer_unchecked(env, t):
    # annotate as far as the checker allows; partial cases are built directly
    annotate(env, t)
    return t


def test_out_of_bounds_blocks(prelude_env):
    t = Case(ONE, Prim("newMArray",
                       (IntLit(1), IntLit(0),
                        Lam(ONE, "ma", TMArray(INT),
                            Prim("freeze", (Var("ma"),))))),
             (Branch("Unrestricted", ("arr",),
                     Prim("index", (Var("arr"), IntLit(5)))),))
    res = run(prelude_env, t)
    assert res.outcome.kind is OutcomeKind.BLOCKED
    assert res.outcome.reason is BlockReason.PRIMITIVE_MISUSE


def test_trace_constructor_value(prelude_env):
    out, tr = trace_eval(Heap(), Con("True", (), (), ()), 10)
    assert out.kind is OutcomeKind.VALUE
    assert [r.rule for r in tr] == ["constructor"]


def test_trace_application(prelude_env):
    t = Let(OMEGA, (LetBind("y", INT, IntLit(5)),),
            App(Lam(ONE, "x", INT, Var("x")), Var("y")))
    annotate(prelude_env, t)
    sh = to_sharing(t, prelude_env)
    out, tr = trace_eval(Heap(), sh, 100)
    rules = [r.rule for r in tr]
    assert rules[:3] == ["let", "application", "abs"]
    assert "variable" in rules


def test_fuel_zero_non_value(prelude_env):
    t = App(Lam(ONE, "x", INT, Var("x")), IntLit(1))
    annotate(prelude_env, t)
    sh = to_sharing(t, prelude_env)
    out, tr = trace_eval(Heap(), sh, 0)
    assert out.kind is OutcomeKind.OUT_OF_FUEL
    assert tr == []
    assert out.detail  # the head of the partial run is recorded


def test_fuel_counts_every_rule(prelude_env):
    res = run(prelude_env, IntLit(1), fuel=1)
    assert res.outcome.kind is OutcomeKind.VALUE
    res0 = run(prelude_env, IntLit(1), fuel=0)
    assert res0.outcome.kind is OutcomeKind.OUT_OF_FUEL


def test_laziness_unused_binding_never_forced(prelude_env):
    t = Let(OMEGA, (LetBind("big", INT, Prim("mul", (IntLit(9), IntLit(9)))),),
            IntLit(7))
    res = run(prelude_env, t, trace=True)
    assert res.outcome.value == IntLit(7)
    assert all(r.rule != "prim" for r in res.trace)


def test_sharing_forces_once(prelude_env):
    t = Let(OMEGA, (LetBind("x", INT, Prim("add", (IntLit(1), IntLit(2)))),),
            Prim("add", (Var("x"), Var("x"))))
    res = run(prelude_env, t, trace=True)
    assert res.outcome.value == IntLit(6)
    # the suspension body runs once: one 'prim' for the rhs, one for the body
    assert sum(1 for r in res.trace if r.rule == "prim") == 2
    # x is forced twice (bound to heap name %h0); the second finds a value
    assert sum(1 for r in res.trace
               if r.rule == "variable" and r.redex == "%h0") == 2


def test_writes_allocate_nothing(prelude):
    for path in corpus_files():
        checked = check_corpus(path, prelude)
        sh = to_sharing(checked.term, checked.env)
        res = eval_term(Heap(), sh, 100_000)
        assert res.cell_allocs == res.newmarray_count, path.name


def test_corpus_never_blocks(prelude):
    for path in corpus_files():
        checked = check_corpus(path, prelude)
        sh = to_sharing(checked.term, checked.env)
        res = eval_term(Heap(), sh, 100_000)
        assert res.outcome.kind is OutcomeKind.VALUE, \
            f"{path.name}: {res.outcome.describe()}"


def test_determinism(prelude_env):
    r1 = run(prelude_env, ARRAY7, trace=True)
    r2 = run(prelude_env, ARRAY7, trace=True)
    assert r1.outcome.value == r2.outcome.value
    assert [t.rule for t in r1.trace] == [t.rule for t in r2.trace]
    assert r1.steps == r2.steps
