"""Generator soundness, differential agreement, and the fuzz loop."""

import dataclasses
import importlib
import time
from collections import Counter

import pytest

from lqlang.diagnostics import CheckError
from lqlang.harness import (FuzzSummary, GenConfig, GenProgram, bisim_run,
                            fuzz, gen_welltyped, is_ground_type)
from lqlang.parser import parse_program
from lqlang.syntax import (INT, IntLit, OMEGA, ONE, TArrow, TData, TForall,
                           TMArray)
from lqlang.typecheck import TypeEnv, check_program

from conftest import check_corpus, corpus_files


def test_depth_one_target_int():
    p = gen_welltyped(GenConfig(seed=1, max_depth=1))
    assert isinstance(p.main, IntLit) or p.main is not None
    check_program(p.decls, p.defs, p.main)


def test_every_emitted_program_typechecks():
    for seed in range(40):
        p = gen_welltyped(GenConfig(seed=seed, max_depth=5))
        check_program(p.decls, p.defs, p.main)  # must not raise


def test_bool_target():
    for seed in range(10):
        p = gen_welltyped(GenConfig(seed=seed, max_depth=4, target="Bool"))
        checked = check_program(p.decls, p.defs, p.main)
        assert checked.ty == TData("Bool")


def test_generator_deterministic():
    a = gen_welltyped(GenConfig(seed=123, max_depth=6))
    b = gen_welltyped(GenConfig(seed=123, max_depth=6))
    assert a.main == b.main and a.defs == b.defs


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_depth=0).validate()
    with pytest.raises(ValueError):
        GenConfig(array_prob=1.5).validate()
    with pytest.raises(ValueError):
        GenConfig(target="Float").validate()


def test_ground_types(prelude_env):
    assert is_ground_type(INT, prelude_env)
    assert is_ground_type(TData("Bool"), prelude_env)
    assert is_ground_type(TData("Pair", (ONE, ONE), (INT, INT)), prelude_env)
    assert is_ground_type(TData("List", (), (INT,)), prelude_env)
    assert not is_ground_type(TArrow(INT, ONE, INT), prelude_env)
    assert not is_ground_type(TMArray(INT), prelude_env)
    assert not is_ground_type(TForall("p", INT), prelude_env)
    assert not is_ground_type(
        TData("Pair", (ONE, ONE), (INT, TArrow(INT, ONE, INT))), prelude_env)


def test_bisim_array_roundtrip(prelude):
    src = """
    main = case[1] newMArray(2, 0, \\[1] ma : MArray Int .
             freeze(write(ma, 0, 7))) of
      { Unrestricted arr -> index(arr, 0) }
    """
    sf = parse_program(src, base=prelude)
    r = bisim_run(sf.decls, sf.defs, sf.main, 100_000, "array7")
    assert r.agree
    assert r.ordinary_value == ("int", 7) == r.pure_value
    assert r.ordinary_allocs == r.ordinary_newmarrays == 1
    assert r.pure_copies == r.ordinary_writes == 1


def test_bisim_trivial_constructor(prelude):
    sf = parse_program("main = True", base=prelude)
    r = bisim_run(sf.decls, sf.defs, sf.main, 1000)
    assert r.agree and r.ordinary_value == ("con", "True", ())


def test_bisim_rejects_non_ground(prelude):
    sf = parse_program("main = \\[1] x : Int . x", base=prelude)
    with pytest.raises(ValueError):
        bisim_run(sf.decls, sf.defs, sf.main, 1000)


def test_bisim_corpus_agreement(prelude):
    for path in corpus_files():
        sf = parse_program(path.read_text("utf-8"), source=str(path),
                           base=prelude)
        r = bisim_run(sf.decls, sf.defs, sf.main, 100_000, path.name)
        assert r.agree, f"{path.name}: {r.ordinary_outcome} vs {r.pure_outcome}"


def test_fuzz_small_clean(tmp_path):
    summary = fuzz(GenConfig(seed=5), 25, 100_000, repro_dir=str(tmp_path))
    assert summary.clean
    assert summary.progress_violations == 0
    assert summary.preservation_violations == 0
    assert summary.disagreements == 0
    assert summary.state_checks > 0
    assert list(tmp_path.iterdir()) == []  # nothing to reproduce


def test_fuzz_pure_fragment(tmp_path):
    summary = fuzz(GenConfig(seed=6, array_prob=0.0), 15, 100_000,
                   repro_dir=str(tmp_path))
    assert summary.clean


def test_fuzz_count_precondition():
    with pytest.raises(ValueError):
        fuzz(GenConfig(seed=0), 0, 1000)


def test_fuzz_reports_disagreement(tmp_path, monkeypatch):
    """A sabotaged evaluator is caught and a reproducer is written."""
    import lqlang.harness as H

    real = H.deep_force_pure

    def lying(res, value, env, fuel):
        tree, ok = real(res, value, env, fuel)
        if ok and tree[0] == "int":
            return ("int", tree[1] + 1), True
        return tree, ok

    monkeypatch.setattr(H, "deep_force_pure", lying)
    summary = fuzz(GenConfig(seed=9), 3, 100_000, repro_dir=str(tmp_path))
    assert summary.disagreements > 0
    assert summary.reproducers
    # the reproducer re-parses and typechecks against the prelude
    from lqlang.parser import parse_prelude
    text = tmp_path.joinpath(
        summary.reproducers[0].split("/")[-1]).read_text("utf-8")
    sf = parse_program(text, base=parse_prelude())
    check_program(sf.decls, sf.defs, sf.main)


@pytest.mark.parametrize("seed,starve", [(0, False), (1, False),
                                         (2, False), (3, True)])
def test_fuzz_checks_and_translates_each_program_once(seed, starve,
                                                      tmp_path, monkeypatch):
    """The generator's check and one sharing translation serve both
    evaluators and the instrumented run.  A program whose pure run alone
    runs out of fuel is not retried: it is a disagreement."""
    import lqlang.harness as H
    calls = Counter()
    for name in ("check_program", "to_sharing"):
        def counting(*args, _real=getattr(H, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(H, name, counting)
    real_pure = H.eval_pure

    def pure(state, fuel, **kwargs):
        """With ``starve``, the pure run runs out of fuel."""
        calls["eval_pure"] += 1
        return real_pure(state, 1 if starve else fuel, **kwargs)

    monkeypatch.setattr(H, "eval_pure", pure)
    summary = fuzz(GenConfig(seed=seed), 1, 100_000, repro_dir=str(tmp_path))
    assert summary.generation_failures == summary.fuel_outs == 0
    assert summary.disagreements == (1 if starve else 0)
    assert calls == {"check_program": 1, "to_sharing": 1, "eval_pure": 1}


def test_fuzz_counts_a_step_mismatch_as_disagreement(tmp_path, monkeypatch):
    """The two semantics take the same number of steps; a planted extra
    pure step is reported even though the values agree."""
    import lqlang.harness as H
    real_pure = H.eval_pure

    def one_step_more(state, fuel, **kwargs):
        res = real_pure(state, fuel, **kwargs)
        res.steps += 1
        return res

    monkeypatch.setattr(H, "eval_pure", one_step_more)
    summary = fuzz(GenConfig(seed=0), 2, 100_000, repro_dir=str(tmp_path))
    assert summary.disagreements == 2 and len(summary.reproducers) == 2
    assert summary.progress_violations == summary.fuel_outs == 0


def test_fuzz_counts_a_shared_fuel_out(tmp_path):
    """A program both semantics run out of fuel on agrees; it is counted
    as a fuel exhaustion, not a violation."""
    summary = fuzz(GenConfig(seed=0), 2, 3, repro_dir=str(tmp_path))
    assert summary.fuel_outs == 2 and summary.clean


def test_nested_add_runs_in_linear_time(prelude):
    """``add(1, add(1, ...))`` nested 1000 deep: each step costs the same
    at any depth, so both semantics finish well inside the ceiling (with
    substitution this took about 50 s per evaluator)."""
    src = "main = " + "add(1, " * 1000 + "0" + ")" * 1000
    sf = parse_program(src, base=prelude)
    start = time.perf_counter()
    r = bisim_run(sf.decls, sf.defs, sf.main, 100_000, "add-1000")
    elapsed = time.perf_counter() - start
    assert r.agree and r.ordinary_value == r.pure_value == ("int", 1000)
    assert r.ordinary_steps == r.pure_steps == 6001
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_fuzz_json_and_table():
    summary = fuzz(GenConfig(seed=11), 2, 50_000, repro_dir="/tmp")
    blob = summary.to_json()
    assert blob["count"] == 2 and "state_checks" in blob
    assert "progress violations" in summary.table()


def test_fuzz_json_keys_keep_their_order():
    """``lq fuzz --json`` prints the summary's fields in declaration
    order, then the two rates."""
    summary = FuzzSummary(count=2, fuel=50_000, seed=11, blackholes=1,
                          state_checks=10, reproducers=["r.lq"],
                          elapsed_s=0.5)
    assert list(summary.to_json().items()) == [
        ("count", 2), ("fuel", 50_000), ("seed", 11),
        ("progress_violations", 0), ("preservation_violations", 0),
        ("disagreements", 0), ("blackholes", 1), ("fuel_outs", 0),
        ("generation_failures", 0), ("state_checks", 10),
        ("reproducers", ["r.lq"]), ("elapsed_s", 0.5),
        ("programs_per_s", 4.0), ("state_checks_per_s", 20.0)]


def _count_machines(monkeypatch):
    module = importlib.import_module("lqlang.eval_pure")
    real = module._load
    loads = Counter()

    def load(*args, **kwargs):
        loads["machines"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "_load", load)
    return loads


def test_fuzz_runs_one_pure_machine_per_program(tmp_path, monkeypatch):
    """The instrumented run is also the pure side of the agreement check,
    so each program loads one pure machine (two when a separate unchecked
    run was compared), with the same summaries as before."""
    loads = _count_machines(monkeypatch)
    checks = []
    for seed in range(16):
        summary = fuzz(GenConfig(seed=seed), 1, 100_000,
                       repro_dir=str(tmp_path))
        assert summary.clean and summary.reproducers == []
        assert (summary.blackholes, summary.fuel_outs,
                summary.generation_failures) == (0, 0, 0)
        checks.append(summary.state_checks)
    assert loads["machines"] == 16
    assert checks == [19, 95, 74, 93, 106, 54, 95, 154, 40, 111, 54, 62, 68,
                      86, 111, 60]


def test_fuzz_compares_an_unchecked_run_after_a_violation(tmp_path,
                                                          monkeypatch):
    """When the instrumented run stops at a preservation violation, the
    agreement check gets the pure result from an unchecked run."""
    from lqlang.eval_pure import _PState
    monkeypatch.setattr(_PState, "remove", lambda self, bind: None)
    loads = _count_machines(monkeypatch)
    for seed in range(16):
        loads.clear()
        summary = fuzz(GenConfig(seed=seed), 1, 100_000,
                       repro_dir=str(tmp_path))
        if summary.preservation_violations:
            break
    assert summary.preservation_violations == 1
    assert loads["machines"] == 2
    assert summary.progress_violations == summary.disagreements == 0
