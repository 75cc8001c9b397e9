"""The pure semantics: linear-binding removal, copy-on-write arrays, state
well-typedness, and the instrumented preservation checker."""

import importlib
from collections import Counter
from dataclasses import replace

import pytest

from lqlang.eval_pure import (AnnState, EnvBind, PreservationViolation,
                              SEntry, _PState, eval_pure, initial_state,
                              instrumented_eval, state_welltyped)
from lqlang.harness import GenConfig, fuzz, gen_welltyped
from lqlang.runtime import BlockReason, Clo, OutcomeKind
from lqlang.statecheck import (Checker, encode_state, reference_welltyped,
                               stack_entries)
from lqlang.syntax import (App, ArrayLit, Branch, Case, Con, INT, IntLit,
                           Lam, Let, LetBind, OMEGA, ONE, Prim, TArray,
                           TData, TMArray, Var)
from lqlang.translate import to_sharing
from lqlang.parser import parse_program
from lqlang.typecheck import annotate, check_program

from conftest import CORPUS, DATA, check_corpus, corpus_files


def prepare(env, term):
    r = annotate(env, term)
    sh = to_sharing(term, env)
    return initial_state(sh, r.ty, env)


ARRAY7 = Case(ONE, Prim("newMArray",
                        (IntLit(2), IntLit(0),
                         Lam(ONE, "ma", TMArray(INT),
                             Prim("freeze",
                                  (Prim("write",
                                        (Var("ma"), IntLit(0), IntLit(7))),))))),
              (Branch("Unrestricted", ("arr",),
                      Prim("index", (Var("arr"), IntLit(0)))),))


def test_array_roundtrip_matches_ordinary(prelude_env):
    res = eval_pure(prepare(prelude_env, ARRAY7), 100_000)
    assert res.outcome.kind is OutcomeKind.VALUE
    assert res.outcome.value == IntLit(7)
    assert res.array_allocs == 1
    assert res.array_copies == 1  # one write, one fresh array value


def test_write_produces_fresh_array_value(prelude_env, monkeypatch):
    """Each write returns a new array node, distinct from the array it was
    applied to."""
    P = importlib.import_module("lqlang.eval_pure")
    applied, returned = [], []
    real_want, real_ret = P._want_array, P._ret

    def want(st, name, *args, **kwargs):
        arr = real_want(st, name, *args, **kwargs)
        if name == "write":
            applied.append(arr)
        return arr

    def ret(st, rule, value, *rest):
        if rule == "write":
            returned.append(value.term)
        return real_ret(st, rule, value, *rest)

    monkeypatch.setattr(P, "_want_array", want)
    monkeypatch.setattr(P, "_ret", ret)
    t = Case(ONE, Prim("newMArray",
                       (IntLit(1), IntLit(0),
                        Lam(ONE, "ma", TMArray(INT),
                            Prim("freeze",
                                 (Prim("write",
                                       (Prim("write",
                                             (Var("ma"), IntLit(0),
                                              IntLit(1))),
                                        IntLit(0), IntLit(2))),))))),
             (Branch("Unrestricted", ("arr",),
                     Prim("index", (Var("arr"), IntLit(0)))),))
    res = eval_pure(prepare(prelude_env, t), 100_000)
    assert res.outcome.value == IntLit(2)
    assert res.array_copies == 2
    assert len(applied) == len(returned) == 2
    assert all(isinstance(a, ArrayLit) for a in returned)
    assert returned[0] is applied[1]  # the second write takes the first's
    for before, after in zip(applied, returned):
        assert after is not before


def test_forcing_consumed_linear_binding_blocks(prelude_env):
    b = EnvBind("x", True, INT, Clo(IntLit(5, ty=INT)), 1)
    state = AnnState(xi=prepare(prelude_env, IntLit(0)).xi, env=(b,),
                     focus=Clo(Prim("add", (Var("x", ty=INT),
                                            Var("x", ty=INT)), ty=INT)),
                     demand=ONE, focus_ty=INT)
    res = eval_pure(state, 1000)
    assert res.outcome.kind is OutcomeKind.BLOCKED
    assert res.outcome.reason is BlockReason.MISSING_LINEAR_BINDING
    assert res.outcome.location == "x"


def test_omega_demand_of_linear_binding_blocks(prelude_env):
    b = EnvBind("x", True, INT, Clo(IntLit(5, ty=INT)), 1)
    state = AnnState(xi=prepare(prelude_env, IntLit(0)).xi, env=(b,),
                     focus=Clo(Var("x", ty=INT)), demand=OMEGA, focus_ty=INT)
    res = eval_pure(state, 1000)
    assert res.outcome.kind is OutcomeKind.BLOCKED
    assert res.outcome.reason is BlockReason.MISSING_LINEAR_BINDING


def test_closed_ground_program_leaves_no_linear_bindings(prelude):
    for path in corpus_files():
        checked = check_corpus(path, prelude)
        if checked.ty not in (INT, TData("Bool")):
            continue
        sh = to_sharing(checked.term, checked.env)
        res = eval_pure(initial_state(sh, checked.ty, checked.env), 100_000)
        assert res.outcome.kind is OutcomeKind.VALUE, path.name
        assert res.linear_bindings() == [], path.name


def test_blackhole_on_ill_founded_recursion(prelude_env):
    t = Let(OMEGA, (LetBind("x", INT, Var("x")),), Var("x"))
    res = eval_pure(prepare(prelude_env, t), 1000)
    assert res.outcome.kind is OutcomeKind.BLACKHOLE


def test_out_of_fuel(prelude_env):
    res = eval_pure(prepare(prelude_env, ARRAY7), 3)
    assert res.outcome.kind is OutcomeKind.OUT_OF_FUEL


# --- state well-typedness -----------------------------------------------------

def test_initial_state_welltyped_for_corpus(prelude):
    for path in corpus_files():
        checked = check_corpus(path, prelude)
        sh = to_sharing(checked.term, checked.env)
        assert state_welltyped(initial_state(sh, checked.ty, checked.env)), \
            path.name


def test_omega_demand_of_linear_binding_is_ill_typed(prelude_env):
    xi = prepare(prelude_env, IntLit(0)).xi
    b = EnvBind("x", True, INT, Clo(IntLit(5, ty=INT)), 1)
    bad = AnnState(xi=xi, env=(b,), focus=Clo(Var("x", ty=INT)), demand=OMEGA,
                   focus_ty=INT)
    assert not state_welltyped(bad)
    ok = AnnState(xi=xi, env=(b,), focus=Clo(Var("x", ty=INT)), demand=ONE,
                  focus_ty=INT)
    assert state_welltyped(ok)


def test_unbound_linear_focus_is_ill_typed(prelude_env):
    xi = prepare(prelude_env, IntLit(0)).xi
    bad = AnnState(xi=xi, env=(), focus=Clo(Var("x", ty=INT)), demand=ONE,
                   focus_ty=INT)
    assert not state_welltyped(bad)


def test_stack_entries_count_in_encoding(prelude_env):
    xi = prepare(prelude_env, IntLit(0)).xi
    b = EnvBind("x", True, INT, Clo(IntLit(5, ty=INT)), 1)
    # x pending on the stack at demand 1: consumed exactly once in total
    st = AnnState(xi=xi, env=(b,), focus=Clo(IntLit(3, ty=INT)), demand=ONE,
                  focus_ty=INT,
                  stack=SEntry(Clo(Var("x", ty=INT)), ONE, INT))
    assert state_welltyped(st)
    # but x duplicated on the stack is consumed twice
    st2 = AnnState(xi=xi, env=(b,), focus=Clo(IntLit(3, ty=INT)), demand=ONE,
                   focus_ty=INT,
                   stack=SEntry(Clo(Var("x", ty=INT)), ONE, INT,
                                SEntry(Clo(Var("x", ty=INT)), ONE, INT)))
    assert not state_welltyped(st2)


def test_encoding_length(prelude_env):
    xi = prepare(prelude_env, IntLit(0)).xi
    st = AnnState(xi=xi, env=(), focus=Clo(IntLit(3, ty=INT)), demand=ONE,
                  focus_ty=INT,
                  stack=SEntry(Clo(IntLit(2, ty=INT)), OMEGA, INT,
                               SEntry(Clo(IntLit(1, ty=INT)), ONE, INT)))
    term, ty = encode_state(st)
    # one weighted pair per stack entry plus one for the focus
    depth = 0
    probe = term
    while isinstance(probe, Con) and probe.name == "%MkWPair":
        depth += 1
        probe = probe.args[1]
    assert depth == len(list(stack_entries(st.stack))) + 1


# --- instrumentation -----------------------------------------------------------

def test_instrumented_corpus_program(prelude_env):
    res = instrumented_eval(prepare(prelude_env, ARRAY7), 100_000)
    assert res.outcome.kind is OutcomeKind.VALUE
    assert res.check_count > 0


def test_instrumented_requires_welltyped_initial_state(prelude_env):
    xi = prepare(prelude_env, IntLit(0)).xi
    bad = AnnState(xi=xi, env=(), focus=Clo(Var("x", ty=INT)), demand=ONE,
                   focus_ty=INT)
    with pytest.raises(ValueError):
        instrumented_eval(bad, 100)


def test_linear_variable_rule_removes_binding_and_preserves(prelude_env):
    t = Let(ONE, (LetBind("x", INT, IntLit(5)),),
            Prim("add", (Var("x"), IntLit(1))))
    res = instrumented_eval(prepare(prelude_env, t), 1000)
    assert res.outcome.value == IntLit(6)
    assert res.linear_bindings() == []


def test_preservation_violation_reported_on_broken_state(prelude_env):
    """A hand-corrupted environment (linear binding consumed twice by the
    focus) fails the precondition rather than slipping through."""
    xi = prepare(prelude_env, IntLit(0)).xi
    b = EnvBind("x", True, INT, Clo(IntLit(5, ty=INT)), 1)
    dup = Prim("add", (Var("x", ty=INT), Var("x", ty=INT)), ty=INT)
    bad = AnnState(xi=xi, env=(b,), focus=Clo(dup), demand=ONE, focus_ty=INT)
    assert not state_welltyped(bad)
    with pytest.raises(ValueError):
        instrumented_eval(bad, 100)


def test_purity_ordinary_mutates_pure_does_not(prelude_env):
    """Same program; the ordinary heap cell is observably overwritten while
    the pure evaluator's original array value survives."""
    from lqlang.eval_ordinary import Heap, eval_term
    r = annotate(prelude_env, ARRAY7)
    sh = to_sharing(ARRAY7, prelude_env)
    ores = eval_term(Heap(), sh, 100_000)
    assert ores.cell_allocs == 1 and ores.write_count == 1
    pres = eval_pure(initial_state(sh, r.ty, prelude_env), 100_000)
    assert pres.array_allocs == 1 and pres.array_copies == 1


def test_determinism(prelude_env):
    r1 = eval_pure(prepare(prelude_env, ARRAY7), 100_000, want_trace=True)
    r2 = eval_pure(prepare(prelude_env, ARRAY7), 100_000, want_trace=True)
    assert r1.outcome.value == r2.outcome.value
    assert [t.rule for t in r1.trace] == [t.rule for t in r2.trace]


def test_trace_rule_names_match_rule_set(prelude_env):
    res = eval_pure(prepare(prelude_env, ARRAY7), 100_000, want_trace=True)
    names = {t.rule for t in res.trace}
    allowed = {"abs", "m.abs", "app", "m.app", "shared variable",
               "linear variable", "let", "constructor", "case",
               "newMArray", "write", "freeze", "index", "int",
               "array value", "prim"}
    assert names <= allowed
    assert {"newMArray", "write", "freeze", "index",
            "linear variable"} <= names


# --- incremental checking against the reference -------------------------------

def _flip(demand):
    return OMEGA if demand == ONE else ONE


def _perturbed(s, k):
    """Named copies of ``s`` with one thing changed; ``k`` picks the
    binding to drop or flip."""
    env = s.env
    if env:
        i = k % len(env)
        flipped = replace(env[i], linear=not env[i].linear)
        yield "drop binding", replace(s, env=env[:i] + env[i + 1:])
        yield "flip linear", replace(s, env=env[:i] + (flipped,) + env[i + 1:])
        yield "reverse env", replace(s, env=env[::-1])
    yield "flip focus demand", replace(s, demand=_flip(s.demand))
    yield "focus type Int", replace(s, focus_ty=INT)
    top = s.stack
    if top is not None:
        yield "flip stack demand", replace(
            s, stack=replace(top, demand=_flip(top.demand)))
        yield "pop stack", replace(s, stack=top.below)


def _compare_on_runs(monkeypatch, programs, perturb):
    """Run each program under ``instrumented_eval`` and compare the
    incremental verdict with the reference at every checked state and,
    with ``perturb``, on its perturbed copies, through the run's cache."""
    module = importlib.import_module("lqlang.eval_pure")
    incremental = module.state_welltyped
    tally = Counter()

    def spy(s, cache=None):
        verdict = incremental(s, cache)
        tally["states"] += 1
        tally["mismatches"] += verdict != reference_welltyped(s)
        if perturb:
            for kind, bad in _perturbed(s, tally["states"]):
                expected = reference_welltyped(bad)
                tally[kind] += not expected
                tally["mismatches"] += incremental(bad, cache) != expected
        return verdict

    monkeypatch.setattr(module, "state_welltyped", spy)
    for checked in programs:
        sh = to_sharing(checked.term, checked.env)
        instrumented_eval(initial_state(sh, checked.ty, checked.env),
                          100_000)
    return tally


def _checked_programs(prelude, seeds):
    progs = [check_corpus(path, prelude) for path in corpus_files()]
    for seed in seeds:
        p = gen_welltyped(GenConfig(seed=seed))
        progs.append(check_program(p.decls, p.defs, p.main))
    return progs


def test_incremental_check_matches_reference(prelude, monkeypatch):
    tally = _compare_on_runs(monkeypatch,
                             _checked_programs(prelude, range(200)),
                             perturb=False)
    assert tally["mismatches"] == 0
    assert tally["states"] > 15_000


def test_incremental_check_matches_reference_on_perturbed_states(
        prelude, monkeypatch):
    tally = _compare_on_runs(monkeypatch,
                             _checked_programs(prelude, range(5)),
                             perturb=True)
    assert tally["mismatches"] == 0
    # every kind of perturbation yields ill-typed states; "focus type Int"
    # needs the type comparison on cache hits
    for kind in ("drop binding", "flip linear", "reverse env",
                 "flip focus demand", "focus type Int",
                 "flip stack demand", "pop stack"):
        assert tally[kind] > 0, kind


def test_state_checks_type_each_source_subterm_once_per_run(tmp_path,
                                                             monkeypatch):
    """On the fuzz programs of seeds 0-15, re-inferring every term that is
    not cached by identity costs the state checks 16,826 term nodes.  The
    run's memo in ``infer``, over the closures' source terms, cuts that to
    under 5,000 for the same 1,282 checks.  A node is inferred when a call
    is not a memo hit.  The floor makes a spy that stops seeing the
    checker's calls fail."""
    import lqlang.statecheck as C
    import lqlang.typecheck as T
    module = importlib.import_module("lqlang.eval_pure")
    real_infer, real_check = T.infer, module.state_welltyped
    real_hit = T.InferMemo.hit
    tally = Counter()

    def counting(env, t):
        tally["nodes"] += tally["checking"] > 0
        return real_infer(env, t)

    def hit(self, env, t):
        r = real_hit(self, env, t)
        tally["nodes"] -= tally["checking"] > 0 and r is not None
        return r

    def checking(s, cache=None):
        tally["checking"] += 1
        try:
            return real_check(s, cache)
        finally:
            tally["checking"] -= 1

    monkeypatch.setattr(T, "infer", counting)
    monkeypatch.setattr(T.InferMemo, "hit", hit)
    monkeypatch.setattr(C, "infer", counting)
    monkeypatch.setattr(module, "state_welltyped", checking)
    checks = 0
    for seed in range(16):
        summary = fuzz(GenConfig(seed=seed), 1, 100_000,
                       repro_dir=str(tmp_path))
        assert summary.clean, seed
        checks += summary.state_checks
    assert checks == 1282
    assert 4000 <= tally["nodes"] <= 5000


def test_checked_states_share_the_machine_bindings(prelude, monkeypatch):
    """The machine's bindings are ``EnvBind``s and a checked state shares
    them: an instrumented run creates one only for each binding a rule
    inserts and for the binding list's sentinel."""
    tally = Counter()
    real_init, real_insert = EnvBind.__init__, _PState.insert

    def init(self, *args, **kwargs):
        tally["created"] += 1
        real_init(self, *args, **kwargs)

    def insert(self, bind):
        tally["inserted"] += 1
        real_insert(self, bind)

    monkeypatch.setattr(EnvBind, "__init__", init)
    monkeypatch.setattr(_PState, "insert", insert)
    checked = check_corpus(CORPUS / "list_sum.lq", prelude)
    sh = to_sharing(checked.term, checked.env)
    res = instrumented_eval(initial_state(sh, checked.ty, checked.env),
                            100_000)
    assert res.outcome.is_value and res.check_count == 19
    assert tally["inserted"] == 11
    assert tally["created"] == tally["inserted"] + 1


def test_instantiated_let_keeps_its_scope_and_preserves(prelude):
    """``let[p] x = add(x, 1)`` under ``@[w]``: every state of the run
    checks, and the value is 6, not a blackhole."""
    checked = check_corpus(DATA / "poly_let_scope.lq", prelude)
    sh = to_sharing(checked.term, checked.env)
    res = instrumented_eval(initial_state(sh, checked.ty, checked.env),
                            100_000)
    assert res.outcome.value == IntLit(6)
    assert res.check_count > 0


@pytest.mark.xfail(raises=PreservationViolation, strict=True,
                   reason="_PState.insert puts the bindings made while "
                          "forcing a binding before it, not before its group")
def test_forcing_an_earlier_member_of_a_recursive_group_preserves(prelude):
    """``a`` uses ``b``, bound after it in one w-group.  Both semantics
    print 16, but forcing ``a`` inserts the translation's ``let[1]``
    bindings just before ``a``, where ``b`` is out of scope, so the state
    after rule 'int' fails its check."""
    checked = _checked_text(prelude, "main = let[w] a : Int = add(6, add(b, "
                                     "1)) , b : Int = 9 in add(a, 0)\n")
    sh = to_sharing(checked.term, checked.env)
    res = instrumented_eval(initial_state(sh, checked.ty, checked.env),
                            100_000)
    assert res.outcome.value == IntLit(16)


def test_planted_unremoved_linear_binding_is_caught(prelude, monkeypatch):
    """A linear variable rule that leaves the forced binding in the
    environment breaks preservation."""
    monkeypatch.setattr(_PState, "remove", lambda self, bind: None)
    checked = check_corpus(CORPUS / "let1_chain.lq", prelude)
    sh = to_sharing(checked.term, checked.env)
    with pytest.raises(PreservationViolation):
        instrumented_eval(initial_state(sh, checked.ty, checked.env),
                          100_000)


# --- running totals ------------------------------------------------------------

TRI_DEF = ("def tri : Int ->[w] Int =[w]\n  \\[w] n : Int . case[1] eq(n, 0) "
           "of\n    { True -> 0\n    ; False -> add(n, tri (sub(n, 1))) }\n")


def _wide(n):
    """n let[w] bindings, then one add chain that reads them all."""
    chain = f"x{n - 1}"
    for i in reversed(range(n - 1)):
        chain = f"add(x{i}, {chain})"
    lets = " ".join(f"let[w] x{i} : Int = {i} in" for i in range(n))
    return f"main = {lets} {chain}\n"


def _tri(n):
    return TRI_DEF + f"main = tri {n}\n"


def _checked_text(prelude, text):
    sf = parse_program(text, base=prelude)
    return check_program(sf.decls, sf.defs, sf.main)


def _work_per_check(prelude, monkeypatch, text):
    """The closures each check of an instrumented run types, and the
    bindings listed off the machine, per check; the run's first check,
    which types the whole program, apart."""
    import lqlang.statecheck as C
    module = importlib.import_module("lqlang.eval_pure")
    real, real_infer_clo, real_ordered = (module.state_welltyped,
                                          C._infer_clo, _PState.ordered)
    tally = Counter()

    def infer_clo(env, clo):
        tally["typed"] += tally["checking"]
        return real_infer_clo(env, clo)

    def spy(s, checker=None):
        tally["checking"] = tally["calls"] > 0
        tally["calls"] += 1
        tally["checks"] += tally["checking"]
        try:
            return real(s, checker)
        finally:
            tally["checking"] = 0

    def ordered(self):
        for b in real_ordered(self):
            tally["listed"] += 1
            yield b

    monkeypatch.setattr(C, "_infer_clo", infer_clo)
    monkeypatch.setattr(module, "state_welltyped", spy)
    monkeypatch.setattr(_PState, "ordered", ordered)
    checked = _checked_text(prelude, text)
    sh = to_sharing(checked.term, checked.env)
    res = instrumented_eval(initial_state(sh, checked.ty, checked.env),
                            10_000_000)
    assert res.outcome.is_value
    return tally["typed"] / tally["checks"], tally["listed"]


@pytest.mark.parametrize("family", [_wide, _tri])
def test_checks_do_not_grow_with_the_state(prelude, monkeypatch, family):
    """A check works on what changed since the last one: the closures it
    types do not grow with the state (1.96 and 2.00 per check at n = 25
    and 400 on ``wide``, 1.75 and 1.75 on ``tri``), and it lists no
    binding.  The whole-state fold looked up every live binding's and
    stack entry's closure at every check (54 and 804 per check on
    ``wide``, 37 and 443 on ``tri``), and listed every binding.  A
    closure's usage is still renamed name by name: in ``wide n`` one
    closure per binding has O(n) free names.  The floor makes a spy that
    stops seeing the checker's calls fail."""
    small, listed_small = _work_per_check(prelude, monkeypatch, family(25))
    large, listed_large = _work_per_check(prelude, monkeypatch, family(400))
    assert 1 <= small and large <= 1.25 * small
    assert listed_small == listed_large == 0


def test_case_frames_have_one_type_per_run(prelude):
    """Each case node's frame has one type per result type and run, so the
    check's table of well-formed types, keyed by identity, stops growing
    once every rule has been seen: 4 entries at n = 25 and 200.  A frame
    type built at every case step added an entry per step (29 at n = 25,
    204 at n = 200)."""
    sizes = []
    for n in (25, 200):
        checked = _checked_text(prelude, _tri(n))
        sh = to_sharing(checked.term, checked.env)
        res = instrumented_eval(initial_state(sh, checked.ty, checked.env),
                                10_000_000)
        assert res.outcome.is_value
        cache = res.state.checker.cache
        sizes.append(len(cache.types))
    assert sizes[0] == sizes[1]


def test_unchecked_runs_build_no_typing_witnesses(prelude, monkeypatch):
    """Stack entries and case frames exist for the state check alone, so an
    unchecked run of ``tri 25``, ``tri 200`` or an array program builds
    neither.  A checked run of each builds both, which makes a spy that
    stops seeing them fail."""
    module = importlib.import_module("lqlang.eval_pure")
    tally = Counter()
    real_frame, real_entry = _PState.case_frame, module.SEntry

    def case_frame(self, t, ty):
        tally["frames"] += 1
        return real_frame(self, t, ty)

    def entry(*args):
        tally["entries"] += 1
        return real_entry(*args)

    monkeypatch.setattr(_PState, "case_frame", case_frame)
    monkeypatch.setattr(module, "SEntry", entry)
    programs = [_checked_text(prelude, _tri(25)),
                _checked_text(prelude, _tri(200)),
                check_corpus(CORPUS / "array_builder.lq", prelude)]
    for checked, check in [(p, False) for p in programs] + [
            (programs[0], True), (programs[2], True)]:
        tally.clear()
        sh = to_sharing(checked.term, checked.env)
        res = eval_pure(initial_state(sh, checked.ty, checked.env),
                        10_000_000, check=check)
        assert res.outcome.is_value and res.steps > 20
        if check:
            assert tally["frames"] > 0 and tally["entries"] > 0
        else:
            assert tally["frames"] == tally["entries"] == 0
            assert not res.state.frames and not res.state.xi.vars


def _agreement_programs(prelude):
    for path in corpus_files() + sorted(DATA.glob("*.lq")):
        yield path.name, check_corpus(path, prelude)
    for seed in range(50):
        yield f"seed {seed}", gen_welltyped(GenConfig(seed=seed)).checked


def test_checked_and_unchecked_runs_agree(prelude):
    """A checked run builds the typing witnesses and an unchecked one does
    not; otherwise they run the same rules, so they give the same outcome,
    value, steps, array counts, remaining linear bindings and trace."""
    for name, checked in _agreement_programs(prelude):
        sh = to_sharing(checked.term, checked.env)
        runs = [eval_pure(initial_state(sh, checked.ty, checked.env), 2_000,
                          want_trace=True, check=check)
                for check in (False, True)]
        plain, full = [
            (r.outcome.kind, r.outcome.reason, r.outcome.rule,
             r.outcome.location, r.outcome.detail, r.outcome.value,
             r.steps, r.array_allocs, r.array_copies, r.linear_bindings(),
             r.trace) for r in runs]
        assert plain == full, name
        assert runs[0].check_count == 0 < runs[1].check_count, name


def _count_replays(monkeypatch):
    """Count the replays of checkers that belong to a machine."""
    real = Checker._replay
    tally = Counter()

    def replay(self, s):
        tally["machine replays"] += self.st is not None
        return real(self, s)

    monkeypatch.setattr(Checker, "_replay", replay)
    return tally


def test_totals_rebuild_once_when_a_group_splits(prelude, monkeypatch):
    """Forcing ``b`` puts ``c`` between ``a`` and ``b``, so the group's
    bindings are no longer one run: the machine's totals rebuild
    themselves by replay once, numbering the runs, and go on with them,
    with the reference's verdict."""
    text = ("main = let[w] a : Int = add(b, 1) , "
            "b : Int = let[w] c : Int = 2 in c in a\n")
    replays = _count_replays(monkeypatch)
    tally = _compare_on_runs(monkeypatch, [_checked_text(prelude, text)],
                             perturb=False)
    assert tally["mismatches"] == 0 and tally["states"] == 7
    # the initial state's replay, then the one at the split
    assert replays["machine replays"] == 2
    checked = _checked_text(prelude, text)
    sh = to_sharing(checked.term, checked.env)
    res = instrumented_eval(initial_state(sh, checked.ty, checked.env), 100)
    assert res.outcome.value == IntLit(3)
    checker = res.state.checker
    assert not checker.stale and checker.runs is not None


_SPLIT = ("main = let[w] a : Int = add(f 1, 0) , f : Int ->[w] Int = "
          "{rhs} , d : Int = 5 in add(f 1, a)\n")


@pytest.mark.parametrize("rhs, replays, split", [
    # ``c`` stays between ``a`` and ``f``; ``f`` then rejoins ``d``'s run
    (r"let[w] c : Int = 2 in \[w] x : Int . add(x, d)", 2, True),
    # ``c`` is consumed while ``f`` is forced: ``a`` and ``d`` are one run
    # again, and the totals rebuild a second time
    (r"let[1] c : Int = 2 in case[1] eq(c, 2) of { True -> \[w] x : Int . "
     r"add(x, d) ; False -> \[w] x : Int . x }", 3, False)])
def test_totals_follow_runs_that_rejoin_and_merge(prelude, monkeypatch, rhs,
                                                  replays, split):
    """Forcing ``f`` while ``a`` is live splits their group.  The value
    that ``f`` is updated to uses ``d``, which is in scope only if ``f``
    and ``d`` are one run; every verdict is the reference's."""
    checked = _checked_text(prelude, _SPLIT.format(rhs=rhs))
    tally = _count_replays(monkeypatch)
    tally.update(_compare_on_runs(monkeypatch, [checked], perturb=False))
    assert tally["mismatches"] == 0 and tally["states"] > 15
    assert tally["machine replays"] == replays
    sh = to_sharing(checked.term, checked.env)
    res = instrumented_eval(initial_state(sh, checked.ty, checked.env), 1000)
    assert res.outcome.value == IntLit(12)
    assert (res.state.checker.runs is not None) == split


def test_checked_run_from_a_non_empty_state(prelude_env, monkeypatch):
    """A checked run that starts with bindings in two groups, a context
    name and a stack entry: every check gets the reference's verdict, and
    the machine keeps the totals it replayed from the start state."""
    xi = prepare(prelude_env, IntLit(0)).xi
    xi = replace(xi, vars={"y": (INT, OMEGA)})
    x = EnvBind("x", True, INT, Clo(IntLit(5, ty=INT)), 1)
    z = EnvBind("z", False, INT, Clo(IntLit(2, ty=INT)), 2)
    focus = Prim("add", (Var("x", ty=INT), Var("z", ty=INT)), ty=INT)
    start = AnnState(xi=xi, env=(x, z), focus=Clo(focus), demand=ONE,
                     focus_ty=INT,
                     stack=SEntry(Clo(Var("y", ty=INT)), OMEGA, INT))
    assert reference_welltyped(start)
    module = importlib.import_module("lqlang.eval_pure")
    incremental = module.state_welltyped
    replays = _count_replays(monkeypatch)
    tally = Counter()

    def spy(s, cache=None):
        verdict = incremental(s, cache)
        tally["states"] += 1
        tally["mismatches"] += verdict != reference_welltyped(s)
        return verdict

    monkeypatch.setattr(module, "state_welltyped", spy)
    res = instrumented_eval(start, 1000)
    assert res.outcome.value == IntLit(7)
    assert tally["states"] == res.check_count + 1 > 3
    assert tally["mismatches"] == 0
    assert replays["machine replays"] == 1
    assert not res.state.checker.stale


def test_a_run_checks_every_conclusion_and_its_start(prelude, monkeypatch):
    """``state_welltyped``, looked up in ``lqlang.eval_pure``, sees the
    initial state and each rule conclusion of a checked run."""
    module = importlib.import_module("lqlang.eval_pure")
    real = module.state_welltyped
    calls = Counter()

    def spy(s, cache=None):
        calls["checks"] += 1
        return real(s, cache)

    monkeypatch.setattr(module, "state_welltyped", spy)
    checked = check_corpus(CORPUS / "list_sum.lq", prelude)
    sh = to_sharing(checked.term, checked.env)
    res = instrumented_eval(initial_state(sh, checked.ty, checked.env),
                            100_000)
    assert res.check_count == 19
    assert calls["checks"] == res.check_count + 1


def _insert_last(self, bind):
    """Every binding at the end, even while another is forced."""
    anchors, self.anchors = self.anchors, []
    try:
        _REAL_INSERT(self, bind)
    finally:
        self.anchors = anchors


def _remove_previous(self, bind):
    """Remove the binding before the consumed one, if there is one."""
    _REAL_REMOVE(self, bind.prev if bind.prev is not self.end else bind)


_REAL_INSERT, _REAL_REMOVE = _PState.insert, _PState.remove


@pytest.mark.parametrize("method, planted", [
    ("insert", _insert_last), ("remove", _remove_previous),
    ("remove", lambda self, bind: None)])
def test_planted_faults_get_the_reference_verdict(prelude, monkeypatch,
                                                  method, planted):
    """Under a planted evaluator fault, every state an instrumented run
    checks gets the reference's verdict, up to the first violation, and
    some run is stopped by one."""
    module = importlib.import_module("lqlang.eval_pure")
    incremental = module.state_welltyped
    tally = Counter()

    def spy(s, cache=None):
        verdict = incremental(s, cache)
        tally["mismatches"] += verdict != reference_welltyped(s)
        return verdict

    monkeypatch.setattr(module, "state_welltyped", spy)
    monkeypatch.setattr(_PState, method, planted)
    for checked in _checked_programs(prelude, range(20)):
        sh = to_sharing(checked.term, checked.env)
        try:
            instrumented_eval(initial_state(sh, checked.ty, checked.env),
                              100_000)
        except PreservationViolation:
            tally["violations"] += 1
    assert tally["mismatches"] == 0
    assert tally["violations"] > 0


def test_order_labels_follow_state_order(prelude, monkeypatch):
    """Forcing ``r`` inserts 60 bindings before it, more than the label
    gaps allow, so labels are spread out again; at every check they still
    increase along the environment, and every verdict is the
    reference's."""
    lets = " ".join(["let[w] a0 : Int = 0 in"] + [
        f"let[w] a{i} : Int = add(a{i - 1}, 1) in" for i in range(1, 60)])
    checked = _checked_text(
        prelude, f"main = let[w] r : Int = {lets} a59 in add(r, r)\n")
    tally = Counter()
    real_check, real_relabel = Checker.check, Checker._relabel

    def check(self, s):
        verdict = real_check(self, s)
        labels = [self.labels[id(b)] for b in self.st.ordered()]
        tally["unordered"] += labels != sorted(set(labels))
        return verdict

    def relabel(self, bind):
        tally["relabels"] += 1
        real_relabel(self, bind)

    monkeypatch.setattr(Checker, "check", check)
    monkeypatch.setattr(Checker, "_relabel", relabel)
    tally.update(_compare_on_runs(monkeypatch, [checked], perturb=False))
    assert tally["relabels"] > 0 and tally["unordered"] == 0
    assert tally["mismatches"] == 0 and tally["states"] == 184
