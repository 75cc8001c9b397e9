"""The typing rules, their verdicts on the canonical examples, and the
algorithmic contracts (usages as outputs, checked at binders)."""

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace

import pytest

from lqlang.diagnostics import CheckError, Kind
from lqlang.multiplicity import NF_OMEGA, NF_ONE, mult_normalize
from lqlang.parser import parse_program
from lqlang.pretty import show_type
from lqlang.syntax import (App, Branch, Case, Con, ConDecl, DataDecl, INT,
                           IntLit, Lam, Let, LetBind, MProd, MSum, MVar,
                           MultApp, MultLam, OMEGA, ONE, Prim, TArray, TArrow,
                           TData, TForall, TMArray, TVar, Var, subterms,
                           term_subst_mult, type_subst_mult)
from lqlang.typecheck import (InferMemo, TypeEnv, annotate,
                              annotations_equal, check_datadecl,
                              check_program, con_field_mults, infer,
                              instantiate_con, strip_annotations, type_equiv,
                              type_key)

from conftest import (CORPUS, check_corpus, corpus_files, load_corpus,
                      reject_files)

P11 = TData("Pair", (ONE, ONE), (INT, INT))


def mkpair(a, b, tys=(INT, INT), ms=(ONE, ONE)):
    return Con("MkPair", tys, ms, (a, b))


def kind_of(exc: CheckError) -> Kind:
    return exc.diagnostics[0].kind


def reject(env, term) -> Kind:
    with pytest.raises(CheckError) as e:
        infer(env, term)
    return kind_of(e.value)


# --- the verdict table -------------------------------------------------------

def test_swap_accepted_linear(prelude_env):
    swap = Lam(ONE, "x", P11,
               Case(ONE, Var("x"),
                    (Branch("MkPair", ("a", "b"),
                            mkpair(Var("b"), Var("a"))),)))
    r = infer(prelude_env, swap)
    assert type_equiv(r.ty, TArrow(P11, ONE, P11))


def test_fst_rejected_under_case1(prelude_env):
    fst1 = Lam(ONE, "x", P11,
               Case(ONE, Var("x"), (Branch("MkPair", ("a", "b"), Var("a")),)))
    assert reject(prelude_env, fst1) is Kind.LINEARITY_MISMATCH


def test_fst_accepted_under_casew(prelude_env):
    fstw = Lam(OMEGA, "x", P11,
               Case(OMEGA, Var("x"), (Branch("MkPair", ("a", "b"), Var("a")),)))
    r = infer(prelude_env, fstw)
    assert type_equiv(r.ty, TArrow(P11, OMEGA, INT))


def test_f1_reuses_component_needs_omega(prelude_env):
    # f1 x = case x of (a, b) -> (a, a): no linear type
    body = Case(ONE, Var("x"),
                (Branch("MkPair", ("a", "b"), mkpair(Var("a"), Var("a"))),))
    assert reject(prelude_env, Lam(ONE, "x", P11, body)) \
        is Kind.LINEARITY_MISMATCH
    body_w = Case(OMEGA, Var("x"),
                  (Branch("MkPair", ("a", "b"), mkpair(Var("a"), Var("a"))),))
    r = infer(prelude_env, Lam(OMEGA, "x", P11, body_w))
    assert type_equiv(r.ty, TArrow(P11, OMEGA, P11))


def test_f2_swap_has_linear_type(prelude_env):
    body = Case(ONE, Var("x"),
                (Branch("MkPair", ("a", "b"), mkpair(Var("b"), Var("a"))),))
    r = infer(prelude_env, Lam(ONE, "x", P11, body))
    assert type_equiv(r.ty, TArrow(P11, ONE, P11))


def test_dup_rejected_at_linear_arrow(prelude_env):
    dup = Lam(ONE, "x", INT, mkpair(Var("x"), Var("x")))
    assert reject(prelude_env, dup) is Kind.LINEARITY_MISMATCH


def test_poly_id_rejected(prelude_env):
    pid = MultLam("p", Lam(MVar("p"), "x", INT, Var("x")))
    assert reject(prelude_env, pid) is Kind.LINEARITY_MISMATCH


def test_omega_wrapper_around_linear_function(prelude_env):
    env = prelude_env.bind_var("f", TArrow(INT, ONE, INT), OMEGA)
    g = Lam(OMEGA, "x", INT, App(Var("f"), Var("x")))
    r = infer(env, g)
    assert type_equiv(r.ty, TArrow(INT, OMEGA, INT))


def test_weakening_judgement(prelude_env):
    env = prelude_env.bind_var("x", INT, ONE).bind_var("y", TData("Bool"),
                                                       OMEGA)
    r = infer(env, Var("x"))
    assert r.ty == INT
    assert r.usage == {"x": NF_ONE}


# --- per-rule contracts -------------------------------------------------------

def test_var_usage_is_one(prelude_env):
    env = prelude_env.bind_var("x", INT, OMEGA)
    assert infer(env, Var("x")).usage == {"x": NF_ONE}


def test_app_scales_argument_usage(prelude_env):
    env = (prelude_env
           .bind_var("f", TArrow(INT, OMEGA, INT), OMEGA)
           .bind_var("u", INT, OMEGA))
    r = infer(env, App(Var("f"), Var("u")))
    assert r.usage == {"f": NF_ONE, "u": NF_OMEGA}


def test_app_requires_equivalent_arrow_mult(prelude_env):
    # 1*p and p unify on the arrow
    env = (prelude_env
           .bind_mult("p")
           .bind_var("f", TArrow(INT, MProd(ONE, MVar("p")), INT), OMEGA)
           .bind_var("u", INT, OMEGA))
    r = infer(env, App(Var("f"), Var("u")))
    assert r.usage["u"] == mult_normalize(MVar("p"))


def test_con_is_an_application(prelude_env):
    env = prelude_env.bind_var("a", INT, ONE).bind_var("b", INT, ONE)
    r = infer(env, mkpair(Var("a"), Var("b")))
    assert r.usage == {"a": NF_ONE, "b": NF_ONE}
    assert type_equiv(r.ty, P11)


def test_con_unrestricted_field_scales(prelude_env):
    env = prelude_env.bind_var("a", INT, OMEGA)
    r = infer(env, Con("Unrestricted", (INT,), (), (Var("a"),)))
    assert r.usage == {"a": NF_OMEGA}


def test_case_scrutinee_scaled_and_branches_joined(prelude_env):
    env = (prelude_env
           .bind_var("s", TData("Bool"), OMEGA)
           .bind_var("z", INT, OMEGA))
    t = Case(OMEGA, Var("s"), (Branch("True", (), Var("z")),
                               Branch("False", (), IntLit(0))))
    r = infer(env, t)
    assert r.usage["s"] == NF_OMEGA       # scaled by the case multiplicity
    assert r.usage["z"] == NF_OMEGA       # used in one branch only -> w


def test_case_branch_type_mismatch(prelude_env):
    t = Case(ONE, Con("True", (), (), ()),
             (Branch("True", (), IntLit(1)),
              Branch("False", (), Con("False", (), (), ()))))
    assert reject(prelude_env, t) is Kind.TYPE_MISMATCH


def test_case_branch_from_wrong_datatype(prelude_env):
    t = Case(ONE, Con("True", (), (), ()),
             (Branch("Nil", (), IntLit(1)),))
    assert reject(prelude_env, t) is Kind.TYPE_MISMATCH


def test_let_body_binder_checked(prelude_env):
    t = Let(ONE, (LetBind("x", INT, IntLit(1)),), IntLit(2))  # x unused
    assert reject(prelude_env, t) is Kind.LINEARITY_MISMATCH


def test_let_omega_group_is_recursive(prelude_env):
    t = Let(OMEGA,
            (LetBind("f", TArrow(INT, OMEGA, INT),
                     Lam(OMEGA, "n", INT,
                         Case(ONE, Prim("eq", (Var("n"), IntLit(0))),
                              (Branch("True", (), IntLit(0)),
                               Branch("False", (),
                                      App(Var("f"),
                                          Prim("sub", (Var("n"),
                                                       IntLit(1))))))))),),
            App(Var("f"), IntLit(3)))
    r = infer(prelude_env, t)
    assert r.ty == INT


def test_let_one_group_not_recursive(prelude_env):
    t = Let(ONE, (LetBind("x", INT, Var("x")),), Var("x"))
    assert reject(prelude_env, t) is Kind.UNBOUND_VARIABLE


def test_instantiated_let_charges_the_outer_binder(prelude_env):
    """A ``let[p]`` instantiated at w is still not recursive: the outer
    ``x`` its right-hand side reads is charged at w, the group's
    multiplicity."""
    rhs = Prim("add", (Var("x"), IntLit(1)))
    t = Let(MVar("p"), (LetBind("x", INT, rhs),), Var("x"))
    u = term_subst_mult(t, "p", OMEGA)
    r = infer(prelude_env.bind_var("x", INT, OMEGA), u)
    assert r.ty == INT and r.usage == {"x": NF_OMEGA}


def test_mult_lam_freshness(prelude_env):
    env = prelude_env.bind_mult("p").bind_var(
        "f", TArrow(INT, MVar("p"), INT), OMEGA)
    t = MultLam("p", Lam(ONE, "x", INT, Var("x")))
    assert reject(env, t) is Kind.FRESHNESS_VIOLATION


def test_mult_app_substitutes(prelude_env):
    ap = MultLam("p", Lam(ONE, "f", TArrow(INT, MVar("p"), INT),
                          Lam(MVar("p"), "x", INT,
                              App(Var("f"), Var("x")))))
    r = infer(prelude_env, MultApp(ap, OMEGA))
    want = TArrow(TArrow(INT, OMEGA, INT), ONE, TArrow(INT, OMEGA, INT))
    assert type_equiv(r.ty, want)


def test_mult_app_substitution_coherence(prelude_env):
    """Instantiating after inference equals inferring the instantiated term."""
    ap = MultLam("p", Lam(ONE, "f", TArrow(INT, MVar("p"), INT),
                          Lam(MVar("p"), "x", INT, App(Var("f"), Var("x")))))
    for m in (ONE, OMEGA):
        via_app = infer(prelude_env, MultApp(ap, m))
        direct = infer(prelude_env, term_subst_mult(ap.body, "p", m))
        assert type_equiv(via_app.ty, direct.ty)
        assert via_app.usage == direct.usage


def test_shadowing_respects_innermost(prelude_env):
    t = Let(ONE, (LetBind("x", INT, IntLit(1)),),
            Let(ONE, (LetBind("x", INT, Prim("add", (Var("x"), IntLit(1)))),),
                Var("x")))
    r = infer(prelude_env, t)
    assert r.ty == INT and r.usage == {}


def test_determinism(prelude_env):
    t = Lam(ONE, "x", P11,
            Case(ONE, Var("x"),
                 (Branch("MkPair", ("a", "b"), mkpair(Var("b"), Var("a"))),)))
    r1, r2 = infer(prelude_env, t), infer(prelude_env, t)
    assert r1.ty == r2.ty and r1.usage == r2.usage


def test_recheck_reproduces_annotations(prelude):
    """``check_program`` annotates every node of the program it accepts,
    and annotating an unannotated copy writes the same annotations: here
    on the corpus and gen seeds 0-49."""
    from lqlang.harness import GenConfig, gen_welltyped
    programs = [check_corpus(path, prelude) for path in corpus_files()]
    programs += [gen_welltyped(GenConfig(seed=s)).checked for s in range(50)]
    for checked in programs:
        nodes = list(subterms(checked.term))
        assert all(n.ty is not None for n in nodes)
        assert all(n.mult_ann is not None for n in nodes
                   if isinstance(n, App))
        again = strip_annotations(checked.term)
        assert not annotations_equal(checked.term, again)
        annotate(checked.env, again)
        assert annotations_equal(checked.term, again)


def test_check_program_annotates_the_parsed_term_without_copying(
        prelude, monkeypatch):
    """``check_program`` writes the annotations into the parsed program
    itself: no node is copied, and the checked term holds ``main``."""
    import lqlang.syntax as S
    import lqlang.typecheck as T
    copies = Counter()

    def counting(real):
        def copy(t, **changes):
            copies[type(t).__name__] += 1
            return real(t, **changes)
        return copy

    sfs = [load_corpus(path, prelude) for path in corpus_files()]
    # every node class's copier
    for cls in vars(S).values():
        if isinstance(cls, type) and "_with" in vars(cls):
            monkeypatch.setattr(cls, "_with", counting(cls._with))
    for sf in sfs:
        checked = T.check_program(sf.decls, sf.defs, sf.main)
        assert any(n is sf.main for n in subterms(checked.term))
        assert sf.main.ty is not None
    assert copies == Counter()


def test_a_rejected_program_stays_as_parsed(prelude):
    """Annotations are written only once the whole program is accepted:
    after a rejection no node of the parsed program has any."""
    parsed = 0
    for path in reject_files():
        try:
            sf = load_corpus(path, prelude)
        except CheckError:
            continue  # rejected by the parser
        with pytest.raises(CheckError):
            check_program(sf.decls, sf.defs, sf.main)
        for term in [sf.main] + [rhs for *_, rhs in sf.defs]:
            for n in subterms(term):
                assert n.ty is None, (path.name, n)
                assert not isinstance(n, App) or n.mult_ann is None
        parsed += 1
    assert parsed >= 10


def test_zero_fits_omega_binder(prelude_env):
    """If a binding is w, the variable may be dropped entirely."""
    used = Lam(OMEGA, "x", INT, Var("x"))
    unused = Lam(OMEGA, "x", INT, IntLit(3))
    assert infer(prelude_env, used).ty == infer(prelude_env, unused).ty


# --- datatype declarations ----------------------------------------------------

def test_unrestricted_decl_accepted():
    d = DataDecl("Unrestricted", (), ("a",),
                 (ConDecl("Unrestricted", ((TVar("a"), OMEGA),)),))
    check_datadecl(d)


def test_out_of_scope_mult_param_rejected():
    d = DataDecl("Box", ("p",), ("a",),
                 (ConDecl("MkBox", ((TVar("a"), MVar("q")),)),))
    with pytest.raises(CheckError) as e:
        check_datadecl(d)
    assert kind_of(e.value) is Kind.MALFORMED_DECL


def test_out_of_scope_type_var_rejected():
    d = DataDecl("Box", (), ("a",), (ConDecl("MkBox", ((TVar("b"), ONE),)),))
    with pytest.raises(CheckError) as e:
        check_datadecl(d)
    assert kind_of(e.value) is Kind.MALFORMED_DECL


def test_linear_list_decl_accepted():
    d = DataDecl("List", (), ("a",),
                 (ConDecl("Nil", ()),
                  ConDecl("Cons", ((TVar("a"), ONE),
                                   (TData("List", (), (TVar("a"),)), ONE)))))
    check_datadecl(d)


# --- whole programs -----------------------------------------------------------

def test_array_program_accepted(prelude):
    src = """
    main = case[1] newMArray(2, 0, \\[1] ma : MArray Int .
             freeze(write(ma, 0, 7))) of
      { Unrestricted arr -> index(arr, 0) }
    """
    sf = parse_program(src, base=prelude)
    checked = check_program(sf.decls, sf.defs, sf.main)
    assert checked.ty == INT


def test_write_to_frozen_array_type_rejected(prelude):
    src = """
    main = case[1] newMArray(1, 0, \\[1] ma : MArray Int . freeze(ma)) of
      { Unrestricted arr ->
          case[1] write(arr, 0, 5) of { Unrestricted x -> x } }
    """
    sf = parse_program(src, base=prelude)
    with pytest.raises(CheckError) as e:
        check_program(sf.decls, sf.defs, sf.main)
    assert kind_of(e.value) is Kind.TYPE_MISMATCH


def test_empty_program(prelude_env):
    checked = check_program([], [], IntLit(5))
    assert checked.ty == INT


def test_duplicate_def_rejected():
    with pytest.raises(CheckError) as e:
        check_program([], [("f", INT, OMEGA, IntLit(1)),
                           ("f", INT, OMEGA, IntLit(2))], IntLit(0))
    assert kind_of(e.value) is Kind.MALFORMED_DECL


def test_def_type_mismatch_aggregates(prelude):
    src = """
    def a : Int =[w] True
    def b : Bool =[w] 3
    main = 0
    """
    sf = parse_program(src, base=prelude)
    with pytest.raises(CheckError) as e:
        check_program(sf.decls, sf.defs, sf.main)
    kinds = [d.kind for d in e.value.diagnostics]
    assert kinds.count(Kind.TYPE_MISMATCH) >= 2


def test_bad_definition_type_is_reported_once_at_the_definition(prelude):
    sf = parse_program("def f : Int =[w] \\[1] x : Int . x\nmain = 0\n",
                       base=prelude)
    with pytest.raises(CheckError) as e:
        check_program(sf.decls, sf.defs, sf.main)
    assert [str(d) for d in e.value.diagnostics] == [
        "1:18: TypeMismatch: definition 'f' declares type 'Int' but its "
        "body has type 'Int ->[1] Int'"]


@pytest.mark.parametrize("src, diagnostic", [
    ("def f : Int ->[p] Int =[w] \\[1] x : Int . x\nmain = 0\n",
     "1:28: UnboundVariable: multiplicity variable 'p' is not in scope"),
    ("def f : Int =[1] 1\nmain = 0\n",
     "1:18: LinearityMismatch: variable 'f' is used with multiplicity 0 but "
     "is bound with multiplicity 1"),
])
def test_definition_diagnostics_carry_a_location(prelude, src, diagnostic):
    sf = parse_program(src, base=prelude)
    with pytest.raises(CheckError) as e:
        check_program(sf.decls, sf.defs, sf.main)
    assert [str(d) for d in e.value.diagnostics] == [diagnostic]


def test_accepted_program_infers_each_definition_once(prelude, monkeypatch):
    """On an accepted program the per-definition probe does not run, so
    each definition body is inferred once, inside the whole program."""
    import lqlang.typecheck as T
    sf = parse_program((CORPUS / "mutual_recursion.lq").read_text("utf-8"),
                       base=prelude)
    rhs_ids = [id(rhs) for *_, rhs in sf.defs]
    assert len(rhs_ids) >= 2
    real = T.infer
    calls = Counter()

    def counting(env, t):
        calls[id(t)] += 1
        return real(env, t)

    monkeypatch.setattr(T, "infer", counting)
    T.check_program(sf.decls, sf.defs, sf.main)
    assert [calls[i] for i in rhs_ids] == [1] * len(rhs_ids)


def test_diagnostics_carry_locations(prelude):
    sf = parse_program("main = y", base=prelude)
    with pytest.raises(CheckError) as e:
        check_program(sf.decls, sf.defs, sf.main)
    assert all(d.loc is not None for d in e.value.diagnostics)


def _let_chain(n: int) -> str:
    """``main`` as n nested lets, each reading the one before."""
    lets = "".join(
        f"let[1] x{i} : Int = {f'add(x{i - 1}, 1)' if i else '0'} in "
        for i in range(n))
    return f"main = {lets}x{n - 1}"


def _env_entries(prelude, monkeypatch, n: int) -> int:
    """The variable-table entries ``infer`` works with while checking a
    chain of n lets: each distinct table it is called with, counted at the
    largest size it is seen at.  A table copied per binder counts again."""
    import lqlang.typecheck as T
    sf = parse_program(_let_chain(n), base=prelude)
    tables: dict[int, tuple[dict, int]] = {}
    real = T.infer

    def counting(env, t):
        seen = tables.get(id(env.vars))
        if seen is None or seen[1] < len(env.vars):
            tables[id(env.vars)] = (env.vars, len(env.vars))
        return real(env, t)

    with monkeypatch.context() as m:
        m.setattr(T, "infer", counting)
        T.check_program(sf.decls, sf.defs, sf.main)
    return sum(size for _, size in tables.values())


def test_let_chain_environment_grows_linearly(prelude, monkeypatch):
    """Binders extend one table in place, so the entries ``infer`` works
    with grow linearly in the length of a let chain (a copy per binder
    made them grow quadratically: about n * n / 2)."""
    small = _env_entries(prelude, monkeypatch, 1_000)
    large = _env_entries(prelude, monkeypatch, 4_000)
    assert 1_000 <= small and 4_000 <= large <= 4 * small


def test_a_failed_inference_leaves_the_environment_as_it_was(prelude_env):
    """``infer`` restores the bindings it made also when it rejects, so the
    same environment can be used again (as the definition probe does)."""
    env = prelude_env.bind_var("x", INT, OMEGA).bind_var("b", TData("Bool"),
                                                         OMEGA)
    before = list(env.vars.items())
    bad = Var("nope")
    terms = [
        Lam(ONE, "x", INT, bad),  # shadows x
        Lam(ONE, "y", INT, bad),
        Let(ONE, (LetBind("y", INT, IntLit(1)),), bad),
        Let(OMEGA, (LetBind("y", INT, bad), LetBind("x", INT, IntLit(1))),
            Var("y")),
        Let(ONE, (LetBind("x", INT, IntLit(1)),), IntLit(2)),  # unused x
        Case(OMEGA, Var("b"), (Branch("True", (), IntLit(1)),
                               Branch("False", (), bad))),
        Case(ONE, mkpair(IntLit(1), IntLit(2)),
             (Branch("MkPair", ("x", "x"), bad),)),
        MultLam("p", Lam(MVar("p"), "z", INT, bad)),
    ]
    for t in terms:
        with pytest.raises(CheckError):
            infer(env, t)
        assert list(env.vars.items()) == before, t


# --- the per-run memo ----------------------------------------------------------

def test_usage_keys_are_the_free_variables(prelude, monkeypatch):
    """A memo entry records the types of a subterm's usage keys as the
    types of its free variables, so the two sets must be the same: here on
    every subterm of the sharing forms of the corpus and gen seeds 0-199."""
    import lqlang.typecheck as T
    from lqlang.harness import GenConfig, gen_welltyped
    from lqlang.syntax import free_vars
    from lqlang.translate import to_sharing
    programs = [check_corpus(path, prelude) for path in corpus_files()]
    programs += [gen_welltyped(GenConfig(seed=s)).checked
                 for s in range(200)]
    real = T.infer
    tally = Counter()

    def spy(env, t):
        r = real(env, t)
        tally["calls"] += 1
        tally["mismatches"] += set(r.usage) != free_vars(t)
        return r

    monkeypatch.setattr(T, "infer", spy)
    for checked in programs:
        T.infer(checked.env, to_sharing(checked.term, checked.env))
    assert tally["mismatches"] == 0
    assert tally["calls"] > 20_000


@dataclass
class CountingMemo(InferMemo):
    """An ``InferMemo`` that counts its hits, by whether a multiplicity
    variable is in scope.  A hit and a miss give the same result, so only
    the memo can tell them apart."""
    hits: Counter = field(default_factory=Counter)

    def hit(self, env, t):
        r = super().hit(env, t)
        if r is not None:
            self.hits["under" if env.mult_vars else "outside"] += 1
        return r


def test_memo_reinfers_when_a_free_variable_changes_type(prelude_env):
    memo = CountingMemo()
    env = replace(prelude_env, memo=memo)
    as_int = env.bind_var("x", INT, OMEGA)
    as_bool = env.bind_var("x", TData("Bool"), OMEGA)
    lam = Lam(OMEGA, "y", INT, Var("x"))
    assert type_equiv(infer(as_int, lam).ty, TArrow(INT, OMEGA, INT))
    infer(as_int, lam)
    assert memo.hits["outside"] == 1  # the second inference was a hit
    again = infer(as_bool, lam)
    assert memo.hits["outside"] == 1  # this one was not
    assert type_equiv(again.ty, TArrow(INT, OMEGA, TData("Bool")))
    add = Prim("add", (Var("x"), IntLit(1)))
    infer(as_int, add)
    with pytest.raises(CheckError):
        infer(as_bool, add)
    with pytest.raises(CheckError):
        infer(env, add)  # x is not in scope at all


def test_memo_never_hits_under_a_mult_lambda(prelude_env):
    """Under a multiplicity binder a subterm is inferred every time, and
    nothing under it is recorded."""
    memo = CountingMemo()
    env = replace(prelude_env, memo=memo)
    # /\p. \[1] f : Int ->[p] Int . \[p] x : Int . f x
    body = Lam(ONE, "f", TArrow(INT, MVar("p"), INT),
               Lam(MVar("p"), "x", INT, App(Var("f"), Var("x"))))
    first, second = MultLam("p", body), MultLam("p", body)
    for t in (first, second, first):
        assert isinstance(infer(env, t).ty, TForall)
    assert memo.hits == Counter(under=0, outside=1)  # the second `first`
    assert not memo.entries.keys() & {id(body), id(body.body)}


def test_memo_types_as_the_memoless_infer_does(prelude):
    """With a memo, a miss and a hit give the type and usage that a
    memo-less ``infer`` gives.  Here on the source and sharing forms of
    the corpus and gen seeds 0-49, each typed twice, so that the second is
    a hit."""
    from lqlang.harness import GenConfig, gen_welltyped
    from lqlang.translate import to_sharing
    programs = [check_corpus(path, prelude) for path in corpus_files()]
    programs += [gen_welltyped(GenConfig(seed=s)).checked for s in range(50)]
    for checked in programs:
        for t in (checked.term, to_sharing(checked.term, checked.env)):
            want = infer(checked.env, t)
            memo = CountingMemo()
            env = replace(checked.env, memo=memo)
            for hits in (0, 1):
                r = infer(env, t)
                assert type_equiv(r.ty, want.ty) and r.usage == want.usage
                assert memo.hits["outside"] == hits


# --- type equality -------------------------------------------------------------

def _int_to_int(m):
    return TArrow(INT, m, INT)


P, Q, R = MVar("p"), MVar("q"), MVar("r")
BOOL = TData("Bool")

# (a, b, are they equal types?)
TYPE_PAIRS = [
    (_int_to_int(MSum(P, Q)), _int_to_int(MSum(Q, P)), True),
    (_int_to_int(MProd(ONE, P)), _int_to_int(P), True),
    (_int_to_int(MProd(OMEGA, P)), _int_to_int(MProd(P, OMEGA)), True),
    (_int_to_int(MSum(P, P)), _int_to_int(MProd(OMEGA, P)), True),
    (_int_to_int(MSum(P, Q)), _int_to_int(MProd(P, Q)), False),
    (_int_to_int(ONE), _int_to_int(OMEGA), False),
    (TForall("p", _int_to_int(P)), TForall("r", _int_to_int(R)), True),
    (TForall("p", _int_to_int(P)), TForall("r", _int_to_int(P)), False),
    (TForall("p", _int_to_int(P)), _int_to_int(P), False),
    (TForall("p", TForall("q", TArrow(INT, P, _int_to_int(Q)))),
     TForall("q", TForall("p", TArrow(INT, Q, _int_to_int(P)))), True),
    (TForall("p", TForall("q", TArrow(INT, P, _int_to_int(Q)))),
     TForall("p", TForall("q", TArrow(INT, Q, _int_to_int(P)))), False),
    (TForall("p", TForall("p", _int_to_int(P))),
     TForall("q", TForall("r", _int_to_int(R))), True),
    (TForall("p", TForall("p", _int_to_int(P))),
     TForall("q", TForall("r", _int_to_int(Q))), False),
    (TData("Pair", (ONE, ONE), (INT, INT)),
     TData("Pair", (ONE, ONE), (INT, BOOL)), False),
    (TData("Pair", (MSum(P, Q), ONE), (INT, INT)),
     TData("Pair", (MSum(Q, P), ONE), (INT, INT)), True),
    (TData("Pair", (ONE, OMEGA), (INT, INT)),
     TData("Pair", (OMEGA, ONE), (INT, INT)), False),
    (TMArray(INT), TArray(INT), False),
    (TVar("a"), TData("a"), False),
]


def test_type_equiv_is_up_to_normal_forms_and_binder_renaming():
    wrong = [(show_type(a), show_type(b)) for a, b, equal in TYPE_PAIRS
             if type_equiv(a, b) is not equal
             or type_equiv(b, a) is not equal]
    assert not wrong


def _same_type(a, b, ra, rb, tags):
    """A structural comparison of two types: each multiplicity by its
    normal form, with the variables of enclosing binders renamed alike."""
    if type(a) is not type(b):
        return False
    if isinstance(a, TForall):
        tag = f"#{next(tags)}"
        return _same_type(a.body, b.body, {**ra, a.var: tag},
                          {**rb, b.var: tag}, tags)
    if isinstance(a, TArrow):
        return (_same_mult(a.mult, b.mult, ra, rb)
                and _same_type(a.dom, b.dom, ra, rb, tags)
                and _same_type(a.cod, b.cod, ra, rb, tags))
    if isinstance(a, TData):
        return (a.name == b.name
                and len(a.mult_args) == len(b.mult_args)
                and len(a.type_args) == len(b.type_args)
                and all(_same_mult(m, n, ra, rb)
                        for m, n in zip(a.mult_args, b.mult_args))
                and all(_same_type(s, t, ra, rb, tags)
                        for s, t in zip(a.type_args, b.type_args)))
    if isinstance(a, (TMArray, TArray)):
        return _same_type(a.elem, b.elem, ra, rb, tags)
    if isinstance(a, TVar):
        return a.name == b.name
    return True


def _same_mult(m, n, ra, rb):
    def renamed(x, ren):
        return sorted((sorted(ren.get(v, v) for v in mono), c)
                      for mono, c in mult_normalize(x).terms)
    return renamed(m, ra) == renamed(n, rb)


def _respelled(t, fresh):
    """``t`` written another way: binders renamed, and each multiplicity
    ``m`` written ``1 * m``."""
    if isinstance(t, TForall):
        p = f"{t.var}{next(fresh)}"
        return TForall(p, _respelled(type_subst_mult(t.body, t.var, MVar(p)),
                                     fresh))
    if isinstance(t, TArrow):
        return TArrow(_respelled(t.dom, fresh), MProd(ONE, t.mult),
                      _respelled(t.cod, fresh))
    if isinstance(t, TData):
        return TData(t.name, tuple(MProd(ONE, m) for m in t.mult_args),
                     tuple(_respelled(a, fresh) for a in t.type_args))
    if isinstance(t, (TMArray, TArray)):
        return type(t)(_respelled(t.elem, fresh))
    return t


def test_type_equiv_agrees_with_a_structural_comparison(prelude):
    """Every type that ``annotate`` writes on the corpus and gen seeds
    0-49, and each written another way (``_respelled``), one of each
    printed form: ``type_equiv`` agrees with ``_same_type`` on every
    pair."""
    from lqlang.harness import GenConfig, gen_welltyped
    programs = [check_corpus(path, prelude) for path in corpus_files()]
    programs += [gen_welltyped(GenConfig(seed=s)).checked for s in range(50)]
    fresh = itertools.count()
    types = {}
    for checked in programs:
        for node in subterms(checked.term):
            types.setdefault(show_type(node.ty), node.ty)
    for ty in list(types.values()):
        again = _respelled(ty, fresh)
        types.setdefault(show_type(again), again)
    types = list(types.values())
    assert len(types) > 50
    tags = itertools.count()
    for i, a in enumerate(types):
        for b in types[i:]:
            assert type_equiv(a, b) == _same_type(a, b, {}, {}, tags), (
                show_type(a), show_type(b))


def test_a_type_keeps_its_key():
    for ty in [INT, BOOL, *(t for pair in TYPE_PAIRS for t in pair[:2])]:
        key = type_key(ty)
        assert type_key(ty) is key


# --- constructor instances -----------------------------------------------------

def test_constructor_multiplicity_arguments_are_not_captured(prelude):
    """A constructor's multiplicity arguments go into its signature all at
    once, before its type arguments: each parameter is mapped once, and a
    multiplicity variable that an argument mentions is never taken for a
    parameter of the datatype, nor bound by a field's ``forall``.  The
    translation reads the same field multiplicities."""
    env = TypeEnv.from_decls(prelude.decls)
    q = MVar("q")
    g_ty = TArrow(INT, q, INT)
    fields, result = instantiate_con(env, "MkPair", (g_ty, INT), (q, OMEGA))
    assert fields == ((g_ty, q), (INT, OMEGA))
    assert result is TData("Pair", (q, OMEGA), (g_ty, INT))
    assert con_field_mults(env, "MkPair", (g_ty, INT), (q, OMEGA)) \
        == (q, OMEGA)

    def main_type(p):
        sf = parse_program(f"main = /\\{p} . \\[1] g : Int ->[{p}] Int . "
                           f"MkPair @[Int ->[{p}] Int, Int] @[1, 1] g 0\n",
                           base=prelude)
        return check_program(sf.decls, sf.defs, sf.main).ty

    assert type_equiv(main_type("p"), main_type("r"))

    def poly_type(r):
        sf = parse_program(
            "data Poly (a) where { MkPoly : (forall p. a ->[p] Int) ->[1] "
            "Poly a }\nmain = /\\p . \\[1] f : forall " + r
            + ". (Int ->[p] Int) ->[" + r + "] Int . "
            "MkPoly @[Int ->[p] Int] f\n", base=prelude)
        return check_program(sf.decls, sf.defs, sf.main).ty

    # a field's ``forall p`` does not capture the type argument's ``p``
    assert type_equiv(poly_type("q"), poly_type("r"))


def test_constructor_instances_are_shared_types(prelude):
    """A repeated instance, under a program's environment or one derived
    from it and from equal but separately built arguments, has the same
    field and result type objects, in a new tuple.  Another program's
    ``Box`` instance has its own field type, and a failure is raised on
    every call."""
    from lqlang.eval_pure import initial_state
    env = TypeEnv.from_decls(prelude.decls)
    margs = (ONE, OMEGA)
    fields, result = instantiate_con(env, "MkPair", (INT, TData("Bool")),
                                     margs)
    assert isinstance(fields, tuple)
    assert [f for f, _ in fields] == [INT, TData("Bool")]
    assert fields[1][0] is TData("Bool")
    for derived in (env, env.bind_var("x", INT, ONE), env.bind_mult("p"),
                    initial_state(IntLit(0), INT, env).xi):
        again, again_result = instantiate_con(
            derived, "MkPair", (INT, TData("Bool", (), ())), (ONE, OMEGA))
        assert again is not fields
        assert all(f is g and m == n
                   for (f, m), (g, n) in zip(again, fields, strict=True))
        assert again_result is result

    def box(field_ty):
        sf = parse_program("data Box where { MkBox : " + field_ty
                           + " ->[1] Box }\nmain = 0\n", base=prelude)
        return check_program(sf.decls, sf.defs, sf.main).env

    ints, _ = instantiate_con(box("Int"), "MkBox", (), ())
    bools, _ = instantiate_con(box("Bool"), "MkBox", (), ())
    assert ints[0][0] is INT and bools[0][0] is TData("Bool")
    for _ in range(2):
        with pytest.raises(CheckError) as e:
            instantiate_con(env, "MkPair", (INT,), margs)
        assert kind_of(e.value) is Kind.ARITY_MISMATCH
