"""The sharing translation: argument variables everywhere, multiplicities
taken from the arrow / field signatures, idempotence, typing preserved."""

import sys
from collections import Counter
from dataclasses import replace

from lqlang.multiplicity import ZERO, mult_equiv, mult_normalize
from lqlang.syntax import (App, ArrayLit, Case, Con, INT, IntLit, Lam, Let,
                           OMEGA, ONE, Prim, TArrow, TData, Var, children,
                           free_vars, subterms)
from lqlang.translate import is_sharing, to_sharing
from lqlang.typecheck import (annotate, infer, strip_annotations,
                              type_equiv)

from conftest import check_corpus, checked_programs, corpus_files


def translate(env, term):
    annotate(env, term)
    return to_sharing(term, env)


def test_application_argument_let_bound(prelude_env):
    env = (prelude_env
           .bind_var("f", TArrow(INT, ONE, INT), OMEGA)
           .bind_var("g", TArrow(INT, OMEGA, INT), OMEGA)
           .bind_var("x", INT, OMEGA))
    sh = translate(env, App(Var("f"), App(Var("g"), Var("x"))))
    # f (g x)  ==>  let[1] y : Int = g x in f y
    assert isinstance(sh, Let)
    assert mult_equiv(sh.mult, ONE)  # the multiplicity of f's arrow
    assert sh.binds[0].var_ty == INT
    assert isinstance(sh.body, App) and isinstance(sh.body.arg, Var)
    assert sh.body.arg.name == sh.binds[0].var


def test_variable_argument_unchanged(prelude_env):
    env = (prelude_env
           .bind_var("f", TArrow(INT, ONE, INT), OMEGA)
           .bind_var("x", INT, OMEGA))
    t = App(Var("f"), Var("x"))
    sh = translate(env, t)
    assert strip_annotations(sh) == t


def test_constructor_arguments_bound_at_field_mults(prelude_env):
    t = Con("MkPair", (INT, INT), (ONE, OMEGA),
            (IntLit(1), Prim("add", (IntLit(2), IntLit(3)))))
    sh = translate(prelude_env, t)
    # two nested lets, at the instantiated field multiplicities 1 and w
    assert isinstance(sh, Let) and mult_equiv(sh.mult, ONE)
    inner = sh.body
    assert isinstance(inner, Let) and mult_equiv(inner.mult, OMEGA)
    assert isinstance(inner.body, Con)
    assert all(isinstance(a, Var) for a in inner.body.args)


def test_prim_arguments_bound_at_signature_mults(prelude_env):
    env = prelude_env.bind_var("ma", TData("Bool"), OMEGA)
    t = Prim("add", (Prim("mul", (IntLit(2), IntLit(3))), IntLit(4)))
    sh = translate(prelude_env, t)
    assert isinstance(sh, Let) and mult_equiv(sh.mult, ONE)
    assert is_sharing(sh)


def test_sharing_form_on_corpus(prelude):
    for path in corpus_files():
        checked = check_corpus(path, prelude)
        sh = to_sharing(checked.term, checked.env)
        assert is_sharing(sh), path.name


def test_idempotent_on_corpus(prelude):
    for path in corpus_files():
        checked = check_corpus(path, prelude)
        once = to_sharing(checked.term, checked.env)
        twice = to_sharing(once, checked.env)
        assert once == twice, path.name


def test_translation_preserves_typing(prelude):
    """``infer``, with no memo, accepts the sharing form of every checked
    program at the program's type, and leaves no variable used."""
    for name, checked in checked_programs(prelude, 200):
        env = replace(checked.env, memo=None)
        re = infer(env, to_sharing(checked.term, checked.env))
        assert type_equiv(re.ty, checked.ty), name
        assert not {x for x, u in re.usage.items() if u is not ZERO}, name


def test_translation_preserves_free_variable_usage(prelude_env):
    env = (prelude_env
           .bind_var("f", TArrow(INT, ONE, INT), OMEGA)
           .bind_var("x", INT, ONE))
    t = App(Var("f"), Prim("add", (Var("x"), IntLit(1))))
    before = annotate(env, t)
    sh = to_sharing(t, env)
    after = infer(env, strip_annotations(sh))
    assert before.usage == after.usage


def test_no_capture(prelude):
    """Fresh names are never shadowed by or shadow program binders."""
    for path in corpus_files():
        checked = check_corpus(path, prelude)
        sh = to_sharing(checked.term, checked.env)
        fresh_binders = set()
        for s in subterms(sh):
            if isinstance(s, Let):
                for b in s.binds:
                    if b.var.startswith("%"):
                        assert b.var not in fresh_binders, "duplicate fresh name"
                        fresh_binders.add(b.var)
        assert not (free_vars(sh) & fresh_binders)


def test_case_and_let_recurse_componentwise(prelude_env):
    t = Case(ONE, Con("True", (), (), ()),
             (Branch_("True", Prim("add", (IntLit(1), IntLit(2)))),
              Branch_("False", IntLit(0))))
    sh = translate(prelude_env, t)
    assert isinstance(sh, Case)
    assert is_sharing(sh)


def Branch_(con, body):
    from lqlang.syntax import Branch
    return Branch(con, (), body)


# --- recorded free-variable lists ---------------------------------------------

READSUM = """def readsum : Array Int ->[w] Int ->[w] Int =[w]
  \\[w] a : Array Int . \\[w] i : Int . case[1] eq(i, 0) of
    { True -> 0
    ; False -> add(index(a, sub(i, 1)), readsum a (sub(i, 1))) }
"""


def write_chain(n):
    """``n`` writes to a 512-cell array, then reads: a pair of the sum of
    the first ten cells and cell 3."""
    chain = "ma"
    for i in range(n):
        chain = f"write({chain}, {i * 7 % 512}, {i % 100})"
    return (READSUM + "main = case[1] newMArray(512, 0, \\[1] ma : MArray "
            f"Int . freeze({chain})) of\n  {{ Unrestricted arr -> MkPair "
            "@[Int, Int] @[1, w] (readsum arr 10) (index(arr, 3)) }\n")


def test_evaluation_walks_no_free_variables(prelude, monkeypatch):
    """The translation lists each let's free variables; the evaluators read
    the lists, so a run, a checked run and a deep force walk no term.
    Every free-variable walk goes through ``syntax.children``, which is
    counted here.  So does ``rename_vars``, when a closure is built into
    the value a run returns (``Clo.built``): that walk renames the value
    and reads no free variable, so it is counted apart."""
    import lqlang.syntax as S
    from lqlang.eval_ordinary import Heap, eval_term
    from lqlang.eval_pure import eval_pure, initial_state, instrumented_eval
    from lqlang.harness import deep_force_ordinary, deep_force_pure
    from lqlang.parser import parse_program
    from lqlang.runtime import Clo
    from lqlang.typecheck import check_program
    visits = Counter()
    real, real_built = S.children, Clo.built

    def counting(t):
        visits["built" if visits["building"] else "nodes"] += 1
        return real(t)

    def built(self):
        visits["building"] += 1
        try:
            return real_built(self)
        finally:
            visits["building"] -= 1

    monkeypatch.setattr(S, "children", counting)
    monkeypatch.setattr(Clo, "built", built)
    sf = parse_program(write_chain(500), base=prelude)
    checked = check_program(sf.decls, sf.defs, sf.main)
    sh = to_sharing(checked.term, checked.env)
    translated = visits["nodes"]
    visits.clear()
    ores = eval_term(Heap(), sh, 10**6)
    pres = eval_pure(initial_state(sh, checked.ty, checked.env), 10**6)
    ires = instrumented_eval(initial_state(sh, checked.ty, checked.env),
                             10**6)
    assert ores.outcome.is_value and pres.outcome.is_value
    assert ires.outcome.is_value and ires.check_count > 1_000
    otree, ok = deep_force_ordinary(ores, ores.outcome.value, 10**6)
    assert ok
    ptree, ok = deep_force_pure(pres, pres.outcome.value, checked.env,
                                10**6)
    assert ok and ptree == otree
    assert visits["nodes"] == 0
    assert visits["built"] > 0  # each run's ``MkPair`` value
    assert translated > 2_000  # the translation's one walk
    assert not any(hasattr(r.state, "fv_memo") for r in (ores, pres, ires))


def first_free(t, bound=frozenset(), out=None):
    """The free variables of ``t`` in order of first occurrence, from a
    plain recursive walk over ``children`` (the reference)."""
    out = {} if out is None else out
    match t:
        case Var(name):
            if name not in bound:
                out.setdefault(name)
        case Lam():
            first_free(t.body, bound | {t.var}, out)
        case Case():
            first_free(t.scrut, bound, out)
            for b in t.branches:
                first_free(b.body, bound | set(b.binders), out)
        case Let():
            inner = bound | {b.var for b in t.binds}
            for b in t.binds:
                first_free(b.rhs, inner if t.rec else bound, out)
            first_free(t.body, inner, out)
        case ArrayLit():
            for x in t.elems:
                if x not in bound:
                    out.setdefault(x)
        case _:
            for c in children(t):
                first_free(c, bound, out)
    return tuple(out)


def sharing_forms(prelude):
    """The sharing forms of corpus/**, tests/data and gen seeds 0-199, each
    with its name and environment; a rejected program is translated
    unchecked, as ``lq run --no-typecheck`` does."""
    from lqlang.diagnostics import CheckError
    from lqlang.harness import GenConfig, gen_welltyped
    from lqlang.typecheck import TypeEnv, check_program, elaborate_defs
    from conftest import CORPUS, DATA, load_corpus
    for path in sorted(CORPUS.rglob("*.lq")) + sorted(DATA.glob("*.lq")):
        sf = load_corpus(path, prelude)
        try:
            checked = check_program(sf.decls, sf.defs, sf.main)
        except CheckError:
            env = TypeEnv.from_decls(sf.decls)
            yield path.name, to_sharing(elaborate_defs(sf.defs, sf.main),
                                        env, untyped_arrow_mult=OMEGA), env
        else:
            yield (path.name, to_sharing(checked.term, checked.env),
                   checked.env)
    for seed in range(200):
        checked = gen_welltyped(GenConfig(seed=seed)).checked
        yield (f"seed {seed}", to_sharing(checked.term, checked.env),
               checked.env)


def let_binds(t):
    return [b for s in subterms(t) if isinstance(s, Let) for b in s.binds]


def test_recorded_lists_are_the_free_variables(prelude):
    """Every let binding of a sharing form carries the free variables of
    its right-hand side, once each, in first-occurrence order; a copy by
    ``term_subst_mult`` keeps them, and a copy by ``rename_vars`` never
    carries a stale one, and gets the right ones when it is translated
    again (the translation is idempotent)."""
    from lqlang.syntax import MultLam, rename_vars, term_subst_mult
    tally = Counter()
    for name, sh, env in sharing_forms(prelude):
        for b in let_binds(sh):
            assert b.fv == first_free(b.rhs), name
            assert set(b.fv) == free_vars(b.rhs), name
            tally["lists"] += 1
        copies = [term_subst_mult(sh, "p", OMEGA)]
        copies += [term_subst_mult(s.body, s.param, m)
                   for s in subterms(sh) if isinstance(s, MultLam)
                   for m in (ONE, OMEGA)]
        for copy in copies:
            for b in let_binds(copy):
                assert b.fv is not None, name
                assert set(b.fv) == free_vars(b.rhs), name
                tally["substituted"] += 1
        for s in subterms(sh):
            fv = free_vars(s)
            if not isinstance(s, Let) or not fv:
                continue
            renamed = rename_vars(s, {x: f"{x}'" for x in fv})
            for b in let_binds(renamed):
                assert b.fv is None or set(b.fv) == free_vars(b.rhs), name
            again = to_sharing(renamed, env)
            assert again == renamed, name
            for b in let_binds(again):
                assert set(b.fv) == free_vars(b.rhs), name
                tally["renamed"] += 1
    assert tally["lists"] > 10_000
    assert tally["substituted"] > tally["lists"]
    assert tally["renamed"] > 10_000


def test_translation_uses_no_host_stack(prelude):
    """A nested ``add`` five times deeper than the recursion limit that the
    translation runs under: the translation keeps its own stack.  Its lists
    are ``first_free``'s, from the outermost and innermost bindings and
    every 250th between."""
    from lqlang.parser import parse_program
    from lqlang.typecheck import check_program
    depth, limit = 5_000, 1_000
    nest = "".join(f"add({'ab'[i % 2]}, " for i in range(depth))
    sf = parse_program(f"main = (\\[w] a : Int . \\[w] b : Int . {nest}0"
                       + ")" * depth + ") 1 2", base=prelude)
    checked = check_program(sf.decls, sf.defs, sf.main)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        sh = to_sharing(checked.term, checked.env)
    finally:
        sys.setrecursionlimit(old)
    binds = let_binds(sh)
    assert len(binds) == depth + 2  # each inner add, 0, 1 and 2
    # a let-bound argument's variables come first, so each add's list
    # starts with the innermost add's variable, b; a literal's is empty
    assert {b.fv for b in binds} == {(), ("b",), ("b", "a")}
    for b in binds[:20] + binds[::250] + binds[-20:]:
        assert b.fv == first_free(b.rhs)


def test_translation_instantiates_no_constructor(prelude, monkeypatch):
    """The translation reads a constructor's field multiplicities from its
    declaration; it builds no field types (``instantiate_con``)."""
    import lqlang.translate
    import lqlang.typecheck

    def boom(*args, **kwargs):
        raise AssertionError("instantiate_con called")

    checked = [check_corpus(path, prelude) for path in corpus_files()]
    with_args = [c for c in checked if any(
        isinstance(s, Con) and s.args for s in subterms(c.term))]
    assert len(with_args) >= 8
    monkeypatch.setattr(lqlang.typecheck, "instantiate_con", boom)
    monkeypatch.setattr(lqlang.translate, "instantiate_con", boom,
                        raising=False)
    for c in with_args:
        assert is_sharing(to_sharing(c.term, c.env))
