"""The term walks cover every child slot of every node, and binders shadow.

Each example is one instance of a ``Term`` subclass whose child slots all
hold distinct ``Var`` nodes, annotated with a type that mentions the
multiplicity variable ``p``.  The walks built on ``map_children`` and
``children`` must reach every one of them.
"""

import dataclasses
import sys
import typing
from collections import Counter

import pytest

from lqlang import typecheck
from lqlang.diagnostics import CheckError
from lqlang.multiplicity import MultNF, mult_normalize
from lqlang.parser import parse_program
from lqlang.pretty import show_term, show_type, summarize
from lqlang.runtime import arith
from lqlang.syntax import (App, ArrName, ArrayLit, Branch, Case, Con, INT,
                           IntLit, Lam, Let, LetBind, MProd, MSum, MVar,
                           MultApp, MultExpr, MultLam, OMEGA, ONE, Prim,
                           TArray, TArrow, TData, TForall, TInt, TMArray,
                           TVar, Term, Type, Var, children, free_vars,
                           int_node, let_node, map_children, mult_vars,
                           rename_vars, subterms, term_subst_mult,
                           type_subst_mult, type_subst_mult_all,
                           type_subst_tvars, var_node, with_children)
from lqlang.translate import to_sharing
from lqlang.typecheck import (infer, instantiate_con, strip_annotations,
                              type_equiv)

from conftest import CORPUS, check_corpus, corpus_files

P = MVar("p")
P_TY = TArrow(INT, P, INT)

# Each builder gets ``v`` (a fresh slot variable) and ``e`` (a fresh array
# element name).  Binders are named b*, so none shadows a slot.
BUILDERS = [
    lambda v, e: v(),
    lambda v, e: IntLit(3, ty=INT),
    lambda v, e: Lam(P, "b", P_TY, v(), ty=P_TY),
    lambda v, e: App(v(), v(), mult_ann=P, ty=P_TY),
    lambda v, e: MultLam("q", v(), ty=P_TY),
    lambda v, e: MultApp(v(), P, ty=P_TY),
    lambda v, e: Con("MkPair", (P_TY, P_TY), (P, P), (v(), v()), ty=P_TY),
    lambda v, e: Case(P, v(), (Branch("B1", ("b1",), v()),
                               Branch("B2", (), v())), ty=P_TY),
    lambda v, e: Let(ONE, (LetBind("b1", P_TY, v()),
                           LetBind("b2", P_TY, v())), v(), ty=P_TY),
    lambda v, e: Let(OMEGA, (LetBind("b1", P_TY, v()),), v(), ty=P_TY),
    lambda v, e: Prim("add", (v(), v()), ty=P_TY),
    lambda v, e: ArrName("cell", ty=P_TY),
    lambda v, e: ArrayLit((e(), e()), P_TY, False, ty=P_TY),
]


def _build(builder):
    """The example term and the names occurring in it, in order."""
    names: list[str] = []

    def v():
        names.append(f"v{len(names)}")
        return Var(names[-1], ty=P_TY)

    def e():
        names.append(f"e{len(names)}")
        return names[-1]

    return builder(v, e), names


EXAMPLES = [_build(b) for b in BUILDERS]
IDS = [f"{type(t).__name__}{i}" for i, (t, _) in enumerate(EXAMPLES)]


def occurrences(t: Term) -> list[str]:
    """Variable occurrences reached by ``subterms``: ``Var`` nodes and
    array elements."""
    out = []
    for s in subterms(t):
        if isinstance(s, Var):
            out.append(s.name)
        elif isinstance(s, ArrayLit):
            out.extend(s.elems)
    return out


def mentions_p(x) -> bool:
    """Does ``p`` occur anywhere in ``x``, annotations included?"""
    if isinstance(x, MVar):
        return x.name == "p"
    if isinstance(x, tuple):
        return any(mentions_p(y) for y in x)
    if dataclasses.is_dataclass(x):
        return any(mentions_p(getattr(x, f.name))
                   for f in dataclasses.fields(x))
    return False


def test_examples_cover_every_term_class():
    assert {type(t) for t, _ in EXAMPLES} == set(Term.__subclasses__())


@pytest.mark.parametrize("t,names", EXAMPLES, ids=IDS)
def test_subterms_yields_every_slot(t, names):
    assert occurrences(t) == names


@pytest.mark.parametrize("t,names", EXAMPLES, ids=IDS)
def test_free_vars_finds_every_slot(t, names, prelude_env):
    assert free_vars(t) == set(names)
    sh = to_sharing(Let(ONE, (LetBind("z", None, t),), Var("z")),
                    prelude_env)
    assert sh.binds[0].fv == tuple(names)


@pytest.mark.parametrize("t,names", EXAMPLES, ids=IDS)
def test_rename_vars_renames_every_slot(t, names):
    renamed = rename_vars(t, {x: x.upper() for x in names})
    assert occurrences(renamed) == [x.upper() for x in names]
    assert occurrences(t) == names  # the input is unchanged


@pytest.mark.parametrize("t,names", EXAMPLES, ids=IDS)
def test_term_subst_mult_replaces_every_slot(t, names):
    assert mentions_p(t) == (not isinstance(t, IntLit))
    out = term_subst_mult(t, "p", OMEGA)
    assert not mentions_p(out)
    assert occurrences(out) == names


@pytest.mark.parametrize("t,names", EXAMPLES, ids=IDS)
def test_strip_annotations_clears_every_slot(t, names):
    out = strip_annotations(t)
    assert all(s.ty is None and getattr(s, "mult_ann", None) is None
               for s in subterms(out))
    assert out == t and occurrences(out) == names


@pytest.mark.parametrize("t,names", EXAMPLES, ids=IDS)
def test_map_children_visits_children_in_order(t, names):
    seen = []

    def f(s):
        seen.append(s)
        return s

    out = map_children(t, f)
    assert [id(s) for s in seen] == [id(s) for s in children(t)]
    assert out == t
    if not children(t):
        assert out is t


# ---------------------------------------------------------------------------
# Binders shadow

X = Var("x", ty=P_TY)
Y = Var("y", ty=P_TY)


def test_lam_binder_shadows():
    t = Lam(ONE, "x", INT, App(X, Y))
    assert free_vars(t) == {"y"}
    assert occurrences(rename_vars(t, {"x": "X", "y": "Y"})) == ["x", "Y"]


def test_case_binders_shadow_in_their_branch_only():
    t = Case(ONE, X, (Branch("MkPair", ("x", "y"), App(X, Y)),
                      Branch("Other", (), Y)))
    assert free_vars(t) == {"x", "y"}
    renamed = rename_vars(t, {"x": "X", "y": "Y"})
    assert occurrences(renamed) == ["X", "x", "y", "Y"]


def test_omega_let_binders_shadow_in_rhs_and_body():
    t = Let(OMEGA, (LetBind("x", INT, App(X, Y)),), X)
    assert free_vars(t) == {"y"}
    assert occurrences(rename_vars(t, {"x": "X", "y": "Y"})) == [
        "x", "Y", "x"]


def test_one_let_binders_shadow_in_body_only():
    t = Let(ONE, (LetBind("x", INT, App(X, Y)),), X)
    assert free_vars(t) == {"x", "y"}
    assert occurrences(rename_vars(t, {"x": "X", "y": "Y"})) == [
        "X", "Y", "x"]


def test_instantiated_let_keeps_its_scope():
    """``let[p]`` is not recursive, and instantiating ``p`` at w does not
    make it so: the right-hand side's ``x`` is still the outer one."""
    t = Let(P, (LetBind("x", INT, Prim("add", (X, IntLit(1)))),), X)
    u = term_subst_mult(t, "p", OMEGA)
    assert "x" in free_vars(u)
    assert occurrences(rename_vars(u, {"x": "X"})) == ["X", "x"]
    assert u.mult == OMEGA and not u.rec


def test_mult_lam_parameter_shadows():
    t = MultLam("p", Lam(P, "x", P_TY, X, ty=P_TY))
    assert term_subst_mult(t, "p", OMEGA) == t
    assert mentions_p(term_subst_mult(t, "p", OMEGA))
    assert not mentions_p(term_subst_mult(MultLam("q", t.body), "p", OMEGA))


def _cut(s: str, limit: int) -> str:
    return s if len(s) <= limit else s[: limit - 3] + "..."


@pytest.mark.parametrize("t,names", EXAMPLES, ids=IDS)
def test_summarize_prints_as_rename_vars_renames(t, names):
    """``summarize(t, env)`` renames as it prints: the text is that of
    ``show_term(rename_vars(t, env))``, binders shadowing ``env``, cut to
    the limit."""
    env = {x: x.upper() for x in names + ["b", "b1", "b2"]}
    full = show_term(rename_vars(t, env))
    for limit in (5, 12, 60, 10_000):
        assert summarize(t, env, limit) == _cut(full, limit)
    assert summarize(t) == _cut(show_term(t), 60)


def test_a_traced_step_prints_a_bounded_prefix(monkeypatch):
    """A traced step prints only the start of its redex: on a nested
    ``add`` 4,000 deep it visits as many nodes as on one 40 deep."""
    import lqlang.pretty as pretty
    from lqlang.runtime import Machine
    real = pretty._write
    visits = Counter()

    def nested(n):
        t = Var("y")
        for _ in range(n):
            t = Prim("add", (Var("x"), t))
        return t

    env = {"x": "%p1", "y": "%p2"}
    expected = _cut(show_term(rename_vars(nested(4_000), env)), 60)
    for n in (40, 4_000):
        def write(t, prec, env, out, n=n):
            visits[n] += 1
            real(t, prec, env, out)

        monkeypatch.setattr(pretty, "_write", write)
        machine = Machine(fuel=10, trace=[])
        machine.tick("prim", nested(n), env)
        assert machine.trace[0].redex == expected
    assert visits[4_000] == visits[40] < 30


def test_free_vars_uses_no_host_stack():
    """``free_vars`` walks on an explicit stack: a 20,000-deep nested
    ``add``, built directly, under CPython's default recursion limit."""
    t = Var("x")
    for i in range(20_000):
        t = Prim("add", (IntLit(i), t))
    t = Let(ONE, (LetBind("z", INT, t),), Var("z"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        assert free_vars(t) == {"x"}
    finally:
        sys.setrecursionlimit(limit)


def test_subterms_uses_no_host_stack():
    """``subterms`` walks on an explicit stack: a 50,000-deep nested
    ``add``, built directly, under CPython's default recursion limit."""
    t = Var("x")
    for i in range(50_000):
        t = Prim("add", (IntLit(i), t))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        walked = list(subterms(t))
    finally:
        sys.setrecursionlimit(limit)
    assert len(walked) == 100_001
    assert walked[0] is t and walked[1] is t.args[0]
    assert walked[-1] == Var("x")


def _recursive_subterms(t):
    """The pre-order of ``subterms`` as one recursive generator per level."""
    yield t
    for c in children(t):
        yield from _recursive_subterms(c)


def test_subterms_keeps_the_recursive_pre_order(prelude):
    """On the checked and sharing forms of ``corpus/*.lq``, ``subterms``
    yields the nodes of the recursive pre-order, in its order."""
    for path in corpus_files():
        checked = check_corpus(path, prelude)
        for t in (checked.term, to_sharing(checked.term, checked.env)):
            assert ([id(s) for s in subterms(t)]
                    == [id(s) for s in _recursive_subterms(t)]), path


# ---------------------------------------------------------------------------
# Dispatch on the node's type misses no class
#
# The walks and the typing helpers choose a branch with ``type(x) is C``
# tests, which fall through to a default for any class they forget.  The
# examples here are built from the field declarations of every class found
# through ``__subclasses__``, so a new class is covered without a new
# example.

def _example(cls, fresh):
    """An instance of ``cls`` built from its field declarations, in order,
    since a type takes its fields positionally; each term-valued slot gets
    a new ``Var`` from ``fresh``."""
    hints = typing.get_type_hints(cls)
    return cls(*[_value(hints[f.name], fresh)
                 for f in dataclasses.fields(cls) if f.init and f.compare])


def _value(hint, fresh):
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return (_value(item, fresh), _value(item, fresh))
    if hint is Branch:
        return Branch(f"B{fresh().name}", ("b",), fresh())
    if hint is LetBind:
        return LetBind(f"b{fresh().name}", INT, fresh())
    if hint is Term:
        return fresh()
    if hint is Type:
        return TInt()
    if hint is MultExpr:
        return MVar(fresh().name)
    return {str: "n", int: 3, bool: False}[hint]


def _counter():
    n = iter(range(1_000))
    return lambda: Var(f"v{next(n)}")


def _classes(base):
    classes = base.__subclasses__()
    # the identity tests are exact only if no node class has a subclass
    assert classes and not any(c.__subclasses__() for c in classes)
    return classes


TERM_CLASSES = _classes(Term)


def _declared_children(t):
    """The term-valued fields of ``t`` in declaration order, let right-hand
    sides and branch bodies included."""
    out = []
    for f in dataclasses.fields(t):
        value = getattr(t, f.name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, Term):
                out.append(x)
            elif isinstance(x, Branch):
                out.append(x.body)
            elif isinstance(x, LetBind):
                out.append(x.rhs)
    return out


@pytest.mark.parametrize("cls", TERM_CLASSES, ids=lambda c: c.__name__)
def test_children_follow_the_field_declarations(cls):
    t = _example(cls, _counter())
    assert [id(c) for c in children(t)] == [id(c) for c in
                                            _declared_children(t)]


@pytest.mark.parametrize("cls", TERM_CLASSES, ids=lambda c: c.__name__)
def test_map_children_copies_every_child(cls):
    t = _example(cls, _counter())
    out = map_children(t, dataclasses.replace)
    assert out == t
    kids = children(t)
    assert len(children(out)) == len(kids)
    assert not {id(c) for c in children(out)} & {id(c) for c in kids}
    assert (out is t) == (not kids)


@pytest.mark.parametrize("cls", TERM_CLASSES, ids=lambda c: c.__name__)
def test_with_children_puts_each_child_in_its_slot(cls):
    t = _example(cls, _counter())
    kids = children(t)
    new = [Var(f"new{i}") for i in range(len(kids))]
    out = with_children(t, new)
    assert [id(c) for c in children(out)] == [id(c) for c in new]
    slots = iter(new)
    assert out == map_children(t, lambda s: next(slots))
    assert (out.loc, out.ty) == (t.loc, t.ty)
    assert (out is t) == (not kids)
    if isinstance(out, Let):
        assert all(b.fv is None for b in out.binds)


def test_node_builders_set_what_the_constructors_set():
    """``var_node``, ``int_node`` and ``let_node`` set the fields that
    ``Var``, ``IntLit`` and ``Let`` set, in the same order, annotations and
    ``rec`` included."""
    assert list(vars(var_node("x", P_TY)).items()) == \
        list(vars(Var("x", ty=P_TY)).items())
    assert list(vars(int_node(-3, INT)).items()) == \
        list(vars(IntLit(-3, ty=INT)).items())
    rhs, body = IntLit(1, ty=INT), Var("y", ty=P_TY)
    for mult in (ONE, OMEGA, P, MSum(ONE, ONE)):
        built = let_node(mult, "y", rhs, ("a",), body)
        made = Let(mult, (LetBind("y", INT, rhs, fv=("a",)),), body,
                   ty=P_TY)
        assert list(vars(built)) == list(vars(made))
        assert all(getattr(built, k) == getattr(made, k)
                   for k in vars(made) if k != "binds")
        [b], [m] = built.binds, made.binds
        assert list(vars(b).items()) == list(vars(m).items())


def test_arithmetic_results():
    """An integer result is built as ``IntLit`` builds it, and every
    comparison returns one of two shared ``True``/``False`` nodes."""
    for name, a, b, value in (("add", 2, 3, 5), ("sub", 2, 3, -1),
                              ("mul", 2, 3, 6)):
        assert list(vars(arith(name, a, b)).items()) == \
            list(vars(IntLit(value, ty=INT)).items())
    true, false = arith("eq", 1, 1), arith("lt", 1, 0)
    for node, name in ((true, "True"), (false, "False")):
        assert node == Con(name) and node.ty is TData("Bool")
    assert arith("lt", 0, 1) is true and arith("eq", 0, 1) is false


TYPE_CLASSES = _classes(Type)


@pytest.mark.parametrize("cls", TYPE_CLASSES, ids=lambda c: c.__name__)
def test_type_equiv_holds_between_equal_copies(cls):
    """Two equal constructions of a type are one object."""
    a, b = _example(cls, _counter()), _example(cls, _counter())
    assert a is b
    assert type_equiv(a, b)


def _mult_var_names(m):
    if isinstance(m, MVar):
        return {m.name}
    return set().union(*(_mult_var_names(getattr(m, f.name))
                         for f in dataclasses.fields(m)))


@pytest.mark.parametrize("cls", _classes(MultExpr), ids=lambda c: c.__name__)
def test_every_multiplicity_normalizes(cls):
    m = _example(cls, _counter())
    assert isinstance(mult_normalize(m), MultNF)
    assert mult_vars(m) == _mult_var_names(m)


# ---------------------------------------------------------------------------
# One object per type
#
# Types are interned: whatever builds a type, the parser, a substitution,
# ``instantiate_con`` or a typing rule, gets the one object of its exact
# structure.

Q = MVar("q")

def test_multiplicities_are_substituted_all_at_once():
    """Each variable is replaced once, by what it maps to, and a ``forall``
    shadows its variable and is renamed apart from the replacements."""
    subst = {"p": Q, "q": OMEGA}
    assert type_subst_mult_all(TArrow(TArrow(INT, P, INT), Q, INT), subst) \
        is TArrow(TArrow(INT, Q, INT), OMEGA, INT)
    assert type_subst_mult_all(TForall("q", TArrow(INT, P, P_TY)), subst) \
        is TForall("q0", TArrow(INT, Q, TArrow(INT, Q, INT)))
    assert type_subst_mult_all(TForall("p", P_TY), {"p": Q}) \
        is TForall("p", P_TY)


TYPED = """data Box (a) where { MkBox : a ->[1] Box a }
def f : forall p. (Int ->[p] Int) ->[1] MArray Int ->[p + w] Array (Pair p w Int Bool) =[w]
  /\\p . \\[1] g : Int ->[p] Int . \\[p + w] m : MArray Int . m
main = 0
"""


def _parts(ty):
    """``ty`` and every type in it."""
    yield ty
    for f in dataclasses.fields(ty):
        value = getattr(ty, f.name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, Type):
                yield from _parts(x)


def test_the_parser_builds_each_type_once(prelude):
    def types(sf):
        return [*(fty for d in sf.decls for c in d.constructors
                  for fty, _ in c.fields), *(ty for _, ty, _, _ in sf.defs)]

    first, again = (types(parse_program(TYPED, base=prelude))
                    for _ in range(2))
    assert all(a is b for a, b in zip(first, again, strict=True))
    assert {type(p) for t in first for p in _parts(t)} == set(TYPE_CLASSES)
    assert first[-1] is TForall("p", TArrow(
        TArrow(INT, P, INT), ONE,
        TArrow(TMArray(INT), MSum(P, OMEGA),
               TArray(TData("Pair", (P, OMEGA), (INT, TData("Bool")))))))


def test_substitutions_build_each_type_once():
    def poly(m):
        return TForall("q", TArrow(TData("Pair", (m, Q), (TVar("a"), INT)),
                                   m, TMArray(TVar("a"))))

    assert type_subst_mult(poly(P), "p", OMEGA) is poly(OMEGA)
    # capture-avoiding: the binder is renamed apart from the substitute
    renamed = type_subst_mult(poly(P), "p", Q)
    assert renamed is type_subst_mult(poly(MVar("p")), "p", MVar("q"))
    assert renamed is TForall("q0", TArrow(
        TData("Pair", (Q, MVar("q0")), (TVar("a"), INT)), Q,
        TMArray(TVar("a"))))
    arrays = type_subst_tvars(poly(P), {"a": TArray(INT)})
    assert arrays is type_subst_tvars(poly(P), {"a": TArray(TInt())})
    assert arrays is TForall("q", TArrow(
        TData("Pair", (P, Q), (TArray(INT), INT)), P, TMArray(TArray(INT))))


def test_the_checker_builds_each_type_once(prelude_env):
    """``instantiate_con`` and the rules that build a type: ``Lam``,
    ``MultLam``, ``MultApp``, array values and primitives."""
    fields, result = instantiate_con(prelude_env, "MkPair",
                                     (INT, TData("Bool")), (P, OMEGA))
    again, again_result = instantiate_con(
        prelude_env, "MkPair", (TInt(), TData("Bool", (), ())),
        (MVar("p"), OMEGA))
    assert [f for f, _ in again] == [f for f, _ in fields] == [
        INT, TData("Bool")]
    assert again_result is result is TData("Pair", (P, OMEGA),
                                           (INT, TData("Bool")))
    env = prelude_env.bind_vars([("e", INT, OMEGA),
                                 ("m", TMArray(INT), ONE)])
    poly = MultLam("p", Lam(ONE, "f", P_TY, Var("f")))
    w_ty = TArrow(INT, OMEGA, INT)
    expected = [
        (Lam(ONE, "x", INT, Var("x")), TArrow(INT, ONE, INT)),
        (poly, TForall("p", TArrow(P_TY, ONE, P_TY))),
        (MultApp(poly, OMEGA), TArrow(w_ty, ONE, w_ty)),
        (ArrayLit(("e", "e"), INT, False), TMArray(INT)),
        (ArrayLit(("e",), INT, True), TArray(INT)),
        (Prim("eq", (Var("e"), Var("e"))), TData("Bool")),
        (Prim("freeze", (Var("m"),)),
         TData("Unrestricted", (), (TArray(INT),))),
        (Con("MkPair", (INT, INT), (ONE, OMEGA), (Var("e"), Var("e"))),
         TData("Pair", (ONE, OMEGA), (INT, INT))),
    ]
    for t, ty in expected:
        assert infer(env, t).ty is infer(env, t).ty is ty, show_term(t)


def test_types_equal_up_to_names_or_normal_forms_are_distinct_objects():
    """Interning is by exact structure, so types that differ only in a
    binder name or in how a multiplicity is written stay apart, and print
    as written; ``type_equiv`` equates them."""
    pairs = [
        (TForall("p", TArrow(INT, P, INT)), TForall("q", TArrow(INT, Q, INT))),
        (TArrow(INT, MSum(ONE, ONE), INT), TArrow(INT, OMEGA, INT)),
        (TData("Pair", (MProd(P, Q), ONE), (INT, INT)),
         TData("Pair", (MProd(Q, P), ONE), (INT, INT))),
        (TMArray(TArrow(INT, MProd(ONE, P), INT)), TMArray(TArrow(INT, P, INT))),
    ]
    for a, b in pairs:
        assert a is not b and a != b
        assert show_type(a) != show_type(b)
        assert type_equiv(a, b)


def test_a_type_key_is_computed_once_per_type(prelude, monkeypatch):
    """Over checking ``corpus/**``, the key of each distinct type is worked
    out at most once: a type built again is the object that keeps its key.
    When every use built its own object, ``Bool``'s key was worked out 16
    times."""
    real_key, real_type_key = typecheck._key, typecheck.type_key
    built = Counter()
    asked = []

    def key(t, ren, depth):
        if not depth and t._key is None:
            built[repr(t)] += 1
        return real_key(t, ren, depth)

    def type_key(t):
        asked.append(t)
        return real_type_key(t)

    monkeypatch.setattr(typecheck, "_key", key)
    monkeypatch.setattr(typecheck, "type_key", type_key)
    for path in sorted(CORPUS.rglob("*.lq")):
        try:
            check_corpus(path, prelude)
        except CheckError:
            pass
    assert asked  # the rejected programs compare distinct types
    assert all(n == 1 for n in built.values()), built.most_common(3)
