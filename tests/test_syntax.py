"""The term walks cover every child slot of every node, and binders shadow.

Each example is one instance of a ``Term`` subclass whose child slots all
hold distinct ``Var`` nodes, annotated with a type that mentions the
multiplicity variable ``p``.  The walks built on ``map_children`` and
``children`` must reach every one of them.
"""

import dataclasses
from collections import Counter

import pytest

from lqlang.pretty import show_term, summarize
from lqlang.syntax import (App, ArrName, ArrayLit, Branch, Case, Con, INT,
                           IntLit, Lam, Let, LetBind, MVar, MultApp, MultLam,
                           OMEGA, ONE, Prim, TArrow, Term, Var, children,
                           free_vars, map_children, rename_vars, subterms,
                           term_subst_mult)
from lqlang.typecheck import strip_annotations

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
def test_free_vars_finds_every_slot(t, names):
    assert free_vars(t) == set(names)
    assert free_vars(t, {}) == set(names)


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
