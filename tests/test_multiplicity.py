"""The multiplicity semiring and the usage algebra."""

import random

import pytest
from hypothesis import given, strategies as st

from lqlang.multiplicity import (NF_OMEGA, NF_ONE, ZERO, MultNF,
                                 UnjoinableUsage, join_mult, mult_add,
                                 mult_equiv, mult_mul, mult_normalize, nf_add,
                                 nf_mul, nf_render, sub_usage, usage_add,
                                 usage_join, usage_scale, usage_subst)
from lqlang.syntax import (MProd, MSum, MVar, OMEGA, ONE, One, Omega,
                           mult_subst, mult_vars)

from conftest import rand_mult

P, Q, R = MVar("p"), MVar("q"), MVar("r")


def nf(m):
    return mult_normalize(m)


# --- fixed examples ---------------------------------------------------------

def test_one_plus_one_is_omega():
    assert nf(MSum(ONE, ONE)) == NF_OMEGA


def test_one_unit_of_product():
    assert nf(MProd(ONE, P)) == nf(P)


def test_p_plus_p_is_omega_p():
    # p + p = (1 + 1) * p = w * p, by distributivity
    assert nf(MSum(P, P)) == nf(MProd(OMEGA, P))


def test_p_plus_q_keeps_two_monomials():
    got = nf(MSum(P, Q))
    assert got != NF_OMEGA
    assert got.terms == ((("p",), False), (("q",), False))


def test_omega_times_omega():
    assert mult_equiv(MProd(OMEGA, OMEGA), OMEGA)


def test_reflexivity():
    assert mult_equiv(P, P)


def test_omega_plus_omega_p_not_omega():
    # not derivable from the presented laws; kept distinct on purpose
    assert not mult_equiv(MSum(OMEGA, MProd(OMEGA, P)), OMEGA)


def test_usage_mult_add_mul():
    assert mult_add(NF_ONE, NF_ONE) == NF_OMEGA
    assert mult_add(ZERO, nf(P)) == nf(P)
    assert mult_mul(NF_OMEGA, NF_ONE) == NF_OMEGA
    assert mult_mul(ZERO, NF_OMEGA) is ZERO


def test_usage_add_scale():
    assert usage_add({"x": NF_ONE}, {"x": NF_ONE}) == {"x": NF_OMEGA}
    assert usage_scale(OMEGA, {"x": NF_ONE}) == {"x": NF_OMEGA}
    u = {"x": nf(P), "y": NF_OMEGA}
    assert usage_scale(ONE, u) == u


def test_usage_join_examples():
    assert usage_join({"x": NF_ONE}, {"x": NF_ONE}) == {"x": NF_ONE}
    assert usage_join({"x": NF_ONE}, {}) == {"x": NF_OMEGA}
    with pytest.raises(UnjoinableUsage):
        usage_join({"x": nf(P)}, {"x": NF_ONE})
    assert join_mult("x", ZERO, ZERO) is ZERO
    assert join_mult("x", ZERO, NF_OMEGA) == NF_OMEGA
    assert join_mult("x", NF_ONE, NF_OMEGA) == NF_OMEGA
    assert join_mult("x", nf(P), nf(MProd(ONE, P))) == nf(P)


def test_sub_usage_examples():
    assert sub_usage(ZERO, OMEGA)
    assert sub_usage(NF_ONE, ONE)
    assert not sub_usage(NF_ONE, P)
    assert not sub_usage(ZERO, ONE)
    assert not sub_usage(ZERO, P)
    assert sub_usage(nf(P), MProd(ONE, P))


def test_mult_subst_examples():
    assert nf(mult_subst(MProd(P, Q), "p", ONE)) == nf(Q)
    assert nf(mult_subst(MSum(P, P), "p", ONE)) == NF_OMEGA
    assert nf(mult_subst(P, "p", OMEGA)) == NF_OMEGA


# --- the laws as properties --------------------------------------------------

mults = st.recursive(
    st.sampled_from([ONE, OMEGA, P, Q, R]),
    lambda inner: st.builds(MSum, inner, inner) | st.builds(MProd, inner, inner),
    max_leaves=12)


@given(mults, mults, mults)
def test_semiring_laws(a, b, c):
    assert nf(MSum(a, b)) == nf(MSum(b, a))
    assert nf(MProd(a, b)) == nf(MProd(b, a))
    assert nf(MSum(MSum(a, b), c)) == nf(MSum(a, MSum(b, c)))
    assert nf(MProd(MProd(a, b), c)) == nf(MProd(a, MProd(b, c)))
    assert nf(MProd(ONE, a)) == nf(a)
    assert nf(MProd(a, MSum(b, c))) == nf(MSum(MProd(a, b), MProd(a, c)))
    assert nf(MSum(a, a)) == nf(MProd(OMEGA, a))


def reference_nf(m) -> MultNF:
    """The normal form by direct expansion into monomials, with none of the
    library's shortcuts for 1 and w: a repeated monomial, or one with a w
    factor, gets coefficient w (True)."""
    def expand(m) -> dict:
        match m:
            case One():
                return {(): False}
            case Omega():
                return {(): True}
            case MVar(name):
                return {(name,): False}
            case MSum(x, y):
                out = expand(x)
                for mono, c in expand(y).items():
                    out[mono] = True if mono in out else c
                return out
            case MProd(x, y):
                out = {}
                for mx, cx in expand(x).items():
                    for my, cy in expand(y).items():
                        mono = tuple(sorted(mx + my))
                        out[mono] = True if mono in out else (cx or cy)
                return out
    return MultNF(tuple(sorted(expand(m).items())))


def assert_shared_if_concrete(result):
    if result == NF_ONE:
        assert result is NF_ONE
    if result == NF_OMEGA:
        assert result is NF_OMEGA


fast_mults = st.recursive(
    st.sampled_from([ONE, OMEGA, P, Q]),
    lambda inner: st.builds(MSum, inner, inner) | st.builds(MProd, inner, inner),
    max_leaves=6)


@given(fast_mults, fast_mults, st.dictionaries(
    st.sampled_from("xyz"), st.none() | fast_mults))
def test_fast_paths_agree_with_the_general_normal_form(a, b, usage):
    """``nf_add``, ``nf_mul`` and ``usage_scale`` short-cut 1 and w; their
    results equal the general normal form, and a concrete result is the
    shared ``NF_ONE``/``NF_OMEGA`` object."""
    for result, expected in [(nf(a), reference_nf(a)),
                             (nf_add(nf(a), nf(b)), reference_nf(MSum(a, b))),
                             (nf_mul(nf(a), nf(b)), reference_nf(MProd(a, b)))]:
        assert result == expected
        assert_shared_if_concrete(result)
    u = {x: ZERO if m is None else nf(m) for x, m in usage.items()}
    scaled = usage_scale(a, u)
    assert scaled.keys() == u.keys()
    for x, m in usage.items():
        if m is None:
            assert scaled[x] is ZERO
        else:
            assert scaled[x] == reference_nf(MProd(a, m))
            assert_shared_if_concrete(scaled[x])


@given(mults)
def test_normalize_render_idempotent(a):
    once = nf(a)
    assert nf(nf_render(once)) == once


@given(mults, st.sampled_from(["p", "q"]), mults)
def test_normalize_commutes_with_subst(a, var, by):
    direct = nf(mult_subst(a, var, by))
    via_nf = nf(mult_subst(nf_render(nf(a)), var, by))
    assert direct == via_nf


@given(mults, mults)
def test_concrete_model_soundness(a, b):
    """If two expressions share a normal form, every concrete instantiation
    of their variables agrees in the two-point model (independent check of
    the decision procedure's sound direction)."""
    if nf(a) != nf(b):
        return
    names = sorted(mult_vars(a) | mult_vars(b))
    for bits in range(2 ** len(names)):
        env = {v: (bits >> i) & 1 for i, v in enumerate(names)}

        def ev(m):
            from lqlang.syntax import MSum as S, MProd as Pr, MVar as V
            from lqlang.syntax import One as OneT, Omega as OmegaT
            match m:
                case OneT():
                    return 1
                case OmegaT():
                    return "w"
                case V(name):
                    return "w" if env[name] else 1
                case S(x, y):
                    ev(x), ev(y)
                    return "w"  # 1+1 = 1+w = w+w = w
                case Pr(x, y):
                    return "w" if "w" in (ev(x), ev(y)) else 1
        assert ev(a) == ev(b)


def test_usage_module_laws_random():
    """Context addition and scaling form a module over the semiring."""
    rng = random.Random(20240809)
    for _ in range(300):
        names = ["x", "y", "z"]
        def rand_usage():
            out = {}
            for v in names:
                pick = rng.random()
                if pick < 0.3:
                    continue
                out[v] = nf(rand_mult(rng))
            return out
        g, d = rand_usage(), rand_usage()
        pi, mu = rand_mult(rng), rand_mult(rng)
        assert usage_add(g, d) == usage_add(d, g)
        assert usage_scale(pi, usage_add(g, d)) == \
            usage_add(usage_scale(pi, g), usage_scale(pi, d))
        assert usage_scale(MSum(pi, mu), g) == \
            usage_add(usage_scale(pi, g), usage_scale(mu, g))
        assert usage_scale(MProd(pi, mu), g) == \
            usage_scale(pi, usage_scale(mu, g))
        assert usage_scale(ONE, g) == g


def test_usage_join_commutative_idempotent_associative():
    rng = random.Random(7)
    pool = [ZERO, NF_ONE, NF_OMEGA, nf(P), nf(Q), nf(MProd(OMEGA, P))]
    for _ in range(500):
        a, b, c = (rng.choice(pool) for _ in range(3))
        try:
            ab = join_mult("x", a, b)
        except UnjoinableUsage:
            ab = None
        try:
            ba = join_mult("x", b, a)
        except UnjoinableUsage:
            ba = None
        assert ab == ba
        assert join_mult("x", a, a) == a or a is ZERO
        if ab is not None:
            try:
                left = join_mult("x", ab, c)
            except UnjoinableUsage:
                left = None
            try:
                bc = join_mult("x", b, c)
                right = join_mult("x", a, bc)
            except UnjoinableUsage:
                right = None
            if left is not None and right is not None:
                assert left == right


def test_usage_subst_never_zero():
    u = {"x": nf(P), "y": ZERO}
    out = usage_subst(u, "p", OMEGA)
    assert out["x"] == NF_OMEGA
    assert out["y"] is ZERO
