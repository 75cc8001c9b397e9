"""Multiplicity expressions, the semiring they denote, and the usage
algebra built on it.

Multiplicity expressions are quotiented by: associativity/commutativity of
+ and *, unit 1 for *, distributivity of * over +, w*w = w, and
1+1 = 1+w = w+w = w.  The canonical form is a nonempty map from monomials
(multisets of variables) to coefficients in {1, w}; two expressions are
equivalent exactly when their canonical forms are equal.  There is no zero
in the semiring itself; usage bookkeeping uses a separate ``ZERO`` marker
meaning "variable not used at all", which is never substituted for a
multiplicity variable and never appears inside a normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


# ---------------------------------------------------------------------------
# Multiplicity expressions

class MultExpr:
    """One of: 1, w, a variable, a sum, or a product."""

    __slots__ = ()


@dataclass(frozen=True)
class One(MultExpr):
    pass


@dataclass(frozen=True)
class Omega(MultExpr):
    pass


@dataclass(frozen=True)
class MVar(MultExpr):
    name: str


@dataclass(frozen=True)
class MSum(MultExpr):
    left: MultExpr
    right: MultExpr


@dataclass(frozen=True)
class MProd(MultExpr):
    left: MultExpr
    right: MultExpr


ONE = One()
OMEGA = Omega()


def mult_vars(m: MultExpr) -> frozenset[str]:
    cls = type(m)
    if cls is MVar:
        return frozenset((m.name,))
    if cls is MSum or cls is MProd:
        return mult_vars(m.left) | mult_vars(m.right)
    return frozenset()


def mult_subst(m: MultExpr, var: str, by: MultExpr) -> MultExpr:
    """Substitute ``by`` for the multiplicity variable ``var`` in ``m``."""
    return mult_subst_all(m, {var: by})


def mult_subst_all(m: MultExpr, subst: dict[str, MultExpr]) -> MultExpr:
    """Substitute ``subst[p]`` for each multiplicity variable ``p`` that
    ``subst`` maps, all at once."""
    cls = type(m)
    if cls is MVar:
        return subst.get(m.name, m)
    if cls is MSum or cls is MProd:
        return cls(mult_subst_all(m.left, subst),
                   mult_subst_all(m.right, subst))
    return m


# ---------------------------------------------------------------------------
# Normal forms

# A monomial is a sorted tuple of variable names (a multiset).
Monomial = tuple[str, ...]

# Coefficients: False = 1, True = w.
_W = True
_1 = False


@dataclass(frozen=True)
class MultNF:
    """Canonical form: sorted ((monomial, is_omega), ...), never empty."""

    terms: tuple[tuple[Monomial, bool], ...]

    def __post_init__(self) -> None:
        assert self.terms, "the multiplicity semiring has no zero"


NF_ONE = MultNF((((), _1),))
NF_OMEGA = MultNF((((), _W),))


class _Zero:
    """Bookkeeping zero: "unused".  Not a multiplicity; lives only in usages."""

    _instance: "_Zero | None" = None

    def __new__(cls) -> "_Zero":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ZERO"


ZERO = _Zero()

UsageMult = Union[MultNF, _Zero]
Usage = dict[str, UsageMult]


def _make_nf(acc: dict[Monomial, bool]) -> MultNF:
    """The normal form of ``acc``; 1 and w are the shared ``NF_ONE`` and
    ``NF_OMEGA``."""
    if len(acc) == 1 and () in acc:
        return NF_OMEGA if acc[()] else NF_ONE
    return MultNF(tuple(sorted(acc.items())))


def _is_concrete(a: MultNF) -> bool:
    return a is NF_ONE or a is NF_OMEGA


def nf_add(a: MultNF, b: MultNF) -> MultNF:
    """Sum of normal forms; colliding monomials get coefficient w (1+1=w)."""
    if _is_concrete(a) and _is_concrete(b):
        return NF_OMEGA
    acc = dict(a.terms)
    for mono, coeff in b.terms:
        acc[mono] = _W if mono in acc else coeff
    return _make_nf(acc)


def nf_mul(a: MultNF, b: MultNF) -> MultNF:
    if a is NF_ONE:
        return b
    if b is NF_ONE:
        return a
    acc: dict[Monomial, bool] = {}
    for mono_a, ca in a.terms:
        for mono_b, cb in b.terms:
            mono = tuple(sorted(mono_a + mono_b))
            coeff = ca or cb
            acc[mono] = _W if mono in acc else coeff
    return _make_nf(acc)


def mult_normalize(m: MultExpr) -> MultNF:
    cls = type(m)
    if cls is One:
        return NF_ONE
    if cls is Omega:
        return NF_OMEGA
    if cls is MVar:
        return MultNF((((m.name,), _1),))
    if cls is MSum:
        return nf_add(mult_normalize(m.left), mult_normalize(m.right))
    if cls is MProd:
        return nf_mul(mult_normalize(m.left), mult_normalize(m.right))
    raise AssertionError(f"unknown multiplicity {m!r}")


def mult_equiv(a: MultExpr, b: MultExpr) -> bool:
    return mult_normalize(a) == mult_normalize(b)


def is_omega_mult(m: MultExpr) -> bool:
    """Does ``m`` normalize to exactly w?  Only w let-groups are
    recursive; ``syntax.Let`` asks this once, of its written
    multiplicity."""
    return mult_normalize(m) is NF_OMEGA


def nf_render(nf: MultNF) -> MultExpr:
    """Turn a normal form back into an expression; normalizing the result
    gives back the same normal form."""
    parts: list[MultExpr] = []
    for mono, coeff in nf.terms:
        factors: list[MultExpr] = [OMEGA] if coeff else []
        factors.extend(MVar(v) for v in mono)
        if not factors:
            part: MultExpr = ONE
        else:
            part = factors[0]
            for f in factors[1:]:
                part = MProd(part, f)
        parts.append(part)
    out = parts[0]
    for p in parts[1:]:
        out = MSum(out, p)
    return out


def mult_add(a: UsageMult, b: UsageMult) -> UsageMult:
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return nf_add(a, b)


def mult_mul(a: UsageMult, b: UsageMult) -> UsageMult:
    if a is ZERO or b is ZERO:
        return ZERO
    return nf_mul(a, b)


def usage_add(u1: Usage, u2: Usage) -> Usage:
    """Pointwise addition; missing entries read as ZERO.  When one side is
    empty the result is the other side itself, so callers must not mutate
    the result."""
    if not u2:
        return u1
    if not u1:
        return u2
    out: Usage = dict(u1)
    for x, m in u2.items():
        out[x] = mult_add(out.get(x, ZERO), m)
    return out


def usage_scale(pi: MultExpr, u: Usage) -> Usage:
    """``pi`` times every entry of ``u``.  Scaling by 1 returns ``u`` itself,
    so callers must not mutate the result."""
    if pi is ONE or not u:
        return u
    nf = mult_normalize(pi)
    if nf is NF_ONE:
        return u
    return {x: mult_mul(nf, m) for x, m in u.items()}


class UnjoinableUsage(Exception):
    """Two case branches use a variable at incompatible polymorphic mults."""

    def __init__(self, var: str, m1: UsageMult, m2: UsageMult) -> None:
        super().__init__(var, m1, m2)
        self.var = var
        self.m1 = m1
        self.m2 = m2


def join_mult(var: str, a: UsageMult, b: UsageMult) -> UsageMult:
    """Branch join.  Equal usages join to themselves; among the concrete
    usages Zero/1/w any disagreement joins to w; anything else involving a
    multiplicity variable is rejected rather than silently widened."""
    if a is ZERO and b is ZERO:
        return ZERO
    if isinstance(a, MultNF) and isinstance(b, MultNF) and a == b:
        return a
    concrete = {ZERO, NF_ONE, NF_OMEGA}
    if (a in concrete) and (b in concrete):
        return NF_OMEGA
    raise UnjoinableUsage(var, a, b)


def usage_join(u1: Usage, u2: Usage) -> Usage:
    """Pointwise ``join_mult``, over ``u1``'s variables in order and then
    ``u2``'s others, so the variable an ``UnjoinableUsage`` names does not
    depend on string hashing."""
    out: Usage = {}
    for x in {**u1, **u2}:
        joined = join_mult(x, u1.get(x, ZERO), u2.get(x, ZERO))
        if joined is not ZERO:
            out[x] = joined
    return out


def sub_usage(u: UsageMult, pi: MultExpr) -> bool:
    """May a computed usage ``u`` be discharged against a declared
    multiplicity ``pi``?  A w binder accepts any usage (weakening);
    otherwise the usage must be present and equivalent to ``pi``."""
    nf = mult_normalize(pi)
    if nf == NF_OMEGA:
        return True
    return isinstance(u, MultNF) and u == nf


def usage_subst(u: Usage, var: str, by: MultExpr) -> Usage:
    """Substitute a multiplicity variable inside every usage entry."""
    out: Usage = {}
    subst = {var: by}
    for x, m in u.items():
        if m is ZERO:
            out[x] = ZERO
        else:
            out[x] = mult_normalize(mult_subst_all(nf_render(m), subst))
    return out
