"""Abstract syntax: types, terms, datatype declarations, and (re-exported
from ``multiplicity``) multiplicity expressions.

All nodes are immutable but for the slots that the checker (``annotate``)
and the sharing translation fill in.  Equality ignores the annotation slots
(``loc``, ``ty``, ``mult_ann``) so that two terms compare equal
regardless of source position or typechecker output.  A type is one
object per structure (``Type``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, Optional

from .multiplicity import (MProd, MSum, MVar, MultExpr, OMEGA, ONE,  # noqa: F401
                           Omega, One, is_omega_mult, mult_subst,
                           mult_subst_all, mult_vars)


_new = object.__new__
_setattr = object.__setattr__


class Loc:
    """A place in a source text: its ``line`` and ``col``, both counted
    from 1.  ``Loc(line, col)`` is given them; the parser gives each node
    ``Loc.at(offset, line_starts)``, a token's offset and the text's table
    of line starts (the offsets just after each newline), and the line and
    column are worked out when they are first read."""

    __slots__ = ("_offset", "_line_starts", "_line_col")

    def __init__(self, line: int, col: int) -> None:
        self._line_col = (line, col)

    @classmethod
    def at(cls, offset: int, line_starts: list[int]) -> Loc:
        loc = _new(cls)
        loc._offset = offset
        loc._line_starts = line_starts
        return loc

    @property
    def line_col(self) -> tuple[int, int]:
        try:
            return self._line_col
        except AttributeError:
            starts, offset = self._line_starts, self._offset
            line = bisect_right(starts, offset)
            self._line_col = (line, offset - starts[line - 1] + 1)
            return self._line_col

    @property
    def line(self) -> int:
        return self.line_col[0]

    @property
    def col(self) -> int:
        return self.line_col[1]

    def __eq__(self, other: object) -> bool:
        if type(other) is not Loc:
            return NotImplemented
        return self.line_col == other.line_col

    def __hash__(self) -> int:
        return hash(self.line_col)

    def __str__(self) -> str:
        return "{}:{}".format(*self.line_col)

    def __repr__(self) -> str:
        return "Loc(line={}, col={})".format(*self.line_col)


# ---------------------------------------------------------------------------
# Types

class Type:
    """A type.  A class called with a type's fields returns the one object
    of that exact structure, binder names and multiplicities as written
    (hash-consing, after Filliâtre & Conchon, ML Workshop 2006), so ``==``
    is identity.  ``typecheck.type_equiv`` equates types up to binder
    names and multiplicity normal forms."""

    __slots__ = ()
    # the key ``typecheck.type_key`` works out for the type and keeps on it
    _key = None

    def __new__(cls, *fields):
        key = (cls,) + fields
        t = _TYPES.get(key)
        if t is None:
            names = cls.__match_args__
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} fields")
            t = _TYPES[key] = _new(cls)
            for name, value in zip(names, fields):
                _setattr(t, name, value)
        return t


# Every type, by its class and fields; the types among these hash and
# compare by identity, so a lookup never walks a type.  The table keeps
# every type built: which ones a caller finds already there changes no
# result, only that equal types are one object.
_TYPES: dict[tuple, Type] = {}


@dataclass(frozen=True, eq=False, init=False)
class TInt(Type):
    pass


@dataclass(frozen=True, eq=False, init=False)
class TVar(Type):
    """A datatype parameter; only legal inside a datatype declaration."""

    name: str


@dataclass(frozen=True, eq=False, init=False)
class TArrow(Type):
    dom: Type
    mult: MultExpr
    cod: Type


@dataclass(frozen=True, eq=False, init=False)
class TForall(Type):
    var: str
    body: Type


@dataclass(frozen=True, eq=False, init=False)
class TData(Type):
    name: str
    mult_args: tuple[MultExpr, ...] = ()
    type_args: tuple[Type, ...] = ()

    def __new__(cls, name, mult_args=(), type_args=()):
        key = (TData, name, tuple(mult_args), tuple(type_args))
        return _TYPES.get(key) or Type.__new__(*key)


@dataclass(frozen=True, eq=False, init=False)
class TMArray(Type):
    elem: Type


@dataclass(frozen=True, eq=False, init=False)
class TArray(Type):
    elem: Type


INT = TInt()


def type_mult_vars(t: Type) -> frozenset[str]:
    """Free multiplicity variables of a type (forall binds)."""
    match t:
        case TArrow(dom, m, cod):
            return type_mult_vars(dom) | mult_vars(m) | type_mult_vars(cod)
        case TForall(p, body):
            return type_mult_vars(body) - {p}
        case TData(_, margs, targs):
            out: frozenset[str] = frozenset()
            for m in margs:
                out |= mult_vars(m)
            for a in targs:
                out |= type_mult_vars(a)
            return out
        case TMArray(elem) | TArray(elem):
            return type_mult_vars(elem)
        case _:
            return frozenset()


def type_subst_mult(t: Type, var: str, by: MultExpr) -> Type:
    """Capture-avoiding substitution of a multiplicity into a type."""
    return type_subst_mult_all(t, {var: by})


def type_subst_mult_all(t: Type, subst: dict[str, MultExpr]) -> Type:
    """Capture-avoiding substitution of ``subst[p]`` for each multiplicity
    variable ``p`` that ``subst`` maps, all at once."""
    cls = type(t)
    if cls is TArrow:
        return TArrow(type_subst_mult_all(t.dom, subst),
                      mult_subst_all(t.mult, subst),
                      type_subst_mult_all(t.cod, subst))
    if cls is TData:
        if not t.mult_args and not t.type_args:
            return t
        return TData(t.name,
                     tuple([mult_subst_all(m, subst) for m in t.mult_args]),
                     tuple([type_subst_mult_all(a, subst)
                            for a in t.type_args]))
    if cls is TMArray or cls is TArray:
        return cls(type_subst_mult_all(t.elem, subst))
    if cls is TForall:
        p, body = t.var, t.body
        if p in subst:
            subst = {q: m for q, m in subst.items() if q != p}
            if not subst:
                return t
        taken = frozenset().union(*map(mult_vars, subst.values()))
        if p in taken:
            fresh = _fresh_against(p, taken | type_mult_vars(body))
            body = type_subst_mult_all(body, {p: MVar(fresh)})
            p = fresh
        return TForall(p, type_subst_mult_all(body, subst))
    return t


def type_subst_tvars(t: Type, mapping: dict[str, Type]) -> Type:
    """Instantiate datatype parameters; mapping values contain no TVar.  A
    ``forall`` whose variable a value mentions is renamed apart first."""
    cls = type(t)
    if cls is TVar:
        return mapping.get(t.name, t)
    if cls is TArrow:
        return TArrow(type_subst_tvars(t.dom, mapping), t.mult,
                      type_subst_tvars(t.cod, mapping))
    if cls is TData:
        if not t.type_args:
            return t
        return TData(t.name, t.mult_args,
                     tuple([type_subst_tvars(a, mapping) for a in t.type_args]))
    if cls is TMArray or cls is TArray:
        return cls(type_subst_tvars(t.elem, mapping))
    if cls is TForall:
        p, body = t.var, t.body
        taken = frozenset().union(*map(type_mult_vars, mapping.values()))
        if p in taken:
            fresh = _fresh_against(p, taken | type_mult_vars(body))
            body = type_subst_mult(body, p, MVar(fresh))
            p = fresh
        return TForall(p, type_subst_tvars(body, mapping))
    return t


def _fresh_against(base: str, taken: frozenset[str]) -> str:
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Terms

_ANN = dict(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Term:
    loc: Optional[Loc] = field(**_ANN)
    ty: Optional[Type] = field(**_ANN)


@dataclass(frozen=True)
class Var(Term):
    name: str = ""


@dataclass(frozen=True)
class IntLit(Term):
    value: int = 0


@dataclass(frozen=True)
class Lam(Term):
    mult: MultExpr = ONE
    var: str = ""
    var_ty: Type = INT
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class App(Term):
    fun: Term = None  # type: ignore[assignment]
    arg: Term = None  # type: ignore[assignment]
    # Arrow multiplicity of `fun`, recorded by the typechecker.
    mult_ann: Optional[MultExpr] = field(**_ANN)


@dataclass(frozen=True)
class MultLam(Term):
    param: str = ""
    body: Term = None  # type: ignore[assignment]


@dataclass(frozen=True)
class MultApp(Term):
    fun: Term = None  # type: ignore[assignment]
    mult: MultExpr = ONE


@dataclass(frozen=True)
class Con(Term):
    name: str = ""
    type_args: tuple[Type, ...] = ()
    mult_args: tuple[MultExpr, ...] = ()
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Branch:
    con: str
    binders: tuple[str, ...]
    body: Term
    loc: Optional[Loc] = field(**_ANN)


@dataclass(frozen=True)
class Case(Term):
    mult: MultExpr = ONE
    scrut: Term = None  # type: ignore[assignment]
    branches: tuple[Branch, ...] = ()


@dataclass(frozen=True)
class LetBind:
    var: str
    # None only on evaluator-internal bindings, which are never typechecked.
    var_ty: Optional[Type]
    rhs: Term
    loc: Optional[Loc] = field(**_ANN)
    # The free variables of ``rhs`` in first-occurrence order, given to
    # each binding by the sharing translation as it builds the binding
    # (``translate.to_sharing``); the evaluators' own ``newMArray``
    # bindings are built with theirs.  A copy whose ``rhs`` has other free
    # variables must drop it: ``with_children`` and ``rename_vars`` do.
    fv: Optional[tuple[str, ...]] = field(**_ANN)


@dataclass(frozen=True)
class Let(Term):
    mult: MultExpr = ONE
    binds: tuple[LetBind, ...] = ()
    body: Term = None  # type: ignore[assignment]
    # Only w-groups are recursive.  Decided from the written multiplicity
    # when the node is built and kept by every copy, so instantiating a
    # multiplicity variable never changes a group's scope.
    rec: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rec", is_omega_mult(self.mult))


@dataclass(frozen=True)
class Prim(Term):
    name: str = ""
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class ArrName(Term):
    """Reference to a heap array cell; created only by the in-place evaluator."""

    name: str = ""


@dataclass(frozen=True)
class ArrayLit(Term):
    """An array value (element variables); created only by the pure evaluator."""

    elems: tuple[str, ...] = ()
    elem_ty: Type = INT
    frozen_tag: bool = False


@dataclass(frozen=True)
class DataDecl:
    name: str
    mult_params: tuple[str, ...]
    type_params: tuple[str, ...]
    constructors: tuple[ConDecl, ...]
    loc: Optional[Loc] = field(**_ANN)


@dataclass(frozen=True)
class ConDecl:
    name: str
    fields: tuple[tuple[Type, MultExpr], ...]
    loc: Optional[Loc] = field(**_ANN)


def children(t: Term) -> tuple[Term, ...]:
    """The direct subterms of ``t``: ``fun`` before ``arg``, ``scrut``
    before the branch bodies, right-hand sides before a let body."""
    cls = type(t)
    if cls is App:
        return (t.fun, t.arg)
    if cls is Lam or cls is MultLam:
        return (t.body,)
    if cls is Let:
        return (*(b.rhs for b in t.binds), t.body)
    if cls is Prim or cls is Con:
        return t.args
    if cls is Case:
        return (t.scrut, *(b.body for b in t.branches))
    if cls is MultApp:
        return (t.fun,)
    return ()


def with_children(t: Term, kids) -> Term:
    """``t`` rebuilt with ``kids`` as its direct subterms, given in the
    order of ``children``.  A node with no subterms comes back as itself,
    and a let binding's copy drops its free-variable list.  With
    ``children`` and ``map_children``, this is the one place that knows
    which fields of a node hold subterms; every other walk handles only
    the nodes where it differs and leaves the rest to these three."""
    cls = type(t)
    if cls is App:
        return _with(t, fun=kids[0], arg=kids[1])
    if cls is Lam or cls is MultLam:
        return _with(t, body=kids[0])
    if cls is Let:
        return _with(t, binds=tuple([_with(b, rhs=rhs, fv=None)
                                     for b, rhs in zip(t.binds, kids)]),
                     body=kids[-1])
    if cls is Prim or cls is Con:
        return _with(t, args=tuple(kids)) if t.args else t
    if cls is Case:
        return _with(t, scrut=kids[0],
                     branches=tuple([_with(b, body=body) for b, body
                                     in zip(t.branches, kids[1:])]))
    if cls is MultApp:
        return _with(t, fun=kids[0])
    return t


def map_children(t: Term, f: Callable[[Term], Term]) -> Term:
    """``t`` rebuilt with ``f`` applied to each direct subterm, in the
    order of ``children``, as ``with_children`` rebuilds it.  A node with
    no subterms comes back as itself."""
    cls = type(t)
    if cls is App:
        return _with(t, fun=f(t.fun), arg=f(t.arg))
    if cls is Lam or cls is MultLam:
        return _with(t, body=f(t.body))
    if cls is Let:
        return _with(t, binds=tuple(_with(b, rhs=f(b.rhs), fv=None)
                                    for b in t.binds),
                     body=f(t.body))
    if cls is Prim or cls is Con:
        return _with(t, args=tuple(map(f, t.args))) if t.args else t
    if cls is Case:
        return _with(t, scrut=f(t.scrut),
                     branches=tuple(_with(b, body=f(b.body))
                                    for b in t.branches))
    if cls is MultApp:
        return _with(t, fun=f(t.fun))
    return t


def _with(t, **changes):
    """A copy of the frozen node ``t`` (a term, branch or let binding) with
    ``changes`` to its fields.  Unlike ``dataclasses.replace`` it does not
    re-run ``__post_init__``, so a copied ``Let`` keeps its ``rec``, and it
    skips ``__init__`` on the hot paths of renaming and translation.  Fields
    are set one by one, not through ``__dict__``: touching an instance's
    ``__dict__`` makes CPython give it a separate dict, twice the size."""
    new = _new(type(t))
    for name in t.__dataclass_fields__:
        _setattr(new, name,
                 changes[name] if name in changes else getattr(t, name))
    return new


def var_node(name: str, ty: Optional[Type]) -> Var:
    """``Var(name, ty=ty)``, set field by field in declaration order, as
    ``_with`` sets them: the sharing translation builds one for each
    argument it binds, and the constructor takes twice as long."""
    new = _new(Var)
    _setattr(new, "loc", None)
    _setattr(new, "ty", ty)
    _setattr(new, "name", name)
    return new


def int_node(value: int, ty: Optional[Type]) -> IntLit:
    """``IntLit(value, ty=ty)``, set field by field as ``var_node`` is:
    every arithmetic step of both evaluators builds one."""
    new = _new(IntLit)
    _setattr(new, "loc", None)
    _setattr(new, "ty", ty)
    _setattr(new, "value", value)
    return new


def let_node(mult: MultExpr, var: str, rhs: Term, fv: tuple[str, ...],
             body: Term) -> Let:
    """``let[mult] var = rhs in body`` at ``body``'s type, its one binding
    typed as ``rhs`` and carrying the free-variable list ``fv``; set field
    by field, as ``var_node`` is."""
    b = _new(LetBind)
    _setattr(b, "var", var)
    _setattr(b, "var_ty", rhs.ty)
    _setattr(b, "rhs", rhs)
    _setattr(b, "loc", None)
    _setattr(b, "fv", fv)
    new = _new(Let)
    _setattr(new, "loc", None)
    _setattr(new, "ty", body.ty)
    _setattr(new, "mult", mult)
    _setattr(new, "binds", (b,))
    _setattr(new, "body", body)
    _setattr(new, "rec", is_omega_mult(mult))
    return new


def subterms(t: Term) -> Iterator[Term]:
    """The term and all of its descendants, pre-order.  The walk keeps its
    own stack, so no nesting depth meets Python's recursion limit."""
    todo = [t]
    while todo:
        s = todo.pop()
        yield s
        todo.extend(reversed(children(s)))


def free_vars(t: Term) -> frozenset[str]:
    """The free variables of ``t``.  A post-order walk on an explicit
    stack, so that no nesting depth meets Python's recursion limit."""
    done: list[tuple[str, ...]] = []  # the lists of finished subterms
    todo: list = [t]  # subterms to enter, and (node, n) to finish
    while todo:
        s = todo.pop()
        if type(s) is tuple:  # the last n lists are the node's children's
            s, n = s
            parts = done[-n:]
            del done[-n:]
            done.append(join_free_vars(s, parts))
        elif type(s) is Var:
            done.append((s.name,))
        elif kids := children(s):
            todo.append((s, len(kids)))
            todo.extend(reversed(kids))
        else:
            done.append(join_free_vars(s, []))
    return frozenset(done[0])


def join_free_vars(t: Term, parts: list[tuple[str, ...]]
                   ) -> tuple[str, ...]:
    """The free variables of ``t`` in first-occurrence order, from those of
    its children (``parts``, in the order of ``children``): the names a
    binder binds leave the children it scopes over.  ``parts`` is changed
    in place."""
    cls = type(t)
    if cls is Var:
        return (t.name,)
    if cls is Let:
        bound = [b.var for b in t.binds]
        for i in range(0 if t.rec else len(bound), len(parts)):
            parts[i] = _minus(parts[i], bound)
    elif cls is Case:
        for i, b in enumerate(t.branches, 1):
            parts[i] = _minus(parts[i], b.binders)
    elif cls is Lam:
        parts[0] = _minus(parts[0], (t.var,))
    elif cls is ArrayLit:
        return tuple(dict.fromkeys(t.elems))
    parts = [p for p in parts if p]
    if len(parts) < 2:
        return parts[0] if parts else ()
    return tuple(dict.fromkeys(chain.from_iterable(parts)))


def _minus(names: tuple[str, ...], bound) -> tuple[str, ...]:
    return tuple([x for x in names if x not in bound])


def rename_vars(t: Term, mapping: dict[str, str]) -> Term:
    """Variable-for-variable substitution; binders shadow the mapping.

    Both evaluators only ever substitute variables for variables (beta,
    case selection, let freshening), so no capture check is needed beyond
    shadowing: replacement names are always globally fresh or already bound
    in an enclosing scope.
    """
    if not mapping:
        return t
    match t:
        case Var(name):
            new = mapping.get(name)
            return _with(t, name=new) if new else t
        case Lam(_, x, _, body):
            inner = _without(mapping, (x,))
            return _with(t, body=rename_vars(body, inner))
        case Case(_, scrut, branches):
            new_branches = []
            for b in branches:
                inner = _without(mapping, b.binders)
                new_branches.append(_with(b, body=rename_vars(b.body,
                                                              inner)))
            return _with(t, scrut=rename_vars(scrut, mapping),
                         branches=tuple(new_branches))
        case Let(_, binds, body):
            inner = _without(mapping, [b.var for b in binds])
            rhs_map = inner if t.rec else mapping
            new_binds = tuple(_with(b, rhs=rename_vars(b.rhs, rhs_map),
                                    fv=None)
                              for b in binds)
            return _with(t, binds=new_binds, body=rename_vars(body, inner))
        case ArrayLit(elems):
            return _with(t, elems=tuple(mapping.get(e, e) for e in elems))
        case _:
            return map_children(t, lambda s: rename_vars(s, mapping))


def _without(mapping: dict[str, str], names) -> dict[str, str]:
    """``mapping`` minus ``names``; ``mapping`` itself when none is in it."""
    if not any(x in mapping for x in names):
        return mapping
    return {k: v for k, v in mapping.items() if k not in names}


def term_subst_mult(t: Term, var: str, by: MultExpr) -> Term:
    """Substitute a multiplicity throughout a term, annotations included."""

    subst = {var: by}

    def sm(m: Optional[MultExpr]) -> Optional[MultExpr]:
        return mult_subst_all(m, subst) if m is not None else None

    def st(a: Optional[Type]) -> Optional[Type]:
        return type_subst_mult_all(a, subst) if a is not None else None

    def go(t: Term) -> Term:
        changes = {"ty": st(t.ty)}
        match t:
            case MultLam(p) if p == var:
                # shadowed; another MultLam's body is substituted as usual,
                # since runtime substitutions are closed and `by` cannot
                # capture its parameter
                return _with(t, **changes)
            case Lam(m, _, a):
                changes.update(mult=sm(m), var_ty=st(a))
            case App():
                changes.update(mult_ann=sm(t.mult_ann))
            case MultApp(_, m) | Case(m):
                changes.update(mult=sm(m))
            case Con(_, targs, margs):
                changes.update(type_args=tuple(map(st, targs)),
                               mult_args=tuple(map(sm, margs)))
            case Let(m, binds, body):
                # the term variables stay, so each binding keeps its
                # recorded free-variable list, which ``map_children`` drops
                return _with(t, mult=sm(m), body=go(body), binds=tuple(
                    _with(b, var_ty=st(b.var_ty), rhs=go(b.rhs))
                    for b in binds), **changes)
            case ArrayLit():
                changes.update(elem_ty=st(t.elem_ty))
        return map_children(_with(t, **changes), go)

    return go(t)
