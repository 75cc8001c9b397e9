"""Abstract syntax: types, terms, datatype declarations, and (re-exported
from ``multiplicity``) multiplicity expressions.

Term nodes are plain slotted records, built by one ordinary constructor
call.  Nothing enforces their immutability at run time; it is a contract.
After a node is built, only three writers set a field of it, and each only
on nodes it has just accepted or built: ``typecheck.annotate`` (``ty`` and
``mult_ann``, on a term it accepted), the sharing translation (``fv``, on
the let bindings it builds) and ``Let.__post_init__`` (``rec``).  Every
other change makes a copy (``_with``, ``with_children``).  Equality and
hashing ignore the annotation slots (``loc``, ``ty``, ``mult_ann``,
``fv``) so that two terms compare equal regardless of source position or
typechecker output.  A type is one object per structure (``Type``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Optional

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


@dataclass(slots=True, unsafe_hash=True)
class Term:
    loc: Optional[Loc] = field(**_ANN)
    ty: Optional[Type] = field(**_ANN)


@dataclass(slots=True, unsafe_hash=True)
class Var(Term):
    name: str = ""


@dataclass(slots=True, unsafe_hash=True)
class IntLit(Term):
    value: int = 0


@dataclass(slots=True, unsafe_hash=True)
class Lam(Term):
    mult: MultExpr = ONE
    var: str = ""
    var_ty: Type = INT
    body: Term = None  # type: ignore[assignment]


@dataclass(slots=True, unsafe_hash=True)
class App(Term):
    fun: Term = None  # type: ignore[assignment]
    arg: Term = None  # type: ignore[assignment]
    # Arrow multiplicity of `fun`, recorded by the typechecker.
    mult_ann: Optional[MultExpr] = field(**_ANN)


@dataclass(slots=True, unsafe_hash=True)
class MultLam(Term):
    param: str = ""
    body: Term = None  # type: ignore[assignment]


@dataclass(slots=True, unsafe_hash=True)
class MultApp(Term):
    fun: Term = None  # type: ignore[assignment]
    mult: MultExpr = ONE


@dataclass(slots=True, unsafe_hash=True)
class Con(Term):
    name: str = ""
    type_args: tuple[Type, ...] = ()
    mult_args: tuple[MultExpr, ...] = ()
    args: tuple[Term, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class Branch:
    con: str
    binders: tuple[str, ...]
    body: Term
    loc: Optional[Loc] = field(**_ANN)


@dataclass(slots=True, unsafe_hash=True)
class Case(Term):
    mult: MultExpr = ONE
    scrut: Term = None  # type: ignore[assignment]
    branches: tuple[Branch, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True, unsafe_hash=True)
class Let(Term):
    mult: MultExpr = ONE
    binds: tuple[LetBind, ...] = ()
    body: Term = None  # type: ignore[assignment]
    # Only w-groups are recursive.  Decided from the written multiplicity
    # when the node is built and kept by every copy, so instantiating a
    # multiplicity variable never changes a group's scope.
    rec: bool = field(init=False)

    def __post_init__(self) -> None:
        self.rec = is_omega_mult(self.mult)


@dataclass(slots=True, unsafe_hash=True)
class Prim(Term):
    name: str = ""
    args: tuple[Term, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class ArrName(Term):
    """Reference to a heap array cell; created only by the in-place evaluator."""

    name: str = ""


@dataclass(slots=True, unsafe_hash=True)
class ArrayLit(Term):
    """An array value (element variables); created only by the pure evaluator."""

    elems: tuple[str, ...] = ()
    elem_ty: Type = INT
    frozen_tag: bool = False


@dataclass(slots=True, unsafe_hash=True)
class DataDecl:
    name: str
    mult_params: tuple[str, ...]
    type_params: tuple[str, ...]
    constructors: tuple[ConDecl, ...]
    loc: Optional[Loc] = field(**_ANN)


@dataclass(slots=True, unsafe_hash=True)
class ConDecl:
    name: str
    fields: tuple[tuple[Type, MultExpr], ...]
    loc: Optional[Loc] = field(**_ANN)


# The default of a copier's parameter: the copy keeps the field.
_SAME = object()


def _copier(cls: type) -> None:
    """Give the node class ``cls`` (a term, branch or let binding) its
    copier: ``t._with(**changes)`` is a copy of ``t`` with ``changes`` to
    its fields.  The method is generated once per class, as ``dataclass``
    generates ``__init__``, so a copy stores each slot once and loops over
    nothing.  Unlike ``dataclasses.replace`` it does not run
    ``__post_init__``, so a copied ``Let`` keeps its ``rec``, and it keeps
    every annotation slot that ``changes`` does not name."""
    names = cls.__dataclass_fields__
    src = (f"def _with(self, *, {', '.join(f'{n}=_SAME' for n in names)}):\n"
           "    new = _new(cls)\n"
           + "".join(f"    new.{n} = self.{n} if {n} is _SAME else {n}\n"
                     for n in names)
           + "    return new\n")
    scope = {"_SAME": _SAME, "_new": _new, "cls": cls}
    exec(src, scope)
    cls._with = scope["_with"]


for _cls in (Var, IntLit, Lam, App, MultLam, MultApp, Con, Branch, Case,
             LetBind, Let, Prim, ArrName, ArrayLit):
    _copier(_cls)
del _cls


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
    ``children``, this is the one place that knows which fields of a node
    hold subterms; every other walk handles only the nodes where it
    differs, and rebuilds the rest as ``with_children(t, [f(k) for k in
    children(t)])``."""
    cls = type(t)
    if cls is App:
        return t._with(fun=kids[0], arg=kids[1])
    if cls is Lam or cls is MultLam:
        return t._with(body=kids[0])
    if cls is Let:
        return t._with(binds=tuple([b._with(rhs=rhs, fv=None)
                                    for b, rhs in zip(t.binds, kids)]),
                       body=kids[-1])
    if cls is Prim or cls is Con:
        return t._with(args=tuple(kids)) if t.args else t
    if cls is Case:
        return t._with(scrut=kids[0],
                       branches=tuple([b._with(body=body) for b, body
                                       in zip(t.branches, kids[1:])]))
    if cls is MultApp:
        return t._with(fun=kids[0])
    return t


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
            return t._with(name=new) if new else t
        case Lam(_, x, _, body):
            inner = _without(mapping, (x,))
            return t._with(body=rename_vars(body, inner))
        case Case(_, scrut, branches):
            new_branches = []
            for b in branches:
                inner = _without(mapping, b.binders)
                new_branches.append(b._with(body=rename_vars(b.body,
                                                             inner)))
            return t._with(scrut=rename_vars(scrut, mapping),
                           branches=tuple(new_branches))
        case Let(_, binds, body):
            inner = _without(mapping, [b.var for b in binds])
            rhs_map = inner if t.rec else mapping
            new_binds = tuple(b._with(rhs=rename_vars(b.rhs, rhs_map),
                                      fv=None)
                              for b in binds)
            return t._with(binds=new_binds, body=rename_vars(body, inner))
        case ArrayLit(elems):
            return t._with(elems=tuple(mapping.get(e, e) for e in elems))
        case _:
            return with_children(t, [rename_vars(k, mapping)
                                     for k in children(t)])


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
                return t._with(**changes)
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
                # recorded free-variable list, which ``with_children`` drops
                return t._with(mult=sm(m), body=go(body), binds=tuple(
                    b._with(var_ty=st(b.var_ty), rhs=go(b.rhs))
                    for b in binds), **changes)
            case ArrayLit():
                changes.update(elem_ty=st(t.elem_ty))
        t = t._with(**changes)
        return with_children(t, [go(k) for k in children(t)])

    return go(t)
