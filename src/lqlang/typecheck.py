"""Algorithmic typechecker.

The declarative rules split contexts nondeterministically; here usages are
synthesized bottom-up instead (multiplicities as outputs) and checked at
binders with ``sub_usage``.  ``infer`` only types: it returns a term's
type and the usage of every free variable, and builds and changes no
node.  ``annotate`` writes the types into a term that ``infer`` accepts;
``check_program`` elaborates top-level definitions into nested lets around
``main`` and annotates the whole program in place.

Two types are equal up to the multiplicity semiring and the renaming of
``forall`` binders.  ``type_equiv`` decides it by identity or by one
comparison of the keys ``type_key`` keeps on each type object.  Types are
interned (``syntax.Type``): a type that ``infer``, a rule or
``instantiate_con`` builds again is the object built before.

An environment may carry an ``InferMemo``, which the pure evaluator's
state check keeps for one run: ``infer`` then returns the recorded type
and usage of a subterm it has seen, by identity, whenever its free
variables still have the types they had.  Without a memo every call
infers afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .diagnostics import CheckError, Diagnostic, Kind
from .multiplicity import (NF_OMEGA, NF_ONE, ZERO, Usage, UsageMult,
                           UnjoinableUsage, mult_equiv, mult_normalize,
                           sub_usage, usage_add, usage_join, usage_scale,
                           usage_subst)
from .pretty import show_mult, show_type
from .syntax import (App, ArrName, ArrayLit, Case, Con, ConDecl, DataDecl,
                     INT, IntLit, Lam, Let, LetBind, Loc, MProd, MultApp,
                     MultExpr, MultLam, OMEGA, ONE, Prim, TArray, TArrow,
                     TData, TForall, TInt, TMArray, TVar, Term, Type, Var,
                     _setattr, children, is_omega_mult,
                     mult_subst_all, mult_vars, subterms, type_mult_vars,
                     type_subst_mult, type_subst_mult_all, type_subst_tvars,
                     with_children)

BUILTIN_TYPE_NAMES = frozenset({"Int", "MArray", "Array"})

PRIM_ARG_MULTS: dict[str, tuple[MultExpr, ...]] = {
    "newMArray": (ONE, OMEGA, ONE),
    "write": (ONE, ONE, OMEGA),
    "freeze": (ONE,),
    "index": (OMEGA, ONE),
    "add": (ONE, ONE),
    "sub": (ONE, ONE),
    "mul": (ONE, ONE),
    "eq": (ONE, ONE),
    "lt": (ONE, ONE),
}

PRIM_NAMES = frozenset(PRIM_ARG_MULTS)


@dataclass(frozen=True)
class TypeEnv:
    decls: dict[str, DataDecl]
    cons: dict[str, tuple[DataDecl, ConDecl]]
    vars: dict[str, tuple[Type, MultExpr]]
    mult_vars: frozenset[str]
    memo: Optional["InferMemo"] = field(default=None, compare=False)

    @staticmethod
    def from_decls(decls: list[DataDecl]) -> "TypeEnv":
        table = {d.name: d for d in decls}
        cons = {c.name: (d, c) for d in decls for c in d.constructors}
        return TypeEnv(table, cons, {}, frozenset())

    def bind_var(self, x: str, ty: Type, mult: MultExpr) -> "TypeEnv":
        return self.bind_vars([(x, ty, mult)])

    def bind_vars(self, binds: list[tuple[str, Type, MultExpr]]) -> "TypeEnv":
        """A new environment with ``binds`` added to a copy of ``vars``;
        ``infer`` binds in place instead."""
        new_vars = dict(self.vars)
        for x, ty, m in binds:
            new_vars[x] = (ty, m)
        return TypeEnv(self.decls, self.cons, new_vars, self.mult_vars,
                       self.memo)

    def bind_mult(self, p: str) -> "TypeEnv":
        """A new environment with ``p`` in scope, sharing ``vars``."""
        return TypeEnv(self.decls, self.cons, self.vars,
                       self.mult_vars | {p}, self.memo)


@dataclass(slots=True)
class InferResult:
    ty: Type
    usage: Usage


def _fail(kind: Kind, msg: str, loc: Loc | None) -> CheckError:
    return CheckError.single(kind, msg, loc)


# ---------------------------------------------------------------------------
# Type equality (alpha-equivalence on forall binders, multiplicities up to
# semiring equivalence)

def type_key(t: Type) -> tuple:
    """The key of ``t``: two types are equal exactly when their keys are.
    Each part is led by its class, each multiplicity is its normal form,
    and each ``forall`` binder is named by its depth.  A key depends only
    on the type's structure, so it is worked out once and kept on ``t``."""
    return t._key or _key(t, {}, 0)


def _key(t: Type, ren: dict[str, str], depth: int) -> tuple:
    """The key of ``t`` under ``depth`` ``forall`` binders, named in ``ren``;
    outside every binder it is the key kept on ``t``."""
    if not depth and t._key is not None:
        return t._key
    cls = type(t)
    if cls is TArrow:
        key = (TArrow, _key(t.dom, ren, depth), _mult_key(t.mult, ren),
               _key(t.cod, ren, depth))
    elif cls is TData:
        key = (TData, t.name, tuple([_mult_key(m, ren) for m in t.mult_args]),
               tuple([_key(a, ren, depth) for a in t.type_args]))
    elif cls is TMArray or cls is TArray:
        key = (cls, _key(t.elem, ren, depth))
    elif cls is TForall:
        key = (TForall,
               _key(t.body, {**ren, t.var: f"\x00{depth}"}, depth + 1))
    elif cls is TVar:
        key = (TVar, t.name)
    elif cls is TInt:
        key = (TInt,)
    else:
        raise AssertionError(t)
    if not depth:
        _setattr(t, "_key", key)
    return key


def _mult_key(m: MultExpr, ren: dict[str, str]) -> tuple:
    terms = mult_normalize(m).terms
    if not ren:
        return terms
    return tuple(sorted((tuple(sorted([ren.get(v, v) for v in mono])), c)
                        for mono, c in terms))


def type_equiv(a: Type, b: Type) -> bool:
    return a is b or type_key(a) == type_key(b)


# ---------------------------------------------------------------------------
# Well-formedness

def check_type(env: TypeEnv, ty: Type, tvars: frozenset[str] = frozenset(),
               mvars: frozenset[str] | None = None,
               loc: Loc | None = None) -> None:
    """Reject types with unknown datatypes, wrong arities, or out-of-scope
    variables.  ``tvars`` is nonempty only inside datatype declarations."""
    # recursion with arguments, not through a nested closure: a recursive
    # closure is a reference cycle, and would keep ``env`` and its memo
    # alive until the next garbage collection
    scope = env.mult_vars if mvars is None else mvars
    cls = type(ty)
    if cls is TInt:
        return
    if cls is TArrow:
        _check_mult_in(ty.mult, scope, tvars, loc)
        check_type(env, ty.dom, tvars, scope, loc)
        check_type(env, ty.cod, tvars, scope, loc)
    elif cls is TData:
        name, margs, targs = ty.name, ty.mult_args, ty.type_args
        decl = env.decls.get(name)
        if decl is None:
            raise _fail(Kind.UNBOUND_VARIABLE,
                        f"unknown datatype '{name}'", loc)
        if (len(margs) != len(decl.mult_params)
                or len(targs) != len(decl.type_params)):
            raise _fail(
                Kind.ARITY_MISMATCH,
                f"datatype '{name}' expects {len(decl.mult_params)} "
                f"multiplicity and {len(decl.type_params)} type "
                f"arguments, got {len(margs)} and {len(targs)}", loc)
        for m in margs:
            _check_mult_in(m, scope, tvars, loc)
        for a in targs:
            check_type(env, a, tvars, scope, loc)
    elif cls is TMArray or cls is TArray:
        check_type(env, ty.elem, tvars, scope, loc)
    elif cls is TVar:
        if ty.name not in tvars:
            raise _fail(Kind.MALFORMED_DECL,
                        f"type variable '{ty.name}' is not in scope", loc)
    elif cls is TForall:
        check_type(env, ty.body, tvars, scope | {ty.var}, loc)
    else:
        raise AssertionError(ty)


def _check_mult_in(m: MultExpr, scope: frozenset[str], tvars: frozenset[str],
                   loc: Loc | None) -> None:
    for v in mult_vars(m):
        if v not in scope:
            raise _fail(Kind.MALFORMED_DECL if tvars else Kind.UNBOUND_VARIABLE,
                        f"multiplicity variable '{v}' is not in scope", loc)


def instantiate_con(env: TypeEnv, con_name: str, type_args: tuple[Type, ...],
                    mult_args: tuple[MultExpr, ...],
                    loc: Loc | None = None
                    ) -> tuple[tuple[tuple[Type, MultExpr], ...], Type]:
    """Instantiated field signature and result type of a constructor: a
    new tuple on each call, of interned types, so a repeated instance has
    the same field and result type objects.  The multiplicity arguments
    go in first, all at once, so none is captured by a parameter or by a
    type argument's multiplicities; then the type arguments."""
    decl, con, msubst = _con_instance(env, con_name, type_args, mult_args,
                                      loc)
    tmap = dict(zip(decl.type_params, type_args))
    fields = tuple([(type_subst_tvars(type_subst_mult_all(fty, msubst), tmap),
                     mult_subst_all(fmult, msubst))
                    for fty, fmult in con.fields])
    return fields, TData(decl.name, mult_args, type_args)


def con_field_mults(env: TypeEnv, con_name: str,
                    type_args: tuple[Type, ...],
                    mult_args: tuple[MultExpr, ...],
                    loc: Loc | None = None) -> tuple[MultExpr, ...]:
    """The field multiplicities of ``instantiate_con``'s signature, and its
    errors, without building the field types."""
    _, con, msubst = _con_instance(env, con_name, type_args, mult_args, loc)
    return tuple([mult_subst_all(fmult, msubst) for _, fmult in con.fields])


def _con_instance(env: TypeEnv, con_name: str, type_args: tuple[Type, ...],
                  mult_args: tuple[MultExpr, ...], loc: Loc | None
                  ) -> tuple[DataDecl, ConDecl, dict[str, MultExpr]]:
    """A constructor's declarations and the map from its datatype's
    multiplicity parameters to ``mult_args``, once the arities match."""
    entry = env.cons.get(con_name)
    if entry is None:
        raise _fail(Kind.UNBOUND_VARIABLE,
                    f"unknown constructor '{con_name}'", loc)
    decl, con = entry
    if len(mult_args) != len(decl.mult_params):
        raise _fail(Kind.ARITY_MISMATCH,
                    f"constructor '{con_name}' expects "
                    f"{len(decl.mult_params)} multiplicity arguments, "
                    f"got {len(mult_args)}", loc)
    if len(type_args) != len(decl.type_params):
        raise _fail(Kind.ARITY_MISMATCH,
                    f"constructor '{con_name}' expects "
                    f"{len(decl.type_params)} type arguments, "
                    f"got {len(type_args)}", loc)
    return decl, con, dict(zip(decl.mult_params, mult_args))


# ---------------------------------------------------------------------------
# Inference

@dataclass
class InferMemo:
    """What ``infer`` keeps between the calls of one run.  Under a
    multiplicity binder a memo neither hits nor records.

    ``entries`` maps a subterm's id to the subterm, its type, its usage,
    its free variables (the usage keys) and the types they had, which a hit
    compares with ``type_equiv``.  Each entry holds its objects, so their
    ids cannot be reused.  A memo assumes the datatype declarations stay
    the same."""
    entries: dict[int, tuple[Term, Type, Usage, tuple[str, ...],
                             tuple[Type, ...]]] = field(default_factory=dict)

    def hit(self, env: TypeEnv, t: Term) -> Optional[InferResult]:
        entry = self.entries.get(id(t))
        if entry is None or env.mult_vars:
            return None
        for x, ty in zip(entry[3], entry[4]):
            bound = env.vars.get(x)
            if bound is None or not type_equiv(bound[0], ty):
                return None
        return InferResult(entry[1], entry[2])

    def record(self, env: TypeEnv, t: Term, r: InferResult) -> None:
        if not env.mult_vars:
            self.entries[id(t)] = (t, r.ty, r.usage, tuple(r.usage), tuple(
                [env.vars[x][0] for x in r.usage]))


def infer(env: TypeEnv, t: Term) -> InferResult:
    """Type and usage of ``t``; ``t`` itself is left as it is.  With a memo
    in ``env``, ``infer`` asks it for each subterm's result before typing
    the subterm and gives it each result it works out.

    Binders extend ``env.vars`` in place and restore it before returning,
    also when a ``CheckError`` escapes, so a caller may infer again in the
    same environment.  The usages of results are shared between results
    and never changed."""
    memo = env.memo
    if memo is not None:
        hit = memo.hit(env, t)
        if hit is not None:
            return hit
    cls = type(t)
    if cls is Var:
        name = t.name
        binding = env.vars.get(name)
        if binding is None:
            raise _fail(Kind.UNBOUND_VARIABLE,
                        f"variable '{name}' is not in scope", t.loc)
        out = InferResult(binding[0], {name: NF_ONE})

    elif cls is Prim:
        name = t.name
        mults = PRIM_ARG_MULTS.get(name)
        if mults is None:
            raise _fail(Kind.UNBOUND_VARIABLE, f"unknown primitive '{name}'",
                        t.loc)
        if len(t.args) != len(mults):
            raise _fail(Kind.ARITY_MISMATCH,
                        f"primitive '{name}' expects {len(mults)} arguments, "
                        f"got {len(t.args)}", t.loc)
        rs = []
        for a in t.args:
            rs.append(infer(env, a))
        ty = _prim_type(env, t, rs)
        usage: Usage = {}
        for r, m in zip(rs, mults):
            usage = usage_add(usage, usage_scale(m, r.usage))
        out = InferResult(ty, usage)

    elif cls is App:
        rf = infer(env, t.fun)
        fty = rf.ty
        if not isinstance(fty, TArrow):
            raise _fail(Kind.TYPE_MISMATCH,
                        f"applied a non-function of type "
                        f"'{show_type(fty)}'", t.loc)
        ra = infer(env, t.arg)
        if not type_equiv(ra.ty, fty.dom):
            raise _fail(Kind.TYPE_MISMATCH,
                        f"argument has type '{show_type(ra.ty)}' but the "
                        f"function expects '{show_type(fty.dom)}'", t.loc)
        out = InferResult(fty.cod,
                          usage_add(rf.usage, usage_scale(fty.mult, ra.usage)))

    elif cls is IntLit:
        out = InferResult(INT, {})

    elif cls is Let:
        m = t.mult
        binds = t.binds
        _check_mult_in(m, env.mult_vars, frozenset(), t.loc)
        for b in binds:
            check_type(env, b.var_ty, loc=b.loc or t.loc)
        names = [b.var for b in binds]
        if len(set(names)) != len(names):
            raise _fail(Kind.MALFORMED_DECL,
                        "duplicate binder in let group", t.loc)
        vars_ = env.vars
        saved = [(x, vars_.get(x, _UNBOUND)) for x in names]
        try:
            if t.rec:
                for b in binds:
                    vars_[b.var] = (b.var_ty, OMEGA)
            rhs_usage: Usage = {}
            for b in binds:
                rb = infer(env, b.rhs)
                if not type_equiv(rb.ty, b.var_ty):
                    raise _fail(Kind.TYPE_MISMATCH,
                                f"binding '{b.var}' declares type "
                                f"'{show_type(b.var_ty)}' but its definition "
                                f"has type '{show_type(rb.ty)}'",
                                b.loc or t.loc)
                u = rb.usage
                if t.rec:
                    # recursive refs sit under an w binder
                    u = {x: v for x, v in u.items() if x not in names}
                rhs_usage = usage_add(rhs_usage, u)
            for b in binds:
                vars_[b.var] = (b.var_ty, m)
            rb_body = infer(env, t.body)
        finally:
            _restore(vars_, saved)
        usage = dict(rb_body.usage)
        for x in names:
            _require_usage(x, usage.pop(x, ZERO), m, t.loc)
        out = InferResult(rb_body.ty,
                          usage_add(usage, usage_scale(m, rhs_usage)))

    elif cls is Lam:
        m = t.mult
        x = t.var
        a = t.var_ty
        check_type(env, a, loc=t.loc)
        _check_mult_in(m, env.mult_vars, frozenset(), t.loc)
        vars_ = env.vars
        saved = [(x, vars_.get(x, _UNBOUND))]
        vars_[x] = (a, m)
        try:
            r = infer(env, t.body)
        finally:
            _restore(vars_, saved)
        usage = dict(r.usage)
        _require_usage(x, usage.pop(x, ZERO), m, t.loc)
        out = InferResult(TArrow(a, m, r.ty), usage)

    elif cls is Case:
        m = t.mult
        _check_mult_in(m, env.mult_vars, frozenset(), t.loc)
        rs = infer(env, t.scrut)
        if not isinstance(rs.ty, TData):
            raise _fail(Kind.TYPE_MISMATCH,
                        f"case scrutinee has non-datatype type "
                        f"'{show_type(rs.ty)}'", t.loc)
        decl = env.decls[rs.ty.name]
        vars_ = env.vars
        seen: set[str] = set()
        joined: Usage | None = None
        result_ty: Type | None = None
        for br in t.branches:
            if br.con in seen:
                raise _fail(Kind.MALFORMED_DECL,
                            f"duplicate case branch for '{br.con}'",
                            br.loc or t.loc)
            seen.add(br.con)
            entry = env.cons.get(br.con)
            if entry is None or entry[0].name != decl.name:
                raise _fail(Kind.TYPE_MISMATCH,
                            f"branch constructor '{br.con}' does not "
                            f"belong to datatype '{decl.name}'",
                            br.loc or t.loc)
            fields, _ = instantiate_con(env, br.con, rs.ty.type_args,
                                        rs.ty.mult_args, br.loc)
            if len(br.binders) != len(fields):
                raise _fail(Kind.ARITY_MISMATCH,
                            f"branch '{br.con}' binds {len(br.binders)} "
                            f"variables but the constructor has "
                            f"{len(fields)} fields", br.loc or t.loc)
            binder_mults = [MProd(m, fmult) for _, fmult in fields]
            saved = []
            try:
                for x, (fty, _), bm in zip(br.binders, fields, binder_mults):
                    saved.append((x, vars_.get(x, _UNBOUND)))
                    vars_[x] = (fty, bm)
                rb = infer(env, br.body)
            finally:
                _restore(vars_, saved)
            busage = dict(rb.usage)
            for x, bm in zip(br.binders, binder_mults):
                _require_usage(x, busage.pop(x, ZERO), bm, br.loc or t.loc)
            if result_ty is None:
                result_ty = rb.ty
            elif not type_equiv(result_ty, rb.ty):
                raise _fail(Kind.TYPE_MISMATCH,
                            f"branch '{br.con}' returns "
                            f"'{show_type(rb.ty)}' but an earlier branch "
                            f"returned '{show_type(result_ty)}'",
                            br.loc or t.loc)
            try:
                joined = (busage if joined is None
                          else usage_join(joined, busage))
            except UnjoinableUsage as exc:
                raise _fail(Kind.UNJOINABLE_USAGE,
                            f"variable '{exc.var}' is used at "
                            f"incompatible multiplicities across case "
                            f"branches", br.loc or t.loc) from None
        assert result_ty is not None and joined is not None
        out = InferResult(result_ty,
                          usage_add(usage_scale(m, rs.usage), joined))

    elif cls is Con:
        name = t.name
        for a in t.type_args:
            check_type(env, a, loc=t.loc)
        for m in t.mult_args:
            _check_mult_in(m, env.mult_vars, frozenset(), t.loc)
        fields, result = instantiate_con(env, name, t.type_args, t.mult_args,
                                         t.loc)
        if len(t.args) != len(fields):
            raise _fail(Kind.ARITY_MISMATCH,
                        f"constructor '{name}' expects {len(fields)} "
                        f"arguments, got {len(t.args)}", t.loc)
        usage = {}
        for (fty, fmult), arg in zip(fields, t.args):
            ra = infer(env, arg)
            if not type_equiv(ra.ty, fty):
                raise _fail(Kind.TYPE_MISMATCH,
                            f"field of '{name}' has type "
                            f"'{show_type(ra.ty)}' but the signature "
                            f"declares '{show_type(fty)}'", t.loc)
            usage = usage_add(usage, usage_scale(fmult, ra.usage))
        out = InferResult(result, usage)

    elif cls is MultApp:
        m = t.mult
        _check_mult_in(m, env.mult_vars, frozenset(), t.loc)
        rf = infer(env, t.fun)
        if not isinstance(rf.ty, TForall):
            raise _fail(Kind.TYPE_MISMATCH,
                        f"multiplicity application to non-polymorphic "
                        f"type '{show_type(rf.ty)}'", t.loc)
        out = InferResult(type_subst_mult(rf.ty.body, rf.ty.var, m),
                          usage_subst(rf.usage, rf.ty.var, m))

    elif cls is MultLam:
        p = t.param
        _check_fresh(env, p, t.loc)
        r = infer(env.bind_mult(p), t.body)
        out = InferResult(TForall(p, r.ty), r.usage)

    elif cls is ArrayLit:
        usage = {}
        for e in t.elems:
            binding = env.vars.get(e)
            if binding is None:
                raise _fail(Kind.UNBOUND_VARIABLE,
                            f"array element '{e}' is not in scope", t.loc)
            if not type_equiv(binding[0], t.elem_ty):
                raise _fail(Kind.TYPE_MISMATCH,
                            f"array element '{e}' has type "
                            f"'{show_type(binding[0])}', expected "
                            f"'{show_type(t.elem_ty)}'", t.loc)
            usage = usage_add(usage, {e: NF_OMEGA})
        out = InferResult(
            TArray(t.elem_ty) if t.frozen_tag else TMArray(t.elem_ty), usage)

    elif cls is ArrName:
        raise _fail(Kind.TYPE_MISMATCH,
                    "array cell references are not typeable terms", t.loc)

    else:
        raise AssertionError(f"unknown term {t!r}")
    if memo is not None:
        memo.record(env, t, out)
    return out


# ``_restore``'s mark for a name that was not bound before
_UNBOUND = object()


def _restore(vars_: dict, saved: list[tuple[str, object]]) -> None:
    """Undo in-place bindings: ``saved`` holds each name with what it was
    bound to before, in binding order.  A name saved but not yet bound
    comes back as it was."""
    for x, old in reversed(saved):
        if old is _UNBOUND:
            vars_.pop(x, None)
        else:
            vars_[x] = old


def _require_usage(x: str, u: UsageMult, declared: MultExpr,
                   loc: Loc | None) -> None:
    if not sub_usage(u, declared):
        from .multiplicity import nf_render
        shown = "0" if u is ZERO else show_mult(nf_render(u))
        raise _fail(Kind.LINEARITY_MISMATCH,
                    f"variable '{x}' is used with multiplicity {shown} but "
                    f"is bound with multiplicity {show_mult(declared)}", loc)


def _check_fresh(env: TypeEnv, p: str, loc: Loc | None) -> None:
    for x, (ty, m) in env.vars.items():
        if p in type_mult_vars(ty) or p in mult_vars(m):
            raise _fail(Kind.FRESHNESS_VIOLATION,
                        f"multiplicity variable '{p}' already occurs in the "
                        f"type or multiplicity of '{x}'", loc)


def _expect_decl(env: TypeEnv, name: str, n_mult: int, n_type: int,
                 why: str, loc: Loc | None) -> None:
    decl = env.decls.get(name)
    if (decl is None or len(decl.mult_params) != n_mult
            or len(decl.type_params) != n_type):
        raise _fail(Kind.UNBOUND_VARIABLE,
                    f"{why} requires the datatype '{name}' "
                    f"({n_mult} multiplicity / {n_type} type parameters) "
                    f"to be in scope", loc)


def _want_arg(t: Prim, rs: list[InferResult], i: int, ty: Type,
              what: str) -> None:
    if not type_equiv(rs[i].ty, ty):
        raise _fail(Kind.TYPE_MISMATCH,
                    f"argument {i + 1} of '{t.name}' has type "
                    f"'{show_type(rs[i].ty)}' but {what} "
                    f"'{show_type(ty)}' is required", t.loc)


def _prim_type(env: TypeEnv, t: Prim, rs: list[InferResult]) -> Type:
    """The result type of the primitive ``t`` whose arguments have the
    results ``rs``."""
    name = t.name
    if name in ("add", "sub", "mul", "eq", "lt"):
        _want_arg(t, rs, 0, INT, "type")
        _want_arg(t, rs, 1, INT, "type")
        if name in ("eq", "lt"):
            _expect_decl(env, "Bool", 0, 0, f"primitive '{name}'", t.loc)
            return TData("Bool")
        return INT
    if name == "newMArray":
        _want_arg(t, rs, 0, INT, "type")
        elem = rs[1].ty
        fty = rs[2].ty
        ok = (isinstance(fty, TArrow) and mult_equiv(fty.mult, ONE)
              and type_equiv(fty.dom, TMArray(elem))
              and isinstance(fty.cod, TData) and fty.cod.name == "Unrestricted"
              and len(fty.cod.type_args) == 1 and not fty.cod.mult_args)
        if not ok:
            raise _fail(Kind.TYPE_MISMATCH,
                        f"argument 3 of 'newMArray' has type "
                        f"'{show_type(fty)}' but a continuation "
                        f"'MArray {show_type(elem, 2)} ->[1] Unrestricted b' "
                        f"is required", t.loc)
        _expect_decl(env, "Unrestricted", 0, 1, "primitive 'newMArray'", t.loc)
        return fty.cod
    if name == "write":
        arr_ty = rs[0].ty
        if not isinstance(arr_ty, TMArray):
            raise _fail(Kind.TYPE_MISMATCH,
                        f"argument 1 of 'write' has type "
                        f"'{show_type(arr_ty)}' but a mutable array is "
                        f"required", t.loc)
        _want_arg(t, rs, 1, INT, "type")
        _want_arg(t, rs, 2, arr_ty.elem, "the element type")
        return arr_ty
    if name == "freeze":
        arr_ty = rs[0].ty
        if not isinstance(arr_ty, TMArray):
            raise _fail(Kind.TYPE_MISMATCH,
                        f"argument 1 of 'freeze' has type "
                        f"'{show_type(arr_ty)}' but a mutable array is "
                        f"required", t.loc)
        _expect_decl(env, "Unrestricted", 0, 1, "primitive 'freeze'", t.loc)
        return TData("Unrestricted", (), (TArray(arr_ty.elem),))
    if name == "index":
        arr_ty = rs[0].ty
        if not isinstance(arr_ty, TArray):
            raise _fail(Kind.TYPE_MISMATCH,
                        f"argument 1 of 'index' has type "
                        f"'{show_type(arr_ty)}' but a frozen array is "
                        f"required", t.loc)
        _want_arg(t, rs, 1, INT, "type")
        return arr_ty.elem
    raise AssertionError(name)


# ---------------------------------------------------------------------------
# Declarations and whole programs

def check_datadecl(d: DataDecl, decls: dict[str, DataDecl] | None = None
                   ) -> None:
    errs: list[Diagnostic] = []
    params = list(d.mult_params) + list(d.type_params)
    if len(set(params)) != len(params):
        errs.append(Diagnostic(Kind.MALFORMED_DECL,
                               f"duplicate parameter in datatype '{d.name}'",
                               d.loc))
    con_names = [c.name for c in d.constructors]
    if len(set(con_names)) != len(con_names):
        errs.append(Diagnostic(Kind.MALFORMED_DECL,
                               f"duplicate constructor in datatype "
                               f"'{d.name}'", d.loc))
    table = dict(decls) if decls else {}
    table.setdefault(d.name, d)
    env = TypeEnv(table, {}, {}, frozenset())
    tvars = frozenset(d.type_params)
    mvars = frozenset(d.mult_params)
    for c in d.constructors:
        for fty, fmult in c.fields:
            extra = mult_vars(fmult) - mvars
            if extra:
                errs.append(Diagnostic(
                    Kind.MALFORMED_DECL,
                    f"field multiplicity of '{c.name}' mentions "
                    f"'{sorted(extra)[0]}' which is not a parameter of "
                    f"'{d.name}'", c.loc or d.loc))
            try:
                check_type(env, fty, tvars=tvars, mvars=mvars,
                           loc=c.loc or d.loc)
            except CheckError as exc:
                errs.extend(exc.diagnostics)
    if errs:
        raise CheckError(errs)


@dataclass
class CheckedProgram:
    term: Term  # the parsed program, defs elaborated as lets, annotated
    ty: Type
    env: TypeEnv


Defs = list[tuple[str, Type, MultExpr, Term]]


def def_groups(defs: Defs) -> list[Defs]:
    """Consecutive w definitions form one (mutually recursive) group; any
    other definition is a non-recursive group of its own."""
    groups: list[Defs] = []
    for d in defs:
        if groups and is_omega_mult(d[2]) and is_omega_mult(groups[-1][0][2]):
            groups[-1].append(d)
        else:
            groups.append([d])
    return groups


def elaborate_defs(defs: Defs, main: Term) -> Term:
    """Wrap ``main`` in nested lets, one per group of ``def_groups``."""
    term = main
    for group in reversed(def_groups(defs)):
        binds = tuple(LetBind(n, ty, rhs, loc=rhs.loc)
                      for n, ty, _, rhs in group)
        term = Let(mult=group[0][2], binds=binds, body=term,
                   loc=binds[0].loc)
    return term


def check_program(decls: list[DataDecl], defs: Defs,
                  main: Term) -> CheckedProgram:
    errs: list[Diagnostic] = []
    seen_types: set[str] = set(BUILTIN_TYPE_NAMES)
    seen_cons: set[str] = set()
    for d in decls:
        if d.name in seen_types:
            errs.append(Diagnostic(Kind.MALFORMED_DECL,
                                   f"datatype '{d.name}' is declared twice "
                                   f"or shadows a builtin", d.loc))
        seen_types.add(d.name)
        for c in d.constructors:
            if c.name in seen_cons:
                errs.append(Diagnostic(Kind.MALFORMED_DECL,
                                       f"constructor '{c.name}' is declared "
                                       f"twice", c.loc or d.loc))
            seen_cons.add(c.name)
    table = {d.name: d for d in decls}
    for d in decls:
        try:
            check_datadecl(d, table)
        except CheckError as exc:
            errs.extend(exc.diagnostics)
    if errs:
        raise CheckError(errs)

    env = TypeEnv.from_decls(decls)
    def_names = [name for name, *_ in defs]
    if len(set(def_names)) != len(def_names):
        dup = next(n for n in def_names if def_names.count(n) > 1)
        second = [rhs for n, _, _, rhs in defs if n == dup][1]
        raise CheckError.single(Kind.MALFORMED_DECL,
                                f"definition '{dup}' appears twice",
                                second.loc)

    term = elaborate_defs(defs, main)
    try:
        result = annotate(env, term)
    except CheckError as exc:
        raise CheckError(_probe_defs(env, defs) or exc.diagnostics) from None
    leftover = {x for x, u in result.usage.items() if u is not ZERO}
    assert not leftover, f"closed program with residual usage: {leftover}"
    return CheckedProgram(term, result.ty, env)


def _probe_defs(env: TypeEnv, defs: Defs) -> list[Diagnostic]:
    """For a rejected program: check every definition body against its
    declared type under the bindings visible at that point, so that one
    error per definition is reported, not only the first.  This is what the
    Let rule checks on each right-hand side, so an accepted program needs
    no probe; and the definitions come before ``main`` and before every
    usage check, so when the probe finds an error, the whole program's
    first error is one of these."""
    errs: list[Diagnostic] = []
    for group in def_groups(defs):
        rhs_env = env
        if is_omega_mult(group[0][2]):
            rhs_env = env.bind_vars([(n, t_, OMEGA) for n, t_, _, _ in group])
        for n, t_, _, grhs in group:
            try:
                check_type(env, t_, loc=grhs.loc)
                r = infer(rhs_env, grhs)
                if not type_equiv(r.ty, t_):
                    errs.append(Diagnostic(
                        Kind.TYPE_MISMATCH,
                        f"definition '{n}' declares type '{show_type(t_)}' "
                        f"but its body has type '{show_type(r.ty)}'",
                        grhs.loc))
            except CheckError as exc:
                errs.extend(exc.diagnostics)
        env = env.bind_vars([(n, t_, gm) for n, t_, gm, _ in group])
    return errs


# ---------------------------------------------------------------------------
# Annotation

@dataclass
class _Recorder(InferMemo):
    """The memo of ``annotate``: it never hits, and keeps each node that
    ``infer`` types with its type, under multiplicity binders too, in the
    order ``infer`` finishes them: subterms first."""
    typed: list[tuple[Term, Type]] = field(default_factory=list)

    def hit(self, env: TypeEnv, t: Term) -> None:
        return None

    def record(self, env: TypeEnv, t: Term, r: InferResult) -> None:
        self.typed.append((t, r.ty))


def annotate(env: TypeEnv, t: Term) -> InferResult:
    """``infer`` on ``t``; once ``t`` is accepted, its types are written
    into ``t`` itself: ``ty`` on every node, and the arrow multiplicity of
    its function as every application's ``mult_ann``, which the sharing
    translation reads.  A rejected ``t`` is left as it was."""
    recorder = _Recorder()
    result = infer(replace(env, memo=recorder), t)
    for node, ty in recorder.typed:  # ``fun.ty`` is set before its ``App``
        node.ty = ty
        if type(node) is App:
            node.mult_ann = node.fun.ty.mult
    return result


# ---------------------------------------------------------------------------
# Annotation helpers for tests

def strip_annotations(t: Term) -> Term:
    """``t`` without the typechecker's ``ty`` and ``mult_ann`` fields."""
    changes = {"mult_ann": None} if isinstance(t, App) else {}
    t = t._with(ty=None, **changes)
    return with_children(t, [strip_annotations(k) for k in children(t)])


def annotations_equal(a: Term, b: Term) -> bool:
    """Do two structurally equal terms carry identical annotations?"""
    subs_a, subs_b = list(subterms(a)), list(subterms(b))
    if len(subs_a) != len(subs_b):
        return False
    for x, y in zip(subs_a, subs_b):
        if (x.ty is None) != (y.ty is None):
            return False
        if x.ty is not None and not type_equiv(x.ty, y.ty):
            return False
        if isinstance(x, App) and isinstance(y, App):
            if (x.mult_ann is None) != (y.mult_ann is None):
                return False
            if x.mult_ann is not None and not mult_equiv(x.mult_ann, y.mult_ann):
                return False
    return True
