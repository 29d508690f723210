"""Method typing: Hindley-Milner inference with a two-mode treatment of Self.

Inside a species the carrier type `Self` is a distinct type constant.  In
*body* mode (function bodies, proof-step expressions) `Self` may additionally
be expanded to the representation's definition when one exists; doing so is
recorded, because it is exactly what makes a method def-depend on the
carrier.  In *statement* mode `Self` stays rigid: a property or theorem
statement that forces `Self` against a concrete type is an abstraction leak
and is rejected.

A method has one type, as in FoCaLiZe: a let whose inferred type keeps a
variable is rejected (`Unifier.monotype`).  Only a builtin's scheme has
type holes, filled afresh at each use.
"""

from __future__ import annotations

from itertools import count

from .ast import (
    NOPOS,
    Pos,
    Record,
    Scheme,
    TArrow,
    TCollCarrier,
    TCon,
    TGen,
    TParam,
    TSelf,
    TTuple,
    TVar,
    Type,
    T_BOOL,
    T_INT,
    T_STRING,
    arrow,
    same,
    type_map,
    type_walk,
    BinOp,
    BoolLit,
    Call,
    ConRef,
    Connective,
    Eq,
    Expr,
    If,
    IntLit,
    Match,
    Not,
    PCon,
    PTuple,
    PVar,
    PWild,
    Pattern,
    Quant,
    Qual,
    StrLit,
    TupleExpr,
    UnOp,
    Var,
    MethodDecl,
    ProofLeaf,
    ProofSteps,
    Proof,
)
from .basics import BUILTIN_FUNCTIONS
from .errors import (
    CARRIER_LEAK,
    DUPLICATE,
    PROOF,
    TYPE_MISMATCH,
    UNKNOWN,
    CompileError,
)
from .resolve import BUILTIN, ENTITY, LOCAL, PARAM


class Unifier:
    """Unification state for one method (or one proof tree).

    mode='body' lets Self expand to the representation; mode='statement'
    keeps Self rigid and reports expansion attempts as carrier leaks.
    """

    def __init__(self, rep: Type | None = None, mode: str = "body"):
        assert mode in ("body", "statement")
        self.rep = rep
        self.mode = mode
        self.subst: dict[int, Type] = {}
        self.used_rep = False
        self.touched_self = False
        self._fresh = count()

    def fresh(self) -> TVar:
        return TVar(next(self._fresh) + 1_000_000)

    def resolve(self, t: Type) -> Type:
        while isinstance(t, TVar) and t.uid in self.subst:
            t = self.subst[t.uid]
        return t

    def shown(self, *ts: Type) -> list[str]:
        """`ts` in full for a message, with inference variables numbered
        '_1, '_2, ... by appearance, however many the checker made."""
        from .pretty import type_to_source

        seen: dict[int, TVar] = {}
        number = lambda n: seen.setdefault(n.uid, TVar(len(seen) + 1)) if isinstance(n, TVar) else n
        return [type_to_source(type_map(self.deep(t), number)) for t in ts]

    def deep(self, t: Type) -> Type:
        t = self.resolve(t)
        match t:
            case TArrow(a, r):
                return TArrow(self.deep(a), self.deep(r))
            case TTuple(items):
                return TTuple(tuple([self.deep(i) for i in items]))
            case _:
                return t

    def instantiate(self, scheme: Scheme) -> Type:
        if scheme.count == 0:
            return scheme.body
        fresh = [self.fresh() for _ in range(scheme.count)]
        return type_map(
            scheme.body, lambda n: fresh[n.idx] if isinstance(n, TGen) else n
        )

    def _occurs(self, uid: int, t: Type) -> bool:
        todo = [t]
        while todo:
            t = self.resolve(todo.pop())
            if isinstance(t, TVar) and t.uid == uid:
                return True
            todo += (t.arg, t.res) if isinstance(t, TArrow) else t.items if isinstance(t, TTuple) else ()
        return False

    def unify(self, a: Type, b: Type, pos: Pos = NOPOS) -> None:
        subst = self.subst
        while type(a) is TVar and a.uid in subst:
            a = subst[a.uid]
        while type(b) is TVar and b.uid in subst:
            b = subst[b.uid]
        if a is b or (type(a) is type(b) and same(a, b)):
            if isinstance(a, TSelf):
                self.touched_self = True
            return
        if isinstance(a, TVar):
            if self._occurs(a.uid, b):
                raise CompileError(TYPE_MISMATCH, "infinite type", pos)
            self.subst[a.uid] = b
            return
        if isinstance(b, TVar):
            return self.unify(b, a, pos)
        if isinstance(a, TSelf) or isinstance(b, TSelf):
            self.touched_self = True
            other = b if isinstance(a, TSelf) else a
            if self.mode == "statement":
                raise CompileError(
                    CARRIER_LEAK,
                    f"statement constrains Self to {self.shown(other)[0]}",
                    pos,
                )
            if self.rep is None:
                raise CompileError(
                    TYPE_MISMATCH,
                    f"cannot unify Self with {self.shown(other)[0]}",
                    pos,
                )
            self.used_rep = True
            return self.unify(self.rep, other, pos)
        match a, b:
            case TArrow(a1, r1), TArrow(a2, r2):
                self.unify(a1, a2, pos)
                return self.unify(r1, r2, pos)
            case TTuple(i1), TTuple(i2) if len(i1) == len(i2):
                for x, y in zip(i1, i2):
                    self.unify(x, y, pos)
                return
            case _:
                left, right = self.shown(a, b)
                message = f"cannot unify {left} with {right}"
                raise CompileError(TYPE_MISMATCH, message + _told_apart(left, right, a, b, self), pos)

    def monotype(self, t: Type, name: str, pos: Pos) -> Type:
        """`t` in full, the type of the method `name`, which may keep no
        variable."""
        t = self.deep(t)
        for node in type_walk(t):
            if type(node) is TVar:
                message = f"the type of {name} is not determined: {self.shown(t)[0]}; annotate it"
                raise CompileError(TYPE_MISMATCH, message, pos)
        return t


def _told_apart(left: str, right: str, a: Type, b: Type, uni: Unifier) -> str:
    """Where `a` and `b` print alike, as `left` and `right`, the carriers
    that tell them apart: a parameter's carrier and a collection's."""
    if left != right:
        return ""
    return f" ({_carriers(uni.deep(a))} against {_carriers(uni.deep(b))})"


def _carriers(t: Type) -> str:
    """The carriers `t` mentions, which its printed form does not tell
    apart: a parameter's `P` and a collection's `P` both print as `P`."""
    named: list[str] = []
    for n in type_walk(t):
        if isinstance(n, (TParam, TCollCarrier)):
            kind = "parameter" if isinstance(n, TParam) else "collection"
            text = f"{kind} {n.name}'s carrier"
            if text not in named:
                named.append(text)
    return ", ".join(named)


class SpeciesTypeEnv(Record):
    """Everything visible to expressions inside one species."""

    def __init__(
        self,
        rep: Type | None = None,
        methods: dict[str, Scheme] | None = None,
        entity_params: dict[str, Type] | None = None,
        param_ifaces: dict[str, dict[str, Scheme]] | None = None,
        collections: dict[str, dict[str, Scheme]] | None = None,
        constructors: dict[str, tuple[str, list[Type]]] | None = None,
    ):
        self.rep = rep
        self.methods = {} if methods is None else methods
        self.entity_params = {} if entity_params is None else entity_params
        self.param_ifaces = {} if param_ifaces is None else param_ifaces
        self.collections = {} if collections is None else collections
        self.constructors = {} if constructors is None else constructors


def infer_expr(
    e: Expr, locals_: dict[str, Type], env: SpeciesTypeEnv, uni: Unifier
) -> Type:
    # dispatch on the exact class, the frequent kinds first
    kind = type(e)
    if kind is Var:
        name, ref = e.name, e.ref
        if ref == LOCAL:
            return locals_[name]
        if ref == ENTITY:
            return env.entity_params[name]
        if ref == BUILTIN:
            return uni.instantiate(BUILTIN_FUNCTIONS[name].scheme)
        if name not in env.methods:  # a property, or itself
            raise CompileError(UNKNOWN, f"unknown name {name}", e.pos)
        return uni.instantiate(env.methods[name])
    if kind is BinOp:
        sig = uni.instantiate(BUILTIN_FUNCTIONS[e.op].scheme)
        tl = infer_expr(e.left, locals_, env, uni)
        tr = infer_expr(e.right, locals_, env, uni)
        return _applied(sig, [tl, tr], e.pos, uni)
    if kind is IntLit:
        return T_INT
    if kind is Call:
        tc = infer_expr(e.callee, locals_, env, uni)
        tas = [infer_expr(a, locals_, env, uni) for a in e.args]
        return _applied(tc, tas, e.pos, uni)
    if kind is Qual:
        coll, name = e.coll, e.name
        iface = (env.param_ifaces if e.ref == PARAM else env.collections)[coll]
        if name not in iface:
            raise CompileError(UNKNOWN, f"{coll} has no method {name}", e.pos)
        return uni.instantiate(iface[name])
    if kind is If:
        cond = e.cond
        uni.unify(infer_expr(cond, locals_, env, uni), T_BOOL, cond.pos)
        tt = infer_expr(e.then, locals_, env, uni)
        to = infer_expr(e.orelse, locals_, env, uni)
        uni.unify(tt, to, e.pos)
        return tt
    if kind is Eq:
        tl = infer_expr(e.left, locals_, env, uni)
        tr = infer_expr(e.right, locals_, env, uni)
        uni.unify(tl, tr, e.pos)
        return T_BOOL
    if kind is BoolLit:
        return T_BOOL
    if kind is StrLit:
        return T_STRING
    if kind is ConRef:
        name, args = e.name, e.args
        if name not in env.constructors:
            raise CompileError(UNKNOWN, f"unknown constructor {name}", e.pos)
        union, argtys = env.constructors[name]
        if len(args) != len(argtys):
            raise CompileError(
                TYPE_MISMATCH,
                f"constructor {name} expects {len(argtys)} argument(s), "
                f"got {len(args)}",
                e.pos,
            )
        for a, ty in zip(args, argtys):
            uni.unify(infer_expr(a, locals_, env, uni), ty, a.pos)
        return TCon(union)
    if kind is UnOp:
        sig = uni.instantiate(BUILTIN_FUNCTIONS[e.op].scheme)
        t = infer_expr(e.operand, locals_, env, uni)
        return _applied(sig, [t], e.pos, uni)
    if kind is TupleExpr:
        return TTuple(tuple([infer_expr(i, locals_, env, uni) for i in e.items]))
    if kind is Match:
        ts = infer_expr(e.scrutinee, locals_, env, uni)
        result = uni.fresh()
        for pat, body in e.arms:
            binds = type_pattern(pat, ts, env, uni)
            tb = infer_expr(body, {**locals_, **binds}, env, uni)
            uni.unify(tb, result, body.pos)
        return result
    if kind is Quant or kind is Connective or kind is Not:
        raise CompileError(TYPE_MISMATCH, "formula in function body", e.pos)
    raise CompileError(TYPE_MISMATCH, "unsupported expression", e.pos)


def _applied(tc: Type, tas: list[Type], pos: Pos, uni: Unifier) -> Type:
    """The result of applying a `tc` to arguments of types `tas`: the
    unifications of `unify(tc, arrow(*tas, fresh))`, in its order, with no
    arrow built while `tc` resolves to one."""
    subst = uni.subst
    for i, ta in enumerate(tas):
        while type(tc) is TVar and tc.uid in subst:
            tc = subst[tc.uid]
        if type(tc) is not TArrow:  # a variable, Self, or too many arguments
            ret = uni.fresh()
            uni.unify(tc, arrow(*tas[i:], ret), pos)
            return ret
        uni.unify(tc.arg, ta, pos)
        tc = tc.res
    return tc


def type_pattern(
    p: Pattern, scrutinee: Type, env: SpeciesTypeEnv, uni: Unifier
) -> dict[str, Type]:
    match p:
        case PWild():
            return {}
        case PVar(name):
            return {name: scrutinee}
        case PCon(name, args):
            if name not in env.constructors:
                raise CompileError(UNKNOWN, f"unknown constructor {name}", p.pos)
            union, argtys = env.constructors[name]
            if len(args) != len(argtys):
                raise CompileError(
                    TYPE_MISMATCH,
                    f"constructor {name} expects {len(argtys)} argument(s), "
                    f"got {len(args)}",
                    p.pos,
                )
            uni.unify(scrutinee, TCon(union), p.pos)
            parts = zip(args, argtys)
        case PTuple(items):
            holes = [uni.fresh() for _ in items]
            uni.unify(scrutinee, TTuple(tuple(holes)), p.pos)
            parts = zip(items, holes)
        case _:
            raise CompileError(TYPE_MISMATCH, "unsupported pattern", p.pos)
    binds: dict[str, Type] = {}
    for sub, ty in parts:
        for k, v in type_pattern(sub, ty, env, uni).items():
            if k in binds:
                raise CompileError(DUPLICATE, f"duplicate pattern variable {k}", sub.pos)
            binds[k] = v
    return binds


def infer_formula(
    e: Expr, locals_: dict[str, Type], env: SpeciesTypeEnv, uni: Unifier
) -> None:
    """Check a first-order statement. Atoms are bool expressions or `=`."""
    match e:
        case Quant(_, vars_, ty, body):
            infer_formula(body, {**locals_, **{v: ty for v in vars_}}, env, uni)
        case Connective(_, left, right):
            infer_formula(left, locals_, env, uni)
            infer_formula(right, locals_, env, uni)
        case Not(operand):
            infer_formula(operand, locals_, env, uni)
        case _:  # an atom; `infer_expr` unifies the sides of an `=`
            try:
                uni.unify(infer_expr(e, locals_, env, uni), T_BOOL, e.pos)
            except CompileError as err:
                if err.kind == CARRIER_LEAK and not err.witness:
                    from .pretty import expr_to_source

                    err.witness = [expr_to_source(e)]
                raise


class LetTyping(Record):
    def __init__(
        self,
        scheme: Scheme,
        param_types: list[Type],
        ret_type: Type,
        used_rep: bool,
        touched_self: bool,
    ):
        self.scheme = scheme
        self.param_types = param_types
        self.ret_type = ret_type
        self.used_rep = used_rep
        self.touched_self = touched_self


def type_let(
    m: MethodDecl, stored: Scheme | None, env: SpeciesTypeEnv
) -> LetTyping:
    """Infer a let body; check against the stored type when inherited."""
    uni = Unifier(rep=env.rep, mode="body")
    ptys: list[Type] = []
    locals_: dict[str, Type] = {}
    for name, annot in m.params:
        t: Type = uni.fresh() if annot is None else annot
        ptys.append(t)
        locals_[name] = t
    ret: Type = uni.fresh() if m.ret is None else m.ret
    if m.rec:  # a parameter of the same name shadows the function
        locals_ = {m.name: arrow(*ptys, ret), **locals_}
    assert m.body is not None
    tbody = infer_expr(m.body, locals_, env, uni)
    uni.unify(tbody, ret, m.body.pos)
    full = arrow(*ptys, ret)
    if stored is not None:
        try:
            uni.unify(full, stored.body, m.pos)
        except CompileError as err:
            if err.kind == TYPE_MISMATCH:
                from .pretty import type_to_source

                left, right = uni.shown(full)[0], type_to_source(stored.body)
                raise CompileError(
                    TYPE_MISMATCH,
                    f"redefinition of {m.name} changes its type: {left} vs {right}"
                    + _told_apart(left, right, full, stored.body, uni),
                    m.pos,
                ) from None
            raise
        scheme = stored
    else:
        scheme = Scheme(0, uni.monotype(full, m.name, m.pos))
    n = len(m.params)
    shown_args, shown_ret = _split_arrows(scheme.body, n)
    return LetTyping(
        scheme=scheme,
        param_types=shown_args,
        ret_type=shown_ret,
        used_rep=uni.used_rep,
        touched_self=uni.touched_self,
    )


def _split_arrows(t: Type, n: int) -> tuple[list[Type], Type]:
    args: list[Type] = []
    for _ in range(n):
        assert isinstance(t, TArrow)
        args.append(t.arg)
        t = t.res
    return args, t


class StatementTyping(Record):
    def __init__(self, touched_self: bool):
        self.touched_self = touched_self


def check_statement(stmt: Expr, env: SpeciesTypeEnv) -> StatementTyping:
    """Statement-mode check: Self stays rigid; leaks raise WrongCarrierLeak."""
    uni = Unifier(rep=None, mode="statement")
    infer_formula(stmt, {}, env, uni)
    return StatementTyping(touched_self=uni.touched_self)


class ProofTyping(Record):
    def __init__(self, used_rep: bool, touched_self: bool):
        self.used_rep = used_rep
        self.touched_self = touched_self


def check_proof(proof: Proof, env: SpeciesTypeEnv) -> ProofTyping:
    """Type every hypothesis and goal in body mode; track representation use.

    Also validates positional fact references: `by hypothesis h` must name a
    hypothesis introduced by an enclosing step.
    """
    uni = Unifier(rep=env.rep, mode="body")

    def walk(p: Proof, locals_: dict[str, Type], hyps: set[str]) -> None:
        match p:
            case ProofLeaf(facts, _):
                for f in facts:
                    if f.kind == "hypothesis":
                        for name in f.names:
                            if name not in hyps:
                                raise CompileError(
                                    PROOF, f"unknown hypothesis {name}", f.pos
                                )
            case ProofSteps(steps):
                for step in steps:
                    inner = dict(locals_)
                    inner_hyps = set(hyps)
                    for names, ty in step.assumes:
                        for v in names:
                            inner[v] = ty
                    for hname, stmt in step.hyps:
                        infer_formula(stmt, inner, env, uni)
                        inner_hyps.add(hname)
                    if step.goal is not None:
                        infer_formula(step.goal, inner, env, uni)
                    if step.sub is not None:
                        walk(step.sub, inner, inner_hyps)

    walk(proof, {}, set())
    del walk  # as in `hierarchy.subst_expr`
    return ProofTyping(used_rep=uni.used_rep, touched_self=uni.touched_self)
