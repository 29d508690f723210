"""Big-step call-by-value interpreter over the computational plans.

Collections are built in declaration order by running their species'
creation plan: each method generator is instantiated with the values of the
computational arguments its plan records, so redefinitions picked up by late
binding flow into every collection automatically.  The plans decide which
lifts and arguments are logical; nothing here decides it again.  Evaluation is pure and
counts steps; runaway recursion stops at a configurable limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    BinOp,
    BoolLit,
    Call,
    ConRef,
    Eq,
    Expr,
    If,
    IntLit,
    Match,
    PCon,
    PTuple,
    PVar,
    PWild,
    Pattern,
    Qual,
    StrLit,
    TupleExpr,
    UnOp,
    Var,
    flatten_arrow,
)
from .basics import BUILTIN_FUNCTIONS
from .errors import EVAL, STEP_LIMIT, EvalFailure

STEP_LIMIT_DEFAULT = 1_000_000


@dataclass(frozen=True)
class VCon:
    name: str
    args: tuple = ()


@dataclass
class Closure:
    params: list[str]
    body: Expr
    scope: "Scope"


@dataclass(frozen=True)
class BuiltinFn:
    name: str


Value = object


@dataclass
class Scope:
    vars: dict[str, Value] = field(default_factory=dict)
    quals: dict[tuple[str, str], Value] = field(default_factory=dict)

    def child(self, extra: dict[str, Value]) -> "Scope":
        out = Scope(dict(self.vars), self.quals)
        out.vars.update(extra)
        return out


class Interpreter:
    """Evaluates expressions against the collections of one compiled unit."""

    def __init__(self, cu, step_limit: int = STEP_LIMIT_DEFAULT):
        self.cu = cu
        self.step_limit = step_limit
        self.steps = 0
        self.collections: dict[str, dict[str, Value]] = {}
        for kind, name in cu.decl_order:
            if kind == "collection":
                self._build_collection(name)

    # -- construction ------------------------------------------------------

    def _build_collection(self, name: str) -> None:
        ext = self.cu.extractions[name]
        args = [self._atom(a, Scope(), {}) for a in ext.comp_args]
        record = self._create(ext.species, args)
        self.collections[name] = {
            m: record[m] for m, logical in ext.methods if not logical
        }

    def _create(self, species: str, args: list[Value]) -> dict[str, Value]:
        nf = self.cu.species[species]
        plan = self.cu.plans[species].create
        assert plan is not None
        scope = Scope()
        kept = [l for l in plan.outer if not l.logical]
        if len(kept) != len(args):
            raise EvalFailure(
                EVAL,
                f"{species} needs {len(kept)} effective argument(s), "
                f"got {len(args)}",
            )
        for l, v in zip(kept, args):
            self._bind_lift(l.tag, v, scope)
        locals_: dict[str, Value] = {}
        for ld in plan.locals:
            if ld.gen is None or nf.methods[ld.name].is_logical:
                continue
            gp = self.cu.plans[ld.gen.species].generators[ld.gen.method]
            vals = [self._atom(a, scope, locals_) for a in ld.gen.comp_args]
            locals_[ld.name] = self._instantiate(gp, vals)
        return locals_

    def _bind_lift(self, tag, value: Value, scope: Scope) -> None:
        match tag:
            case ("param_method", p, m):
                scope.quals[(p, m)] = value
            case ("param_entity", v):
                scope.vars[v] = value
            case ("self_method", m):
                scope.vars[m] = value
            case _:
                raise EvalFailure(EVAL, f"cannot bind argument {tag!r}")

    def _instantiate(self, gp, vals: list[Value]) -> Value:
        scope = Scope()
        kept = [l for l in gp.lifts if l.abstract and not l.logical]
        assert len(kept) == len(vals)
        for l, v in zip(kept, vals):
            self._bind_lift(l.tag, v, scope)
        if not gp.value_params:
            return self.eval(gp.body, scope)
        closure = Closure([n for n, _ in gp.value_params], gp.body, scope)
        if gp.rec:
            scope.vars[gp.method] = closure
        return closure

    def _atom(self, a, scope: Scope, locals_: dict[str, Value]) -> Value:
        match a:
            case ("param_method", p, m):
                return scope.quals[(p, m)]
            case ("entity_expr", e):
                return self.eval(e, scope)
            case ("self_method", m):
                return locals_[m]
            case ("coll_method", c, m):
                return self.collections[c][m]
            case _:
                raise EvalFailure(EVAL, f"cannot evaluate argument {a!r}")

    # -- evaluation --------------------------------------------------------

    def eval(self, e: Expr, scope: Scope) -> Value:
        self.steps += 1
        if self.steps > self.step_limit:
            raise EvalFailure(
                STEP_LIMIT, f"step limit of {self.step_limit} exceeded"
            )
        match e:
            case IntLit(v):
                return v
            case BoolLit(v):
                return v
            case StrLit(v):
                return v
            case Var(name):
                if name in scope.vars:
                    return scope.vars[name]
                if name in BUILTIN_FUNCTIONS:
                    return BuiltinFn(name)
                raise EvalFailure(EVAL, f"unbound name {name}")
            case Qual(coll, name):
                if (coll, name) in scope.quals:
                    return scope.quals[(coll, name)]
                methods = self.collections.get(coll)
                if methods is None:
                    raise EvalFailure(EVAL, f"unknown collection {coll}")
                if name not in methods:
                    raise EvalFailure(EVAL, f"{coll} has no method {name}")
                return methods[name]
            case ConRef(name, args):
                return VCon(name, tuple(self.eval(a, scope) for a in args))
            case Call(callee, args):
                f = self.eval(callee, scope)
                return self.apply(f, [self.eval(a, scope) for a in args])
            case TupleExpr(items):
                return tuple(self.eval(i, scope) for i in items)
            case UnOp(op, operand):
                return self._builtin(op, [self.eval(operand, scope)])
            case BinOp(op, left, right):
                return self._builtin(
                    op, [self.eval(left, scope), self.eval(right, scope)]
                )
            case Eq(left, right):
                return self._builtin(
                    "=", [self.eval(left, scope), self.eval(right, scope)]
                )
            case If(cond, then, orelse):
                c = self.eval(cond, scope)
                if not isinstance(c, bool):
                    raise EvalFailure(EVAL, "condition is not a boolean")
                return self.eval(then if c else orelse, scope)
            case Match(scrutinee, arms):
                v = self.eval(scrutinee, scope)
                for pat, body in arms:
                    bound: dict[str, Value] = {}
                    if _match(pat, v, bound):
                        return self.eval(body, scope.child(bound))
                raise EvalFailure(EVAL, "no pattern matched the value")
            case _:
                raise EvalFailure(EVAL, f"cannot evaluate {type(e).__name__}")

    def apply(self, f: Value, args: list[Value]) -> Value:
        while args:
            if isinstance(f, Closure):
                n = len(f.params)
                if len(args) < n:
                    partial = dict(zip(f.params, args))
                    return Closure(
                        f.params[len(args):], f.body, f.scope.child(partial)
                    )
                bound = dict(zip(f.params, args[:n]))
                f, args = self.eval(f.body, f.scope.child(bound)), args[n:]
            elif isinstance(f, BuiltinFn):
                b = BUILTIN_FUNCTIONS[f.name]
                arity = len(flatten_arrow(b.scheme.body)) - 1
                if len(args) < arity:
                    raise EvalFailure(
                        EVAL, f"partial application of builtin {f.name}"
                    )
                f, args = self._builtin(f.name, args[:arity]), args[arity:]
            else:
                raise EvalFailure(EVAL, "value is not a function")
        return f

    def _builtin(self, name: str, args: list[Value]) -> Value:
        def ints() -> tuple[int, int]:
            a, b = args
            if isinstance(a, bool) or isinstance(b, bool):
                raise EvalFailure(EVAL, f"{name} expects integers")
            if not isinstance(a, int) or not isinstance(b, int):
                raise EvalFailure(EVAL, f"{name} expects integers")
            return a, b

        match name:
            case "+":
                a, b = ints()
                return a + b
            case "-":
                a, b = ints()
                return a - b
            case "<0x":
                a, b = ints()
                return a < b
            case "=0x":
                a, b = ints()
                return a == b
            case "&&":
                a, b = args
                if not isinstance(a, bool) or not isinstance(b, bool):
                    raise EvalFailure(EVAL, "&& expects booleans")
                return a and b
            case "~~":
                (a,) = args
                if not isinstance(a, bool):
                    raise EvalFailure(EVAL, "~~ expects a boolean")
                return not a
            case "=":
                a, b = args
                return a == b
            case "fst" | "snd":
                (t,) = args
                if not isinstance(t, tuple) or len(t) != 2:
                    raise EvalFailure(EVAL, f"{name} expects a pair")
                return t[0] if name == "fst" else t[1]
            case _:
                raise EvalFailure(EVAL, f"unknown builtin {name}")


def _match(p: Pattern, v: Value, bound: dict[str, Value]) -> bool:
    match p:
        case PWild():
            return True
        case PVar(name):
            bound[name] = v
            return True
        case PCon(name, args):
            if not isinstance(v, VCon) or v.name != name:
                return False
            if len(args) != len(v.args):
                return False
            return all(_match(a, w, bound) for a, w in zip(args, v.args))
        case PTuple(items):
            if not isinstance(v, tuple) or len(v) != len(items):
                return False
            return all(_match(i, w, bound) for i, w in zip(items, v))
        case _:
            return False


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, tuple):
        return "(" + ", ".join(format_value(i) for i in v) + ")"
    if isinstance(v, VCon):
        if not v.args:
            return v.name
        return f"{v.name} (" + ", ".join(format_value(a) for a in v.args) + ")"
    return "<fun>"


def eval_call(cu, source: str, step_limit: int = STEP_LIMIT_DEFAULT) -> str:
    """Parse and evaluate a call expression against a compiled unit."""
    from .parser import parse_expr_text

    expr = parse_expr_text(source)
    interp = Interpreter(cu, step_limit)
    try:
        return format_value(interp.eval(expr, Scope()))
    except RecursionError:
        raise EvalFailure(
            STEP_LIMIT, "evaluation recursed too deeply"
        ) from None
