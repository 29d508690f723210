"""Call-by-value evaluator over the computational plans, compiled to closures.

Collections are built in declaration order by running their species'
creation plan: each method generator is instantiated with the values of the
computational arguments its plan records, so redefinitions picked up by late
binding flow into every collection automatically.  The plans decide which
lifts and arguments are logical; nothing here decides it again.

Expressions are compiled into Python closures (Feeley and Lapalme, "Using
closures for code generation", 1987).  A compiled expression takes the
frame of the call it runs in: a list holding the generator's lifted
arguments, the generator itself when it is recursive, its parameters and
then the variables its patterns bind, each at a slot fixed when it is
compiled.  An interpreter compiles each generator body once, the first
time it runs.  A call in tail position (the body itself, or a branch of
an `if` or a `match` in it) returns a `_Tail` record instead of calling,
and `Interpreter.apply` makes these calls in a loop, so tail recursion
takes no Python stack.

Evaluation is pure and has two limits.  Each expression node evaluated
costs one step; past `step_limit` steps (1,000,000 by default) evaluation
stops with `StepLimit`.  Calls that are not in tail position nest; past
`MAX_DEPTH` (20,000) nested calls evaluation stops with `DepthLimit`.
`eval_call` runs on the deep stack (`errors.on_deep_stack`), which holds
that depth; a Python `RecursionError`, which one deeply nested expression
can still cause, is reported as `DepthLimit` too.
"""

from __future__ import annotations

import operator
from typing import Callable

from .ast import (
    BinOp,
    BoolLit,
    Call,
    ConRef,
    Eq,
    Expr,
    Frozen,
    If,
    IntLit,
    Match,
    PCon,
    PTuple,
    PVar,
    PWild,
    Pattern,
    Qual,
    Record,
    StrLit,
    TupleExpr,
    UnOp,
    Var,
    same,
)
from .basics import BUILTIN_FUNCTIONS
from .driver import plan_unit
from .errors import DEPTH_LIMIT, EVAL, STEP_LIMIT, EvalFailure, on_deep_stack
from .resolve import BUILTIN, ENTITY, PARAM, Names, resolve

STEP_LIMIT_DEFAULT = 1_000_000
MAX_DEPTH = 20_000  # nested non-tail calls

_INT_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "<0x": operator.lt,
    "=0x": operator.eq,
}


class VCon(Frozen):
    def __init__(self, name: str, args: tuple = ()):
        d = self.__dict__
        d["name"] = name
        d["args"] = args


class Code:
    """A generator body, compiled on its first run, so that a call compiles
    only the bodies it reaches."""

    __slots__ = ("run", "gp", "interp", "pad")

    def __init__(self, interp: "Interpreter", gp):
        self.run: Callable[[list], object] = self._first_run
        self.gp = gp
        self.interp = interp
        self.pad: list = []  # one None per slot its patterns bind

    def _first_run(self, frame: list) -> object:
        gp = self.gp
        slots = _layout(gp)
        comp = _Compiler(self.interp, slots)
        tail = bool(gp.value_params)
        self.run = comp.expr(gp.body, dict(comp.vars), len(slots), tail)
        self.pad = [None] * (comp.width - len(slots))
        return self.run(frame + self.pad)


class Closure:
    __slots__ = ("code", "env", "arity")

    def __init__(self, code: Code, env: list, arity: int):
        self.code = code
        self.env = env  # lifted arguments, itself if recursive, parameters given so far
        self.arity = arity  # parameters still missing

    def __eq__(self, other: object) -> bool:
        # the remaining parameters, the body and the bound names, as `=`
        # has always compared function values
        return isinstance(other, Closure) and self._view() == other._view()

    def _view(self) -> tuple:
        gp = self.code.gp
        names: dict = {}
        quals: dict = {}
        for (qual, key), v in zip(_layout(gp), self.env):
            (quals if qual else names)[key] = v
        params = [n for n, _ in gp.value_params]
        return params[len(params) - self.arity:], gp.body, names, quals


class BuiltinFn(Frozen):
    def __init__(self, name: str):
        self.__dict__["name"] = name


Value = object


class Scope(Record):
    def __init__(
        self,
        vars: dict[str, Value] | None = None,
        quals: dict[tuple[str, str], Value] | None = None,
    ):
        self.vars = {} if vars is None else vars
        self.quals = {} if quals is None else quals


class _Tail:
    """A call in tail position, left for `Interpreter.apply` to make."""

    __slots__ = ("f", "args")

    def __init__(self, f: Value, args: list[Value]):
        self.f = f
        self.args = args


def _slot(tag: Qual | Var) -> tuple[bool, object]:
    """Where a computational lift is bound: a parameter's method by its
    qualified name, an entity parameter or a method by its name."""
    if type(tag) is Qual:
        return True, (tag.coll, tag.name)
    return False, tag.name


def _layout(gp) -> list[tuple[bool, object]]:
    """The bound slots of a frame of gp's body, as (qualified?, name): its
    lifted arguments, itself if it is a recursive function, its parameters."""
    slots = [_slot(l.tag) for l in gp.lifts if l.abstract and not l.logical]
    params = [(False, n) for n, _ in gp.value_params]
    if params and gp.rec:
        slots.append((False, gp.method))
    return slots + params


class Interpreter:
    """Evaluates expressions against the collections of one compiled unit."""

    def __init__(self, cu, step_limit: int = STEP_LIMIT_DEFAULT):
        self.cu = plan_unit(cu)
        self.step_limit = step_limit
        self.steps = 0
        self.depth = 0  # nested non-tail calls under way
        self.collections: dict[str, dict[str, Value]] = {}
        self._codes: dict[tuple[str, str], Code] = {}  # by (species, method)
        for kind, name in cu.decl_order:
            if kind == "collection":
                self._build_collection(name)

    # -- construction ------------------------------------------------------

    def _build_collection(self, name: str) -> None:
        self.collections[name] = self._create(self.cu.extractions[name].create)

    def _create(self, app) -> dict[str, Value]:
        """The values of the computational locals of the creator `app`
        applies: the fields the computational record keeps, in its order."""
        plan = self.cu.plans[app.species].create
        assert plan is not None
        kept = [l for l in plan.outer if not l.logical]
        if len(kept) != len(app.comp_args):
            raise EvalFailure(
                EVAL,
                f"{app.species} needs {len(kept)} effective argument(s), "
                f"got {len(app.comp_args)}",
            )
        scope = Scope()
        for l, v in zip(kept, self._values(app.comp_args, kept, Scope(), {})):
            qual, key = _slot(l.tag)
            (scope.quals if qual else scope.vars)[key] = v
        locals_: dict[str, Value] = {}
        for ld in plan.locals:
            if ld.gen is None or ld.logical:
                continue
            gp = self.cu.plans[ld.gen.species].generators[ld.gen.method]
            lifts = [l for l in gp.lifts if l.abstract and not l.logical]
            vals = self._values(ld.gen.comp_args, lifts, scope, locals_)
            locals_[ld.name] = self._instantiate(gp, vals)
        return locals_

    def _instantiate(self, gp, vals: list[Value]) -> Value:
        code = self._codes.get((gp.species, gp.method))
        if code is None:
            code = self._codes[gp.species, gp.method] = Code(self, gp)
        if not gp.value_params:
            return code.run(vals + code.pad)
        env = list(vals)
        closure = Closure(code, env, len(gp.value_params))
        if gp.rec:
            env.append(closure)
        return closure

    def _values(self, args: list, lifts: list, scope: Scope, locals_: dict) -> list[Value]:
        """The values of the computational arguments `args` for `lifts`,
        as the callee's lift decides: an argument for an entity parameter
        is evaluated; a method's is looked up, among the creator's locals,
        its parameters' methods or a collection's."""
        out = []
        for a, l in zip(args, lifts):
            if type(l.tag) is Var and l.tag.ref == ENTITY:
                out.append(self.eval(a, scope))
            elif type(a) is Var:
                out.append(locals_[a.name])
            elif a.ref == PARAM:
                out.append(scope.quals[a.coll, a.name])
            else:
                out.append(self.collections[a.coll][a.name])
        return out

    # -- evaluation --------------------------------------------------------

    def eval(self, e: Expr, scope: Scope) -> Value:
        slots = [(False, n) for n in scope.vars]
        slots += [(True, k) for k in scope.quals]
        comp = _Compiler(self, slots)
        run = comp.expr(e, dict(comp.vars), len(slots), tail=False)
        frame = [*scope.vars.values(), *scope.quals.values()]
        return run(frame + [None] * (comp.width - len(slots)))

    def apply(self, f: Value, args: list[Value]) -> Value:
        """Apply f to args, making the tail calls of each body in a loop."""
        self.depth += 1
        try:
            if self.depth > MAX_DEPTH:
                raise EvalFailure(
                    DEPTH_LIMIT, f"depth limit of {MAX_DEPTH} nested calls exceeded"
                )
            while args:
                if type(f) is Closure:
                    n = f.arity
                    if len(args) < n:
                        return Closure(f.code, f.env + args, n - len(args))
                    code = f.code
                    r = code.run([*f.env, *args[:n], *code.pad])
                    args = args[n:]
                    if type(r) is not _Tail:
                        f = r
                    elif args:
                        f = self.apply(r.f, r.args)
                    else:
                        f, args = r.f, r.args
                elif type(f) is BuiltinFn:
                    arity = BUILTIN_FUNCTIONS[f.name].arity
                    if len(args) < arity:
                        raise EvalFailure(
                            EVAL, f"partial application of builtin {f.name}"
                        )
                    f, args = _builtin(f.name, args[:arity]), args[arity:]
                else:
                    raise EvalFailure(EVAL, "value is not a function")
            return f
        finally:
            self.depth -= 1

    def out_of_steps(self) -> EvalFailure:
        return EvalFailure(STEP_LIMIT, f"step limit of {self.step_limit} exceeded")


def _builtin(name: str, args: list[Value]) -> Value:
    op = _INT_OPS.get(name)
    if op is not None:
        a, b = args
        if type(a) is not int or type(b) is not int:
            raise EvalFailure(EVAL, f"{name} expects integers")
        return op(a, b)
    match name:
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
            return same(a, b)
        case "fst" | "snd":
            (t,) = args
            if not isinstance(t, tuple) or len(t) != 2:
                raise EvalFailure(EVAL, f"{name} expects a pair")
            return t[0] if name == "fst" else t[1]
        case _:
            raise EvalFailure(EVAL, f"unknown builtin {name}")


class _Compiler:
    """Compiles the expressions of one frame layout into closures.

    Every closure first charges its step, then evaluates its children in
    the order the language fixes: callee, then arguments left to right,
    then left before right.  `names` maps each variable in scope to its
    slot, and `top` is the first slot free for pattern variables.
    """

    def __init__(self, interp: Interpreter, slots: list[tuple[bool, object]]):
        self.interp = interp
        self.vars: dict[str, int] = {}
        self.quals: dict[tuple[str, str], int] = {}
        for i, (qual, key) in enumerate(slots):
            if qual:
                self.quals[key] = i
            else:
                self.vars[key] = i
        self.width = len(slots)  # slots any frame of this layout needs

    def expr(self, e: Expr, names: dict[str, int], top: int, tail: bool):
        interp = self.interp
        limit = interp.step_limit
        sub = lambda x: self.expr(x, names, top, False)
        match e:
            case IntLit(v) | BoolLit(v) | StrLit(v):
                return self._const(v)
            case Var(name, ref) if ref == BUILTIN:
                return self._const(BuiltinFn(name))
            case Var(name) if name in names:
                return self._read(names[name])
            case Var(name):
                return self._fail(f"unbound name {name}")
            case Qual(coll, name, ref) if ref == PARAM and (coll, name) in self.quals:
                return self._read(self.quals[coll, name])
            case Qual(coll, name):
                collections = interp.collections

                def qual(frame):
                    interp.steps += 1
                    if interp.steps > limit:
                        raise interp.out_of_steps()
                    methods = collections.get(coll)
                    if methods is None:
                        raise EvalFailure(EVAL, f"unknown collection {coll}")
                    if name not in methods:
                        raise EvalFailure(EVAL, f"{coll} has no method {name}")
                    return methods[name]

                return qual
            case ConRef(name, [arg]):
                arg = sub(arg)

                def con1(frame):
                    interp.steps += 1
                    if interp.steps > limit:
                        raise interp.out_of_steps()
                    return VCon(name, (arg(frame),))

                return con1
            case ConRef(name, args):
                items = [sub(a) for a in args]

                def con(frame):
                    interp.steps += 1
                    if interp.steps > limit:
                        raise interp.out_of_steps()
                    return VCon(name, tuple([a(frame) for a in items]))

                return con
            case Call(callee, args):
                fn = sub(callee)
                items = [sub(a) for a in args]
                apply = interp.apply
                if tail:

                    def tail_call(frame):
                        interp.steps += 1
                        if interp.steps > limit:
                            raise interp.out_of_steps()
                        return _Tail(fn(frame), [a(frame) for a in items])

                    return tail_call
                if len(items) == 1:
                    (arg,) = items

                    def call1(frame):
                        interp.steps += 1
                        if interp.steps > limit:
                            raise interp.out_of_steps()
                        return apply(fn(frame), [arg(frame)])

                    return call1

                def call(frame):
                    interp.steps += 1
                    if interp.steps > limit:
                        raise interp.out_of_steps()
                    return apply(fn(frame), [a(frame) for a in items])

                return call
            case TupleExpr(items):
                items = [sub(i) for i in items]

                def tup(frame):
                    interp.steps += 1
                    if interp.steps > limit:
                        raise interp.out_of_steps()
                    return tuple([i(frame) for i in items])

                return tup
            case UnOp(op, operand):
                x = sub(operand)

                def unop(frame):
                    interp.steps += 1
                    if interp.steps > limit:
                        raise interp.out_of_steps()
                    return _builtin(op, [x(frame)])

                return unop
            case BinOp(op, left, right):
                return self._binary(op, sub(left), sub(right))
            case Eq(left, right):
                return self._binary("=", sub(left), sub(right))
            case If(cond, then, orelse):
                test = sub(cond)
                yes = self.expr(then, names, top, tail)
                no = self.expr(orelse, names, top, tail)

                def if_(frame):
                    interp.steps += 1
                    if interp.steps > limit:
                        raise interp.out_of_steps()
                    c = test(frame)
                    if c is True:
                        return yes(frame)
                    if c is False:
                        return no(frame)
                    raise EvalFailure(EVAL, "condition is not a boolean")

                return if_
            case Match(scrutinee, arms):
                scrut = sub(scrutinee)
                compiled = []
                for pat, body in arms:
                    scope = dict(names)
                    test, end = self._pattern(pat, scope, top)
                    self.width = max(self.width, end)
                    compiled.append((test, self.expr(body, scope, end, tail)))

                def match_(frame):
                    interp.steps += 1
                    if interp.steps > limit:
                        raise interp.out_of_steps()
                    v = scrut(frame)
                    for test, body in compiled:
                        if test(v, frame):
                            return body(frame)
                    raise EvalFailure(EVAL, "no pattern matched the value")

                return match_
            case _:
                return self._fail(f"cannot evaluate {type(e).__name__}")

    def _const(self, v: Value):
        interp = self.interp
        limit = interp.step_limit

        def const(frame):
            interp.steps += 1
            if interp.steps > limit:
                raise interp.out_of_steps()
            return v

        return const

    def _read(self, i: int):
        interp = self.interp
        limit = interp.step_limit

        def read(frame):
            interp.steps += 1
            if interp.steps > limit:
                raise interp.out_of_steps()
            return frame[i]

        return read

    def _binary(self, op: str, lhs, rhs):
        interp = self.interp
        limit = interp.step_limit
        fn = _INT_OPS.get(op)
        if fn is None:

            def binary(frame):
                interp.steps += 1
                if interp.steps > limit:
                    raise interp.out_of_steps()
                return _builtin(op, [lhs(frame), rhs(frame)])

            return binary
        message = f"{op} expects integers"

        def arith(frame):
            interp.steps += 1
            if interp.steps > limit:
                raise interp.out_of_steps()
            a = lhs(frame)
            b = rhs(frame)
            if type(a) is not int or type(b) is not int:
                raise EvalFailure(EVAL, message)
            return fn(a, b)

        return arith

    def _fail(self, message: str):
        interp = self.interp
        limit = interp.step_limit

        def fail(frame):
            interp.steps += 1
            if interp.steps > limit:
                raise interp.out_of_steps()
            raise EvalFailure(EVAL, message)

        return fail

    def _pattern(self, p: Pattern, names: dict[str, int], top: int):
        """A test that binds p's variables into the frame, and the first
        slot it leaves free; `names` gains p's variables."""
        match p:
            case PWild():
                return _always, top
            case PVar(name):
                names[name] = i = top

                def bind(v, frame):
                    frame[i] = v
                    return True

                return bind, top + 1
            case PCon(name, args):
                tests = []
                for a in args:
                    test, top = self._pattern(a, names, top)
                    tests.append(test)
                n = len(tests)

                def con(v, frame):
                    if type(v) is not VCon or v.name != name or len(v.args) != n:
                        return False
                    for test, w in zip(tests, v.args):
                        if not test(w, frame):
                            return False
                    return True

                return con, top
            case PTuple(items):
                tests = []
                for a in items:
                    test, top = self._pattern(a, names, top)
                    tests.append(test)
                n = len(tests)

                def tup(v, frame):
                    if type(v) is not tuple or len(v) != n:
                        return False
                    for test, w in zip(tests, v):
                        if not test(w, frame):
                            return False
                    return True

                return tup, top
            case _:
                return _never, top


def _always(v, frame) -> bool:
    return True


def _never(v, frame) -> bool:
    return False


def format_value(v: Value) -> str:
    """Source text of a value.  An explicit stack writes every piece once,
    so the time is linear in the size of the value, whatever its depth."""
    out: list[str] = []
    todo: list[tuple[bool, object]] = [(True, v)]  # (is a value, value or text)

    def group(items: tuple) -> None:
        out.append("(")
        todo.append((False, ")"))
        for k in range(len(items) - 1, -1, -1):
            todo.append((True, items[k]))
            if k:
                todo.append((False, ", "))

    while todo:
        is_value, x = todo.pop()
        if not is_value:
            out.append(x)
        elif isinstance(x, bool):
            out.append("true" if x else "false")
        elif isinstance(x, int):
            out.append(str(x))
        elif isinstance(x, str):
            escaped = x.replace("\\", "\\\\").replace('"', '\\"')
            out.append(f'"{escaped}"')
        elif isinstance(x, tuple):
            group(x)
        elif isinstance(x, VCon):
            out.append(x.name)
            if x.args:
                out.append(" ")
                group(x.args)
        else:
            out.append("<fun>")
    return "".join(out)


def eval_call(cu, source: str, step_limit: int = STEP_LIMIT_DEFAULT) -> str:
    """Parse and evaluate a call expression against a compiled unit, on the
    deep stack (`errors.on_deep_stack`), which holds `MAX_DEPTH` nested calls."""
    from .parser import parse_expr_text

    def run() -> str:
        expr = parse_expr_text(source)
        resolve(expr, Names(), strict=False)
        return format_value(Interpreter(cu, step_limit).eval(expr, Scope()))

    return on_deep_stack(run, EvalFailure(DEPTH_LIMIT, "evaluation nested too deeply"))
