"""Call-by-value evaluator over the computational plans, compiled to closures.

Collections are built in declaration order by running their species'
creation plan: each method generator is instantiated with the values of the
computational arguments its plan records, so redefinitions picked up by late
binding flow into every collection automatically.  The plans decide which
lifts and arguments are logical; nothing here decides it again.

Expressions are compiled into Python closures (Feeley and Lapalme, "Using
closures for code generation", 1987).  A compiled expression takes the
frame of the call it runs in: a list holding the generator's lifted
arguments, the generator itself when it is recursive, its parameters, the
variables its patterns bind, each at a slot fixed when it is compiled, and
last its constants.  An operand in a slot is read in place, not by a
closure.  An interpreter compiles each generator body once, the first
time it runs.  A call in tail position (the body itself, or a branch of
an `if` or a `match` in it) returns a `_Tail` record instead of calling,
and `Interpreter.apply` makes these calls in a loop, so tail recursion
takes no Python stack.

Evaluation is pure and has two limits.  Each expression node evaluated
costs one step; past `step_limit` steps (1,000,000 by default) evaluation
stops with `StepLimit`.  The steps of nodes that nothing can fail between
are charged at once (`_Compiler`), so the count at a value and at every
failure is the one charging each node as it starts gives.  Calls that are
not in tail position nest; past `MAX_DEPTH` (20,000) nested calls
evaluation stops with `DepthLimit`.  `eval_call` runs on the deep stack
(`errors.on_deep_stack`), which holds that depth; a Python
`RecursionError`, which one deeply nested expression can still cause, is
reported as `DepthLimit` too.
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
    only the bodies it reaches.  Its caller charges its `lead` before
    `run`: none before it is compiled, so the first run charges it."""

    __slots__ = ("run", "lead", "gp", "interp", "pad")

    def __init__(self, interp: "Interpreter", gp):
        self.run: Callable[[list], object] = self._first_run
        self.lead = 0
        self.gp = gp
        self.interp = interp
        self.pad: list = []  # its pattern variables' slots, then its constants

    def _first_run(self, frame: list) -> object:
        comp = _Compiler(self.interp, _layout(self.gp))
        self.run, self.lead, self.pad = comp.body(self.gp.body, bool(self.gp.value_params))
        self.interp.charge(self.lead)
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
            self.charge(code.lead)
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
        run, lead, pad = _Compiler(self, slots).body(e, tail=False)
        self.charge(lead)
        frame = [*scope.vars.values(), *scope.quals.values()]
        return run(frame + pad)

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
                    code, n = f.code, f.arity
                    if len(args) < n:
                        return Closure(code, f.env + args, n - len(args))
                    self.steps += code.lead
                    if self.steps > self.step_limit:
                        raise self.out_of_steps()
                    if len(args) == n:
                        f, args = code.run(f.env + args + code.pad), ()
                    else:
                        f, args = code.run(f.env + args[:n] + code.pad), args[n:]
                    if type(f) is _Tail:
                        if args:
                            f = self.apply(f.f, f.args)
                        else:
                            f, args = f.f, f.args
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

    def charge(self, k: int) -> None:
        """Count k steps that no failure separates."""
        self.steps += k
        if self.steps > self.step_limit:
            raise self.out_of_steps()

    def out_of_steps(self) -> EvalFailure:
        # the count stops at the step past the limit, as when charged singly
        self.steps = self.step_limit + 1
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

    `expr` gives a node's code: the slot of a node that only reads one (a
    variable; a constant or builtin, at slot -1, -2, ... of every frame),
    else a closure of the frame.  With it come its lead, the steps from its
    own to its first operation that can fail (a call, a check, a lookup),
    which its parent charges, and whether it can fail at all; the closure
    charges the steps after that where they fall.  Children run in the
    language's order: callee, arguments left to right, left before right.
    `names` maps variables to slots; `top` is the first free for patterns.
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
        self.bound = self.width = len(slots)  # slots any frame of this layout needs
        self.consts: list = []

    def body(self, e: Expr, tail: bool):
        """The closure of a whole body, its lead, and what a frame of it
        holds after the bound slots: its pattern variables, its constants."""
        run, lead, _ = self.expr(e, dict(self.vars), self.bound, tail)
        return self.closure(run), lead, [None] * (self.width - self.bound) + self.consts[::-1]

    def expr(self, e: Expr, names: dict[str, int], top: int, tail: bool):
        interp = self.interp
        limit = interp.step_limit
        sub = lambda x: self.expr(x, names, top, False)
        match e:
            case IntLit(v) | BoolLit(v) | StrLit(v):
                return self._const(v), 1, False
            case Var(name, ref) if ref == BUILTIN:
                return self._const(BuiltinFn(name)), 1, False
            case Var(name) if name in names:
                return names[name], 1, False
            case Var(name):
                return self._fail(f"unbound name {name}"), 1, True
            case Qual(coll, name, ref) if ref == PARAM and (coll, name) in self.quals:
                return self.quals[coll, name], 1, False
            case Qual(coll, name):
                collections = interp.collections

                def qual(frame):
                    methods = collections.get(coll)
                    if methods is None:
                        raise EvalFailure(EVAL, f"unknown collection {coll}")
                    if name not in methods:
                        raise EvalFailure(EVAL, f"{coll} has no method {name}")
                    return methods[name]

                return qual, 1, True
            case ConRef(_, items) | TupleExpr(items):
                items, lead, fails = self._operands([sub(a) for a in items])
                name = e.name if type(e) is ConRef else None

                def con(frame):
                    args = tuple([a(frame) for a in items])
                    return args if name is None else VCon(name, args)

                return con, 1 + lead, fails
            case Call(callee, args):
                ops = [sub(callee)] + [sub(a) for a in args]
                (fn, *items), lead, _ = self._operands(ops)
                f = ops[0][0]
                apply = interp.apply
                if tail:

                    def call(frame):
                        return _Tail(fn(frame), [a(frame) for a in items])

                elif type(f) is int and len(items) == 1:  # `fib (n - 1)`
                    (arg,) = items

                    def call(frame):
                        return apply(frame[f], [arg(frame)])

                else:

                    def call(frame):
                        return apply(fn(frame), [a(frame) for a in items])

                return call, 1 + lead, True
            case UnOp(op, operand):
                return self._operation(op, [sub(operand)])
            case BinOp(op, left, right):
                return self._binary(op, sub(left), sub(right))
            case Eq(left, right):
                return self._binary("=", sub(left), sub(right))
            case If(cond, then, orelse):
                test, lead, _ = sub(cond)
                test = self.closure(test)
                yes, k = self.expr(then, names, top, tail)[:2]
                no, m = self.expr(orelse, names, top, tail)[:2]
                yes, no = (self.closure(yes), k), (self.closure(no), m)

                def if_(frame):
                    c = test(frame)
                    if c is not True and c is not False:
                        raise EvalFailure(EVAL, "condition is not a boolean")
                    run, k = yes if c else no
                    interp.steps += k
                    if interp.steps > limit:
                        raise interp.out_of_steps()
                    return run(frame)

                return if_, 1 + lead, True
            case Match(scrutinee, arms):
                scrut, lead, _ = sub(scrutinee)
                scrut = self.closure(scrut)
                compiled = []
                for pat, body in arms:
                    scope = dict(names)
                    test, end = self._pattern(pat, scope, top)
                    self.width = max(self.width, end)
                    run, k, _ = self.expr(body, scope, end, tail)
                    compiled.append((test, self.closure(run), k))

                def match_(frame):
                    v = scrut(frame)
                    for test, run, k in compiled:
                        if test(v, frame):
                            interp.steps += k
                            if interp.steps > limit:
                                raise interp.out_of_steps()
                            return run(frame)
                    raise EvalFailure(EVAL, "no pattern matched the value")

                return match_, 1 + lead, True
            case _:
                return self._fail(f"cannot evaluate {type(e).__name__}"), 1, True

    def _const(self, v: Value) -> int:
        self.consts.append(v)
        return -len(self.consts)

    def closure(self, code):
        """A closure of the frame for `expr`'s code."""
        if type(code) is not int:
            return code

        def read(frame):
            return frame[code]

        return read

    def _operands(self, ops: list):
        """The closures of operands run in turn, their lead (up to the first
        that can fail) and whether one can fail.  An operand after one that
        can fail charges its own lead when it runs."""
        runs, lead, fails = [], 0, False
        charge = self.interp.charge
        for code, k, f in ops:
            run = self.closure(code)
            if fails:

                def run(frame, run=run, k=k):
                    charge(k)
                    return run(frame)

            else:
                lead += k
            runs.append(run)
            fails = fails or f
        return runs, lead, fails

    def _binary(self, op: str, lhs, rhs):
        """An infix operation; one over integers reads an operand held in a
        slot in place."""
        fn = _INT_OPS.get(op)
        if fn is None:  # `=` and `&&`
            return self._operation(op, [lhs, rhs])
        (l, lead, lf), (r, k, _) = lhs, rhs
        message = f"{op} expects integers"
        if type(l) is int and type(r) is int:  # `n - 1`

            def arith(frame):
                a = frame[l]
                b = frame[r]
                if type(a) is not int or type(b) is not int:
                    raise EvalFailure(EVAL, message)
                return fn(a, b)

        else:  # `f (n - 1) + f (n - 2)`: the right operand's lead is charged
            # after the left one runs if that can fail
            interp, limit = self.interp, self.interp.step_limit
            l, r, mid = self.closure(l), self.closure(r), k if lf else 0

            def arith(frame):
                a = l(frame)
                interp.steps += mid
                if interp.steps > limit:
                    raise interp.out_of_steps()
                b = r(frame)
                if type(a) is not int or type(b) is not int:
                    raise EvalFailure(EVAL, message)
                return fn(a, b)

        return arith, 1 + lead + (0 if lf else k), True

    def _operation(self, op: str, ops: list):
        """`~~ b`, `x = y` or `b && c`; only `=` cannot fail."""
        items, lead, fails = self._operands(ops)

        def builtin(frame):
            return _builtin(op, [a(frame) for a in items])

        return builtin, 1 + lead, fails or op != "="

    def _fail(self, message: str):
        def fail(frame):
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
            case PCon(_, items) | PTuple(items):
                tests = []
                for a in items:
                    test, top = self._pattern(a, names, top)
                    tests.append(test)
                n, name = len(tests), p.name if type(p) is PCon else None

                def compound(v, frame):
                    if name is not None:  # a constructor's arguments
                        if type(v) is not VCon or v.name != name:
                            return False
                        v = v.args
                    elif type(v) is not tuple:
                        return False
                    if len(v) != n:
                        return False
                    for test, w in zip(tests, v):
                        if not test(w, frame):
                            return False
                    return True

                return compound, top
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
