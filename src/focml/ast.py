"""AST for the species/collection language.

One node family covers both strata: computational expressions and logical
statements share the Expr grammar, and a post-parse stratification check keeps
formula connectives out of function bodies.  Types are shared between the
surface syntax and the inference engine; `TVar`/`TGen` never appear in parsed
source, only as inference artifacts.
"""

from __future__ import annotations

from operator import attrgetter


def _no_fields(obj) -> tuple:
    return ()


def _eq(key):
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    return __eq__


class Record:
    """A plain record: the base of every node, type, token and analysis
    result.  Each class writes its own straight-line `__init__` and names its
    positional fields in `__match_args__`; `_kw` names the keyword-only fields
    a base adds (first in `repr`), and `_loose` the fields `==` ignores.  Two
    records are `==` when they have the same class and equal compared fields.
    A record is unhashable unless it is `Frozen`."""

    __match_args__: tuple[str, ...] = ()
    _kw: tuple[str, ...] = ()
    _loose: frozenset[str] = frozenset()
    _fields: tuple[str, ...] = ()  # set for each class: `_kw + __match_args__`
    _compared: tuple[str, ...] = ()  # and those of them `==` compares
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls) -> None:
        cls._fields = cls._kw + cls.__match_args__
        cls._compared = tuple(f for f in cls._fields if f not in cls._loose)
        key = attrgetter(*cls._compared) if cls._compared else _no_fields
        cls.__eq__ = _eq(key)  # type: ignore[method-assign]
        # hash as a tuple of the compared fields, also for a single field
        single = len(cls._compared) == 1
        cls._hash_key = staticmethod((lambda r: (key(r),)) if single else key)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A shallow copy with `changes` to its fields."""
        out = object.__new__(type(self))
        fields = self.__dict__.copy()
        fields.update(changes)
        object.__setattr__(out, "__dict__", fields)  # also on a `Frozen` one
        return out


class Frozen(Record):
    """A record whose fields are set once, by `__init__` writing to the
    instance dict, and that hashes by its compared fields."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._hash_key(self))


class Pos(Frozen):
    __match_args__ = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0):
        d = self.__dict__
        d["line"] = line
        d["col"] = col

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NOPOS = Pos()


# ---------------------------------------------------------------------------
# Types


class TCon(Frozen):
    """Named base or union type: int, bool, string, statut_t, ..."""

    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name


class TSelf(Frozen):
    pass


class TCap(Frozen):
    """Unresolved capitalized type name straight from the parser."""

    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name


class TParam(Frozen):
    """Carrier of a collection parameter of the enclosing species."""

    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name


class TCollCarrier(Frozen):
    """Carrier of a toplevel collection."""

    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name


class TArrow(Frozen):
    __match_args__ = ("arg", "res")

    def __init__(self, arg: "Type", res: "Type"):
        d = self.__dict__
        d["arg"] = arg
        d["res"] = res


class TTuple(Frozen):
    __match_args__ = ("items",)

    def __init__(self, items: tuple["Type", ...]):
        self.__dict__["items"] = items


class TVar(Frozen):
    __match_args__ = ("uid",)

    def __init__(self, uid: int):
        self.__dict__["uid"] = uid


class TGen(Frozen):
    """Quantified slot inside a Scheme."""

    __match_args__ = ("idx",)

    def __init__(self, idx: int):
        self.__dict__["idx"] = idx


Type = TCon | TSelf | TCap | TParam | TCollCarrier | TArrow | TTuple | TVar | TGen

T_INT = TCon("int")
T_BOOL = TCon("bool")
T_STRING = TCon("string")


class Scheme(Frozen):
    """Top-level method/builtin type, generalized over `count` TGen slots."""

    __match_args__ = ("count", "body")

    def __init__(self, count: int, body: Type):
        d = self.__dict__
        d["count"] = count
        d["body"] = body


def arrow(*ts: Type) -> Type:
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = TArrow(t, out)
    return out


def flatten_arrow(t: Type) -> tuple[list[Type], Type]:
    args: list[Type] = []
    while isinstance(t, TArrow):
        args.append(t.arg)
        t = t.res
    return args, t


def type_map(t: Type, f) -> Type:
    """Rebuild `t` bottom-up, replacing each node by f(node) after recursion.
    Types are frozen, so a node none of whose children changed is kept."""
    match t:
        case TArrow(a, r):
            a2, r2 = type_map(a, f), type_map(r, f)
            if a2 is not a or r2 is not r:
                t = TArrow(a2, r2)
        case TTuple(items):
            new = tuple([type_map(i, f) for i in items])
            if any(x is not y for x, y in zip(new, items)):
                t = TTuple(new)
        case _:
            pass
    return f(t)


def type_walk(t: Type):
    """Every node of `t` in pre-order, from an explicit stack."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        match t:
            case TArrow(a, r):
                todo += (r, a)
            case TTuple(items):
                todo.extend(reversed(items))


def same(a, b) -> bool:
    """`a == b` for trees: types, schemes, expressions, values and lists of
    them.  On a deep tree `==` recurses through C code, which Python 3.12
    limits apart from the recursion limit; past that limit the trees are
    compared from an explicit stack, field by field as `==` compares them."""
    try:
        return a == b
    except RecursionError:
        todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        seq = isinstance(x, (list, tuple))
        if type(x) is not type(y) or (seq and len(x) != len(y)):
            return False
        if isinstance(x, Record):
            todo += [(getattr(x, f), getattr(y, f)) for f in x._compared]
        elif seq:
            todo += zip(x, y)
        elif x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# Expressions (computational and logical strata share these nodes)


class Node(Record):
    """A syntax node: `==` ignores where it was written (`pos`, `rep_pos`)
    and how its names were resolved (`ref`, `refs`)."""

    _loose = frozenset({"pos", "rep_pos", "ref", "refs"})


class Expr(Node):
    _kw = ("pos",)

    def __init__(self, *, pos: Pos = NOPOS):
        self.pos = pos


class IntLit(Expr):
    __match_args__ = ("value",)

    def __init__(self, value: int = 0, *, pos: Pos = NOPOS):
        self.pos = pos
        self.value = value


class BoolLit(Expr):
    __match_args__ = ("value",)

    def __init__(self, value: bool = False, *, pos: Pos = NOPOS):
        self.pos = pos
        self.value = value


class StrLit(Expr):
    __match_args__ = ("value",)

    def __init__(self, value: str = "", *, pos: Pos = NOPOS):
        self.pos = pos
        self.value = value


class Var(Expr):
    __match_args__ = ("name", "ref")

    def __init__(self, name: str = "", ref: str | None = None, *, pos: Pos = NOPOS):
        self.pos = pos
        self.name = name
        self.ref = ref  # see resolve.py


class ConRef(Expr):
    """Union-type constructor, possibly applied: Too_low, Some (x)."""

    __match_args__ = ("name", "args")

    def __init__(self, name: str = "", args: list[Expr] | None = None, *, pos: Pos = NOPOS):
        self.pos = pos
        self.name = name
        self.args = [] if args is None else args


class Qual(Expr):
    """C!m — method of a parameter or of a toplevel collection."""

    __match_args__ = ("coll", "name", "ref")

    def __init__(
        self, coll: str = "", name: str = "", ref: str | None = None, *, pos: Pos = NOPOS
    ):
        self.pos = pos
        self.coll = coll
        self.name = name
        self.ref = ref  # see resolve.py


class Call(Expr):
    __match_args__ = ("callee", "args")

    def __init__(
        self, callee: Expr | None = None, args: list[Expr] | None = None, *, pos: Pos = NOPOS
    ):
        self.pos = pos
        self.callee = callee
        self.args = [] if args is None else args


class BinOp(Expr):
    __match_args__ = ("op", "left", "right")

    def __init__(
        self,
        op: str = "",
        left: Expr | None = None,
        right: Expr | None = None,
        *,
        pos: Pos = NOPOS,
    ):
        self.pos = pos
        self.op = op
        self.left = left
        self.right = right


class UnOp(Expr):
    __match_args__ = ("op", "operand")

    def __init__(self, op: str = "", operand: Expr | None = None, *, pos: Pos = NOPOS):
        self.pos = pos
        self.op = op
        self.operand = operand


class If(Expr):
    __match_args__ = ("cond", "then", "orelse")

    def __init__(
        self,
        cond: Expr | None = None,
        then: Expr | None = None,
        orelse: Expr | None = None,
        *,
        pos: Pos = NOPOS,
    ):
        self.pos = pos
        self.cond = cond
        self.then = then
        self.orelse = orelse


class TupleExpr(Expr):
    __match_args__ = ("items",)

    def __init__(self, items: list[Expr] | None = None, *, pos: Pos = NOPOS):
        self.pos = pos
        self.items = [] if items is None else items


class Match(Expr):
    __match_args__ = ("scrutinee", "arms")

    def __init__(
        self,
        scrutinee: Expr | None = None,
        arms: list[tuple["Pattern", Expr]] | None = None,
        *,
        pos: Pos = NOPOS,
    ):
        self.pos = pos
        self.scrutinee = scrutinee
        self.arms = [] if arms is None else arms


# Logical stratum.


class Quant(Expr):
    __match_args__ = ("kind", "vars", "ty", "body")

    def __init__(
        self,
        kind: str = "all",  # 'all' | 'ex'
        vars: list[str] | None = None,
        ty: Type | None = None,
        body: Expr | None = None,
        *,
        pos: Pos = NOPOS,
    ):
        self.pos = pos
        self.kind = kind
        self.vars = [] if vars is None else vars
        self.ty = ty
        self.body = body


class Connective(Expr):
    __match_args__ = ("op", "left", "right")

    def __init__(
        self,
        op: str = "",
        left: Expr | None = None,
        right: Expr | None = None,
        *,
        pos: Pos = NOPOS,
    ):
        self.pos = pos
        self.op = op  # '->' | '/\\' | '\\/'
        self.left = left
        self.right = right


class Not(Expr):
    __match_args__ = ("operand",)

    def __init__(self, operand: Expr | None = None, *, pos: Pos = NOPOS):
        self.pos = pos
        self.operand = operand


class Eq(Expr):
    """Polymorphic equality. A formula atom in statements, a bool builtin in bodies."""

    __match_args__ = ("left", "right")

    def __init__(self, left: Expr | None = None, right: Expr | None = None, *, pos: Pos = NOPOS):
        self.pos = pos
        self.left = left
        self.right = right


# Patterns.


class Pattern(Node):
    _kw = ("pos",)

    def __init__(self, *, pos: Pos = NOPOS):
        self.pos = pos


class PWild(Pattern):
    pass


class PVar(Pattern):
    __match_args__ = ("name",)

    def __init__(self, name: str = "", *, pos: Pos = NOPOS):
        self.pos = pos
        self.name = name


class PCon(Pattern):
    __match_args__ = ("name", "args")

    def __init__(self, name: str = "", args: list[Pattern] | None = None, *, pos: Pos = NOPOS):
        self.pos = pos
        self.name = name
        self.args = [] if args is None else args


class PTuple(Pattern):
    __match_args__ = ("items",)

    def __init__(self, items: list[Pattern] | None = None, *, pos: Pos = NOPOS):
        self.pos = pos
        self.items = [] if items is None else items


def expr_children(e: Expr) -> list[Expr]:
    match e:
        case ConRef(_, args):
            return list(args)
        case Call(callee, args):
            return [callee, *args]
        case BinOp(_, l, r) | Connective(_, l, r) | Eq(l, r):
            return [l, r]
        case UnOp(_, x) | Not(x):
            return [x]
        case If(c, t, o):
            return [c, t, o]
        case TupleExpr(items):
            return list(items)
        case Match(scrutinee, arms):
            return [scrutinee, *(body for _, body in arms)]
        case Quant():
            return [e.body]
        case _:
            return []


def expr_walk(e: Expr):
    """Every node of `e` in pre-order (a node, then its children left to
    right), from an explicit stack: linear in the size of `e` whatever its
    depth."""
    todo = [e]
    while todo:
        e = todo.pop()
        yield e
        todo.extend(reversed(expr_children(e)))


def pattern_vars(p: Pattern) -> list[str]:
    match p:
        case PVar(name):
            return [name]
        case PCon(_, args):
            return [v for a in args for v in pattern_vars(a)]
        case PTuple(items):
            return [v for a in items for v in pattern_vars(a)]
        case _:
            return []


# ---------------------------------------------------------------------------
# Proofs

Label = tuple[int, str]  # <depth>tag


class Fact(Node):
    __match_args__ = ("kind", "names", "labels", "pos", "refs")

    def __init__(
        self,
        kind: str = "",  # 'definition' | 'property' | 'hypothesis' | 'step' | 'type'
        names: list[str] | None = None,  # for 'property': "m" or "C!m"
        labels: list[Label] | None = None,  # for 'step'
        pos: Pos = NOPOS,
        refs: list[str | None] | None = None,  # see resolve.py
    ):
        self.kind = kind
        self.names = [] if names is None else names
        self.labels = [] if labels is None else labels
        self.pos = pos
        self.refs = [] if refs is None else refs


class ProofLeaf(Node):
    __match_args__ = ("facts", "admitted", "pos")

    def __init__(self, facts: list[Fact] | None = None, admitted: bool = False, pos: Pos = NOPOS):
        self.facts = [] if facts is None else facts
        self.admitted = admitted
        self.pos = pos


class ProofStep(Node):
    __match_args__ = ("label", "assumes", "hyps", "goal", "is_qed", "sub", "pos")

    def __init__(
        self,
        label: Label = (0, ""),
        assumes: list[tuple[list[str], Type]] | None = None,
        hyps: list[tuple[str, Expr]] | None = None,
        goal: Expr | None = None,  # None for qed steps
        is_qed: bool = False,
        sub: "Proof | None" = None,
        pos: Pos = NOPOS,
    ):
        self.label = label
        self.assumes = [] if assumes is None else assumes
        self.hyps = [] if hyps is None else hyps
        self.goal = goal
        self.is_qed = is_qed
        self.sub = sub
        self.pos = pos


class ProofSteps(Node):
    __match_args__ = ("steps", "pos")

    def __init__(self, steps: list[ProofStep] | None = None, pos: Pos = NOPOS):
        self.steps = [] if steps is None else steps
        self.pos = pos


Proof = ProofLeaf | ProofSteps


# ---------------------------------------------------------------------------
# Declarations


class MethodDecl(Node):
    __match_args__ = (
        "kind", "name", "ty", "params", "ret", "body", "statement", "proof", "rec", "pos",
    )

    def __init__(
        self,
        kind: str,  # 'signature' | 'let' | 'property' | 'theorem' | 'proof_of'
        name: str,
        ty: Type | None = None,  # signature type
        params: list[tuple[str, Type | None]] | None = None,
        ret: Type | None = None,  # stated return type of a let
        body: Expr | None = None,
        statement: Expr | None = None,
        proof: Proof | None = None,
        rec: bool = False,
        pos: Pos = NOPOS,
    ):
        self.kind = kind
        self.name = name
        self.ty = ty
        self.params = [] if params is None else params
        self.ret = ret
        self.body = body
        self.statement = statement
        self.proof = proof
        self.rec = rec
        self.pos = pos


class SpeciesParam(Node):
    __match_args__ = ("name", "kind", "interface", "carrier", "pos")

    def __init__(
        self,
        name: str,
        kind: str,  # 'is' (collection) | 'in' (entity)
        interface: "SpeciesExpr | None" = None,  # for 'is'
        carrier: str | None = None,  # for 'in': name of an earlier 'is' parameter
        pos: Pos = NOPOS,
    ):
        self.name = name
        self.kind = kind
        self.interface = interface
        self.carrier = carrier
        self.pos = pos


class SpeciesArg(Node):
    """Effective argument of an applied species expression."""

    __match_args__ = ("name", "expr", "pos")

    def __init__(self, name: str | None = None, expr: Expr | None = None, pos: Pos = NOPOS):
        self.name = name  # collection or parameter name
        self.expr = expr  # entity expression
        self.pos = pos

    @property
    def entity(self) -> Expr:
        """The argument read as an entity expression: a bare capitalized
        name is a nullary constructor."""
        return self.expr if self.expr is not None else ConRef(self.name, pos=self.pos)


class SpeciesExpr(Node):
    __match_args__ = ("name", "args", "pos")

    def __init__(self, name: str, args: list[SpeciesArg] | None = None, pos: Pos = NOPOS):
        self.name = name
        self.args = [] if args is None else args
        self.pos = pos


class SpeciesDecl(Node):
    __match_args__ = (
        "name", "params", "inherits", "representation", "rep_pos", "methods", "pos",
    )

    def __init__(
        self,
        name: str,
        params: list[SpeciesParam] | None = None,
        inherits: list[SpeciesExpr] | None = None,
        representation: Type | None = None,
        rep_pos: Pos = NOPOS,
        methods: list[MethodDecl] | None = None,
        pos: Pos = NOPOS,
    ):
        self.name = name
        self.params = [] if params is None else params
        self.inherits = [] if inherits is None else inherits
        self.representation = representation
        self.rep_pos = rep_pos
        self.methods = [] if methods is None else methods
        self.pos = pos


class UnionTypeDecl(Node):
    __match_args__ = ("name", "constructors", "pos")

    def __init__(
        self,
        name: str,
        constructors: list[tuple[str, list[Type]]] | None = None,
        pos: Pos = NOPOS,
    ):
        self.name = name
        self.constructors = [] if constructors is None else constructors
        self.pos = pos


class CollectionDecl(Node):
    __match_args__ = ("name", "implements", "pos")

    def __init__(self, name: str, implements: "SpeciesExpr | None" = None, pos: Pos = NOPOS):
        self.name = name
        self.implements = implements
        self.pos = pos


Decl = UnionTypeDecl | SpeciesDecl | CollectionDecl


class CompilationUnit(Node):
    __match_args__ = ("decls",)

    def __init__(self, decls: list[Decl] | None = None):
        self.decls = [] if decls is None else decls

    @property
    def species(self) -> dict[str, SpeciesDecl]:
        return {d.name: d for d in self.decls if isinstance(d, SpeciesDecl)}

    @property
    def collections(self) -> dict[str, CollectionDecl]:
        return {d.name: d for d in self.decls if isinstance(d, CollectionDecl)}

    @property
    def union_types(self) -> dict[str, UnionTypeDecl]:
        return {d.name: d for d in self.decls if isinstance(d, UnionTypeDecl)}
