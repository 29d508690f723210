"""AST for the species/collection language.

One node family covers both strata: computational expressions and logical
statements share the Expr grammar, and a post-parse stratification check keeps
formula connectives out of function bodies.  Types are shared between the
surface syntax and the inference engine; `TVar`/`TGen` never appear in parsed
source, only as inference artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass


@dataclass(frozen=True)
class Pos:
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NOPOS = Pos()


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class TCon:
    """Named base or union type: int, bool, string, statut_t, ..."""

    name: str


@dataclass(frozen=True)
class TSelf:
    pass


@dataclass(frozen=True)
class TCap:
    """Unresolved capitalized type name straight from the parser."""

    name: str


@dataclass(frozen=True)
class TParam:
    """Carrier of a collection parameter of the enclosing species."""

    name: str


@dataclass(frozen=True)
class TCollCarrier:
    """Carrier of a toplevel collection."""

    name: str


@dataclass(frozen=True)
class TArrow:
    arg: "Type"
    res: "Type"


@dataclass(frozen=True)
class TTuple:
    items: tuple["Type", ...]


@dataclass(frozen=True)
class TVar:
    uid: int


@dataclass(frozen=True)
class TGen:
    """Quantified slot inside a Scheme."""

    idx: int


Type = TCon | TSelf | TCap | TParam | TCollCarrier | TArrow | TTuple | TVar | TGen

T_INT = TCon("int")
T_BOOL = TCon("bool")
T_STRING = TCon("string")


@dataclass(frozen=True)
class Scheme:
    """Top-level method/builtin type, generalized over `count` TGen slots."""

    count: int
    body: Type


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
    """Rebuild `t` bottom-up, replacing each node by f(node) after recursion."""
    match t:
        case TArrow(a, r):
            t = TArrow(type_map(a, f), type_map(r, f))
        case TTuple(items):
            t = TTuple(tuple([type_map(i, f) for i in items]))
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
        if is_dataclass(x):
            todo += [(getattr(x, f.name), getattr(y, f.name)) for f in fields(x) if f.compare]
        elif seq:
            todo += zip(x, y)
        elif x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# Expressions (computational and logical strata share these nodes)


@dataclass
class Expr:
    pos: Pos = field(default=NOPOS, compare=False, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class Var(Expr):
    name: str = ""
    ref: str | None = field(default=None, compare=False)  # see resolve.py


@dataclass
class ConRef(Expr):
    """Union-type constructor, possibly applied: Too_low, Some (x)."""

    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Qual(Expr):
    """C!m — method of a parameter or of a toplevel collection."""

    coll: str = ""
    name: str = ""
    ref: str | None = field(default=None, compare=False)  # see resolve.py


@dataclass
class Call(Expr):
    callee: Expr = None  # type: ignore[assignment]
    args: list[Expr] = field(default_factory=list)


@dataclass
class BinOp(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class UnOp(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class If(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    orelse: Expr = None  # type: ignore[assignment]


@dataclass
class TupleExpr(Expr):
    items: list[Expr] = field(default_factory=list)


@dataclass
class Match(Expr):
    scrutinee: Expr = None  # type: ignore[assignment]
    arms: list[tuple["Pattern", Expr]] = field(default_factory=list)


# Logical stratum.


@dataclass
class Quant(Expr):
    kind: str = "all"  # 'all' | 'ex'
    vars: list[str] = field(default_factory=list)
    ty: Type = None  # type: ignore[assignment]
    body: Expr = None  # type: ignore[assignment]


@dataclass
class Connective(Expr):
    op: str = ""  # '->' | '/\\' | '\\/'
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Not(Expr):
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Eq(Expr):
    """Polymorphic equality. A formula atom in statements, a bool builtin in bodies."""

    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


# Patterns.


@dataclass
class Pattern:
    pos: Pos = field(default=NOPOS, compare=False, kw_only=True)


@dataclass
class PWild(Pattern):
    pass


@dataclass
class PVar(Pattern):
    name: str = ""


@dataclass
class PCon(Pattern):
    name: str = ""
    args: list[Pattern] = field(default_factory=list)


@dataclass
class PTuple(Pattern):
    items: list[Pattern] = field(default_factory=list)


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


@dataclass
class Fact:
    kind: str = ""  # 'definition' | 'property' | 'hypothesis' | 'step' | 'type'
    names: list[str] = field(default_factory=list)  # for 'property': "m" or "C!m"
    labels: list[Label] = field(default_factory=list)  # for 'step'
    pos: Pos = field(default=NOPOS, compare=False)
    refs: list[str | None] = field(default_factory=list, compare=False)  # see resolve.py


@dataclass
class ProofLeaf:
    facts: list[Fact] = field(default_factory=list)
    admitted: bool = False
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass
class ProofStep:
    label: Label = (0, "")
    assumes: list[tuple[list[str], Type]] = field(default_factory=list)
    hyps: list[tuple[str, Expr]] = field(default_factory=list)
    goal: Expr | None = None  # None for qed steps
    is_qed: bool = False
    sub: "Proof" = None  # type: ignore[assignment]
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass
class ProofSteps:
    steps: list[ProofStep] = field(default_factory=list)
    pos: Pos = field(default=NOPOS, compare=False)


Proof = ProofLeaf | ProofSteps


# ---------------------------------------------------------------------------
# Declarations


@dataclass
class MethodDecl:
    kind: str  # 'signature' | 'let' | 'property' | 'theorem' | 'proof_of'
    name: str
    ty: Type | None = None  # signature type
    params: list[tuple[str, Type | None]] = field(default_factory=list)
    ret: Type | None = None  # stated return type of a let
    body: Expr | None = None
    statement: Expr | None = None
    proof: Proof | None = None
    rec: bool = False
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass
class SpeciesParam:
    name: str
    kind: str  # 'is' (collection) | 'in' (entity)
    interface: "SpeciesExpr | None" = None  # for 'is'
    carrier: str | None = None  # for 'in': name of an earlier 'is' parameter
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass
class SpeciesArg:
    """Effective argument of an applied species expression."""

    name: str | None = None  # collection or parameter name
    expr: Expr | None = None  # entity expression
    pos: Pos = field(default=NOPOS, compare=False)

    @property
    def entity(self) -> Expr:
        """The argument read as an entity expression: a bare capitalized
        name is a nullary constructor."""
        return self.expr if self.expr is not None else ConRef(self.name, pos=self.pos)


@dataclass
class SpeciesExpr:
    name: str
    args: list[SpeciesArg] = field(default_factory=list)
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass
class SpeciesDecl:
    name: str
    params: list[SpeciesParam] = field(default_factory=list)
    inherits: list[SpeciesExpr] = field(default_factory=list)
    representation: Type | None = None
    rep_pos: Pos = field(default=NOPOS, compare=False)
    methods: list[MethodDecl] = field(default_factory=list)
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass
class UnionTypeDecl:
    name: str
    constructors: list[tuple[str, list[Type]]] = field(default_factory=list)
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass
class CollectionDecl:
    name: str
    implements: SpeciesExpr = None  # type: ignore[assignment]
    pos: Pos = field(default=NOPOS, compare=False)


Decl = UnionTypeDecl | SpeciesDecl | CollectionDecl


@dataclass
class CompilationUnit:
    decls: list[Decl] = field(default_factory=list)

    @property
    def species(self) -> dict[str, SpeciesDecl]:
        return {d.name: d for d in self.decls if isinstance(d, SpeciesDecl)}

    @property
    def collections(self) -> dict[str, CollectionDecl]:
        return {d.name: d for d in self.decls if isinstance(d, CollectionDecl)}

    @property
    def union_types(self) -> dict[str, UnionTypeDecl]:
        return {d.name: d for d in self.decls if isinstance(d, UnionTypeDecl)}
