"""Recursive-descent parser, with one precedence-climbing loop for operators.

Statements and function bodies share one expression grammar; the logical
connectives sit at the lowest precedence levels and a post-parse
stratification pass rejects them inside `let` bodies.  The parser counts the
formula nodes it builds, so that pass walks only the bodies that hold one.
Proof well-formedness (qed closes every step list, `by step` references an
earlier sibling, bullet depths nest one by one) is enforced here because it
is decidable at parse time.

Nesting has no limit of its own: each level recurses in Python, and a
nesting deeper than the stack holds is a `DepthLimit` diagnostic.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .ast import (
    BinOp, BoolLit, Call, CollectionDecl, CompilationUnit, ConRef, Connective,
    Eq, Expr, Fact, If, IntLit, Match, MethodDecl, Not, PCon, PTuple, PVar,
    PWild, Pattern, ProofLeaf, ProofStep, ProofSteps, Proof, Qual, Quant,
    SpeciesArg, SpeciesDecl, SpeciesExpr, SpeciesParam, StrLit, TArrow, TCap,
    TCon, TSelf, TTuple, TupleExpr, Type, UnOp, UnionTypeDecl, Var, expr_nodes,
)
from .errors import CompileError, DEPTH_LIMIT, DUPLICATE, PROOF, SYNTAX
from .lexer import Token, tokenize

T = TypeVar("T")

_FACT_KEYWORDS = ("definition", "property", "hypothesis", "step", "type")

# Operator levels, loosest first: the prefix `~` sits between `/\` and `=`,
# and `~~` above `+`.
_IMPLIES, _NOT, _UNARY = 1, 4, 9
# A binary operator's level, and the highest level that may follow the node
# it builds: its own when it is left-associative, one less when it is not,
# and none after `->`, which takes a whole expression on its right.
_BINARY = {
    "->": (_IMPLIES, 0),
    "\\/": (2, 2),
    "/\\": (3, 3),
    "=": (5, 4),
    "&&": (6, 6),
    "<0x": (7, 6), "=0x": (7, 6),
    "+": (8, 8), "-": (8, 8),
}


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.formulas = 0  # the `Quant`, `Connective` and `Not` nodes built
        self.formula_lets: list[tuple[SpeciesDecl, MethodDecl]] = []  # lets that hold one

    # -- token plumbing -----------------------------------------------------
    # The parser reads `self.tokens[self.i]` and moves `self.i` itself, past
    # a token whose kind it has matched or just before it raises; it matches
    # the final `eof` last, so the current token always exists.

    def accept(self, kind: str) -> bool:
        if self.tokens[self.i].kind == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            want = what or f"'{kind}'"
            raise CompileError(SYNTAX, f"expected {want}, found {tok.value or tok.kind!r}", tok.pos)
        self.i += 1
        return tok

    # -- toplevel -----------------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        unit = CompilationUnit()
        while self.tokens[self.i].kind != "eof":
            unit.decls.append(self.parse_toplevel())
        return unit

    def parse_toplevel(self):
        tok = self.tokens[self.i]
        match tok.kind:
            case "species":
                return self.parse_species()
            case "collection":
                return self.parse_collection()
            case "type":
                return self.parse_union_type()
            case _:
                raise CompileError(SYNTAX, f"expected a declaration, found {tok.value!r}", tok.pos)

    def parse_union_type(self) -> UnionTypeDecl:
        pos = self.expect("type").pos
        name = self.expect("ident", "a type name").value
        self.expect("=")
        self.accept("|")
        constructors: list[tuple[str, list[Type]]] = []
        while True:
            con = self.expect("capid", "a constructor name").value
            args: list[Type] = []
            if self.accept("("):
                args.append(self.parse_type())
                while self.accept(","):
                    args.append(self.parse_type())
                self.expect(")")
            constructors.append((con, args))
            if not self.accept("|"):
                break
        self.expect(";;")
        return UnionTypeDecl(name, constructors, pos=pos)

    def parse_species(self) -> SpeciesDecl:
        pos = self.expect("species").pos
        name = self.expect("capid", "a species name").value
        decl = SpeciesDecl(name, pos=pos)
        if self.accept("("):
            decl.params.append(self.parse_species_param())
            while self.accept(","):
                decl.params.append(self.parse_species_param())
            self.expect(")")
        self.expect("=")
        names: set[str] = set()
        while self.tokens[self.i].kind != "end":
            self.parse_species_member(decl, names)
        self.i += 1
        self.expect(";;")
        return decl

    def parse_species_param(self) -> SpeciesParam:
        tok = self.tokens[self.i]
        self.i += 1
        if tok.kind == "capid":
            self.expect("is")
            return SpeciesParam(tok.value, "is", interface=self.parse_species_expr(), pos=tok.pos)
        if tok.kind == "ident":
            self.expect("in")
            carrier = self.expect("capid", "a collection parameter name").value
            return SpeciesParam(tok.value, "in", carrier=carrier, pos=tok.pos)
        raise CompileError(SYNTAX, "expected a species parameter", tok.pos)

    def parse_species_expr(self) -> SpeciesExpr:
        tok = self.expect("capid", "a species name")
        expr = SpeciesExpr(tok.value, pos=tok.pos)
        if self.accept("("):
            expr.args.append(self.parse_species_arg())
            while self.accept(","):
                expr.args.append(self.parse_species_arg())
            self.expect(")")
        return expr

    def parse_species_arg(self) -> SpeciesArg:
        tok = self.tokens[self.i]
        if tok.kind == "capid" and self.tokens[self.i + 1].kind not in ("!", "("):
            self.i += 1
            return SpeciesArg(name=tok.value, pos=tok.pos)
        return SpeciesArg(expr=self.parse_expr(), pos=tok.pos)

    def parse_species_member(self, decl: SpeciesDecl, names: set[str]) -> None:
        tok = self.tokens[self.i]
        kind = tok.kind
        if kind in ("signature", "let", "property", "theorem"):
            self.i += 1
            rec = kind == "let" and self.accept("rec")
            what = f"a {kind} name" if kind in ("property", "theorem") else "a method name"
            name = self.expect("ident", what)
            if name.value in names:
                raise CompileError(
                    DUPLICATE, f"duplicate method {name.value} in species {decl.name}", name.pos)
            names.add(name.value)
        match kind:
            case "inherit":
                self.i += 1
                decl.inherits.append(self.parse_species_expr())
                while self.accept(","):
                    decl.inherits.append(self.parse_species_expr())
                self.expect(";")
            case "representation":
                self.i += 1
                if decl.representation is not None:
                    raise CompileError(DUPLICATE, "representation already given", tok.pos)
                self.expect("=")
                decl.representation = self.parse_type()
                decl.rep_pos = tok.pos
                self.expect(";")
            case "signature":
                self.expect(":")
                ty = self.parse_type()
                self.expect(";")
                decl.methods.append(MethodDecl("signature", name.value, ty=ty, pos=name.pos))
            case "let":
                params: list[tuple[str, Type | None]] = []
                if self.accept("("):
                    params.append(self.parse_let_param())
                    while self.accept(","):
                        params.append(self.parse_let_param())
                    self.expect(")")
                ret = self.parse_type() if self.accept(":") else None
                self.expect("=")
                formulas = self.formulas
                body = self.parse_expr()
                self.expect(";")
                decl.methods.append(MethodDecl(
                    "let", name.value, params=params, ret=ret, body=body, rec=rec, pos=name.pos))
                if self.formulas != formulas:
                    self.formula_lets.append((decl, decl.methods[-1]))
            case "property":
                self.expect(":")
                stmt = self.parse_expr()
                self.expect(";")
                decl.methods.append(MethodDecl("property", name.value, statement=stmt, pos=name.pos))
            case "theorem":
                self.expect(":")
                stmt = self.parse_expr()
                if self.accept("proof"):
                    self.expect("=")
                    proof = self.parse_proof()
                else:
                    # A stated theorem with no proof text counts as admitted.
                    proof = ProofLeaf(admitted=True, pos=name.pos)
                self.expect(";")
                decl.methods.append(MethodDecl(
                    "theorem", name.value, statement=stmt, proof=proof, pos=name.pos))
            case "proof":
                self.i += 1
                self.expect("of")
                name = self.expect("ident", "a property name")
                # A proof may sit beside the property it proves, so it does
                # not claim the name; two proofs of one property do collide.
                if any(m.kind == "proof_of" and m.name == name.value for m in decl.methods):
                    raise CompileError(
                        DUPLICATE, f"duplicate proof of {name.value} in species {decl.name}", name.pos)
                self.expect("=")
                proof = self.parse_proof()
                self.expect(";")
                decl.methods.append(MethodDecl("proof_of", name.value, proof=proof, pos=name.pos))
            case _:
                raise CompileError(SYNTAX, f"expected a species member, found {tok.value!r}", tok.pos)

    def parse_let_param(self) -> tuple[str, Type | None]:
        name = self.expect("ident", "a parameter name").value
        ty = self.parse_type() if self.accept(":") else None
        return name, ty

    def parse_collection(self) -> CollectionDecl:
        pos = self.expect("collection").pos
        name = self.expect("capid", "a collection name").value
        self.expect("=")
        self.expect("implement")
        impl = self.parse_species_expr()
        self.accept(";")
        self.accept("end")
        self.expect(";;")
        return CollectionDecl(name, impl, pos=pos)

    # -- types --------------------------------------------------------------

    def parse_type(self) -> Type:
        t = self.parse_type_product()
        if self.accept("->"):
            t = TArrow(t, self.parse_type())
        return t

    def parse_type_product(self) -> Type:
        items = [self.parse_type_atom()]
        while self.accept("*"):
            items.append(self.parse_type_atom())
        return items[0] if len(items) == 1 else TTuple(tuple(items))

    def parse_type_atom(self) -> Type:
        tok = self.tokens[self.i]
        self.i += 1
        match tok.kind:
            case "Self":
                return TSelf()
            case "ident":
                return TCon(tok.value)
            case "capid":
                return TCap(tok.value)
            case "(":
                t = self.parse_type()
                self.expect(")")
                return t
            case _:
                raise CompileError(SYNTAX, f"expected a type, found {tok.value or tok.kind!r}", tok.pos)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        tok = self.tokens[self.i]
        match tok.kind:
            case "all" | "ex":
                self.i += 1
                vars, ty = self.parse_binder("a bound variable")
                self.formulas += 1
                return Quant(tok.kind, vars, ty, self.parse_expr(), pos=tok.pos)
            case "if":
                self.i += 1
                cond = self.parse_expr()
                self.expect("then")
                then = self.parse_expr()
                self.expect("else")
                return If(cond, then, self.parse_expr(), pos=tok.pos)
            case "match":
                return self.parse_match()
            case _:
                return self.parse_operators(_IMPLIES)

    def parse_match(self) -> Match:
        pos = self.expect("match").pos
        scrutinee = self.parse_expr()
        self.expect("with")
        arms: list[tuple[Pattern, Expr]] = []
        while self.accept("|"):
            pat = self.parse_pattern()
            self.expect("->")
            arms.append((pat, self.parse_expr()))
        if not arms:
            raise CompileError(SYNTAX, "match expression with no arms", pos)
        return Match(scrutinee, arms, pos=pos)

    def parse_pattern(self) -> Pattern:
        tok = self.tokens[self.i]
        self.i += 1
        match tok.kind:
            case "ident":
                return PWild(pos=tok.pos) if tok.value == "_" else PVar(tok.value, pos=tok.pos)
            case "capid":
                args: list[Pattern] = []
                if self.accept("("):
                    args.append(self.parse_pattern())
                    while self.accept(","):
                        args.append(self.parse_pattern())
                    self.expect(")")
                return PCon(tok.value, args, pos=tok.pos)
            case "(":
                items = [self.parse_pattern()]
                while self.accept(","):
                    items.append(self.parse_pattern())
                self.expect(")")
                return items[0] if len(items) == 1 else PTuple(items, pos=tok.pos)
            case _:
                raise CompileError(SYNTAX, f"expected a pattern, found {tok.value!r}", tok.pos)

    def parse_operators(self, low: int) -> Expr:
        """An operand and the operators of level `low` and above that follow
        it, by precedence climbing over `_BINARY`.  A prefix `~` starts an
        operand only where a negation may (`low` at most `_NOT`), and `~~`
        anywhere; each takes an operand of its own level, after which only
        looser operators follow it."""
        tok = self.tokens[self.i]
        if tok.kind == "~~":
            self.i += 1
            left = UnOp("~~", self.parse_operators(_UNARY), pos=tok.pos)
            high = _UNARY - 1
        elif tok.kind == "~" and low <= _NOT:
            self.i += 1
            self.formulas += 1
            left = Not(self.parse_operators(_NOT), pos=tok.pos)
            high = _NOT - 1
        else:
            left = self.parse_application()
            high = _UNARY - 1
        while True:
            tok = self.tokens[self.i]
            op = tok.kind
            level, after = _BINARY.get(op, (0, 0))  # level 0: not an operator
            if level < low or level > high:
                return left
            self.i += 1
            right = self.parse_expr() if level == _IMPLIES else self.parse_operators(level + 1)
            if level < _NOT:
                self.formulas += 1
                left = Connective(op, left, right, pos=tok.pos)
            elif op == "=":
                left = Eq(left, right, pos=tok.pos)
            else:
                left = BinOp(op, left, right, pos=tok.pos)
            high = after

    def parse_application(self) -> Expr:
        e = self.parse_atom()
        while self.tokens[self.i].kind == "(":
            self.i += 1
            args: list[Expr] = []
            if self.tokens[self.i].kind != ")":
                args.append(self.parse_expr())
                while self.tokens[self.i].kind == ",":
                    self.i += 1
                    args.append(self.parse_expr())
            self.expect(")")
            match e:
                case ConRef(name, []) if not isinstance(e, Call):
                    e = ConRef(name, args, pos=e.pos)
                case Var() | Qual():
                    e = Call(e, args, pos=e.pos)
                case _:
                    raise CompileError(SYNTAX, "expression is not callable", e.pos)
        return e

    def parse_atom(self) -> Expr:
        tok = self.tokens[self.i]
        match tok.kind:
            case "ident":
                self.i += 1
                return Var(tok.value, pos=tok.pos)
            case "int":
                self.i += 1
                return IntLit(int(tok.value), pos=tok.pos)
            case "string":
                self.i += 1
                return StrLit(tok.value, pos=tok.pos)
            case "true" | "false":
                self.i += 1
                return BoolLit(tok.kind == "true", pos=tok.pos)
            case "capid":
                self.i += 1
                if self.accept("!"):
                    name = self.expect("ident", "a method name")
                    return Qual(tok.value, name.value, pos=tok.pos)
                return ConRef(tok.value, [], pos=tok.pos)
            case "(":
                self.i += 1
                items = [self.parse_expr()]
                while self.accept(","):
                    items.append(self.parse_expr())
                self.expect(")")
                return items[0] if len(items) == 1 else TupleExpr(items, pos=tok.pos)
            case "if" | "match" | "all" | "ex":
                return self.parse_expr()
            case _:
                raise CompileError(
                    SYNTAX, f"expected an expression, found {tok.value or tok.kind!r}", tok.pos)

    # -- proofs ---------------------------------------------------------------

    def parse_proof(self) -> Proof:
        tok = self.tokens[self.i]
        if tok.kind in ("admitted", "by"):
            return self.parse_leaf(sibling_labels=set())
        if tok.kind == "bullet":
            depth = tok.bullet[0]
            if depth != 1:
                raise CompileError(PROOF, f"outermost proof steps must use <1>, found <{depth}>", tok.pos)
            return self.parse_steps(1)
        raise CompileError(SYNTAX, f"expected a proof, found {tok.value or tok.kind!r}", tok.pos)

    def parse_leaf(self, sibling_labels: set[tuple[int, str]]) -> ProofLeaf:
        tok = self.tokens[self.i]
        if tok.kind == "admitted":
            self.i += 1
            return ProofLeaf(admitted=True, pos=tok.pos)
        pos = self.expect("by").pos
        facts: list[Fact] = []
        while self.tokens[self.i].kind in _FACT_KEYWORDS:
            facts.append(self.parse_fact(sibling_labels))
        if not facts:
            raise CompileError(SYNTAX, "expected facts after 'by'", pos)
        return ProofLeaf(facts, pos=pos)

    def parse_fact(self, sibling_labels: set[tuple[int, str]]) -> Fact:
        tok = self.tokens[self.i]
        self.i += 1
        kind = tok.kind
        if kind == "definition":
            self.expect("of")
        if kind == "step":
            labels: list[tuple[int, str]] = []
            while True:
                b = self.expect("bullet", "a step label")
                if b.bullet not in sibling_labels:
                    raise CompileError(
                        PROOF, f"step {b.value} is not a previously closed sibling step", b.pos)
                labels.append(b.bullet)
                if not (self.accept(",") or self.tokens[self.i].kind == "bullet"):
                    break
            return Fact("step", labels=labels, pos=tok.pos)
        names: list[str] = []
        while True:
            t = self.tokens[self.i]
            if t.kind == "capid" and self.tokens[self.i + 1].kind == "!":
                if kind != "property":
                    raise CompileError(
                        PROOF, f"'{kind}' facts cannot name a parameter method", t.pos)
                self.i += 2
                m = self.expect("ident", "a method name")
                names.append(f"{t.value}!{m.value}")
            elif t.kind == "ident" or (t.kind == "capid" and kind == "hypothesis"):
                self.i += 1
                names.append(t.value)
            else:
                break
            if not self.accept(","):
                # allow space separation; stop on anything that is not a name
                t = self.tokens[self.i]
                if not (t.kind == "ident" or (t.kind == "capid" and (
                        kind == "hypothesis" or self.tokens[self.i + 1].kind == "!"))):
                    break
        if not names:
            raise CompileError(SYNTAX, f"expected names after '{kind}'", tok.pos)
        return Fact(kind, names=names, pos=tok.pos)

    def parse_binder(self, what: str) -> tuple[list[str], Type]:
        """`x y ... : t ,` after `all`, `ex` or `assume`."""
        vars = [self.expect("ident", what).value]
        while self.tokens[self.i].kind == "ident":
            vars.append(self.tokens[self.i].value)
            self.i += 1
        self.expect(":")
        ty = self.parse_type()
        self.expect(",")
        return vars, ty

    def parse_steps(self, depth: int) -> ProofSteps:
        steps: list[ProofStep] = []
        seen: set[tuple[int, str]] = set()
        tok = first = self.tokens[self.i]
        while tok.kind == "bullet" and tok.bullet[0] == depth:
            self.i += 1
            label = tok.bullet
            if label in seen:
                raise CompileError(PROOF, f"duplicate step label {tok.value}", tok.pos)
            step = ProofStep(label=label, pos=tok.pos)
            while True:
                if self.accept("assume"):
                    step.assumes.append(self.parse_binder("a variable"))
                elif self.accept("hypothesis"):
                    hname = self.tokens[self.i]
                    if hname.kind not in ("ident", "capid"):
                        raise CompileError(SYNTAX, "expected a hypothesis name, found "
                                           f"{hname.value or hname.kind!r}", hname.pos)
                    self.i += 1
                    self.expect(":")
                    stmt = self.parse_expr()
                    self.expect(",")
                    step.hyps.append((hname.value, stmt))
                else:
                    break
            if self.accept("qed"):
                step.is_qed = True
            else:
                self.expect("prove")
                step.goal = self.parse_expr()
            nxt = self.tokens[self.i]
            if nxt.kind in ("by", "admitted"):
                step.sub = self.parse_leaf(sibling_labels=seen)
            elif nxt.kind == "bullet" and nxt.bullet[0] == depth + 1:
                step.sub = self.parse_steps(depth + 1)
            elif nxt.kind == "bullet" and nxt.bullet[0] > depth + 1:
                raise CompileError(PROOF, f"step depth jumps from <{depth}> to <{nxt.bullet[0]}>", nxt.pos)
            else:
                raise CompileError(PROOF, f"step {tok.value} has no proof", tok.pos)
            seen.add(label)
            steps.append(step)
            tok = self.tokens[self.i]
        for s in steps[:-1]:
            if s.is_qed:
                raise CompileError(PROOF, "qed step before the end of a step list", s.pos)
        if not steps[-1].is_qed:
            raise CompileError(PROOF, "step list does not end in a qed step", first.pos)
        return ProofSteps(steps, pos=first.pos)


def check_stratification(lets: list[tuple[SpeciesDecl, MethodDecl]]) -> None:
    """Function bodies must stay in the computational stratum: the first
    formula node of the first of `lets`, in source order, that holds one."""
    for decl, m in lets:
        for e in expr_nodes(m.body):
            kind = type(e)
            if kind is Quant:
                raise CompileError(
                    SYNTAX, f"quantifier in the body of {decl.name}!{m.name}", e.pos)
            if kind is Connective:
                raise CompileError(
                    SYNTAX, f"formula connective '{e.op}' in the body of {decl.name}!{m.name}", e.pos)
            if kind is Not:
                raise CompileError(
                    SYNTAX,
                    f"formula negation '~' in the body of {decl.name}!{m.name} (use '~~')", e.pos)


def _parse(p: Parser, rule: Callable[[Parser], T], end: str | None = None) -> T:
    """`rule` over the tokens of `p`, then `end` of input if named.  A
    nesting too deep for the Python stack is a `DepthLimit` at the token
    the parser reached."""
    try:
        out = rule(p)
    except RecursionError:
        raise CompileError(DEPTH_LIMIT, "nested too deeply", p.tokens[p.i].pos) from None
    if end is not None:
        p.expect("eof", end)
    return out


def parse_source(text: str, file: str = "<input>") -> CompilationUnit:
    p = Parser(tokenize(text, file))
    unit = _parse(p, Parser.parse_unit)
    check_stratification(p.formula_lets)
    return unit


def parse_expr_text(text: str) -> Expr:
    return _parse(Parser(tokenize(text)), Parser.parse_expr, "end of expression")


def parse_type_text(text: str) -> Type:
    return _parse(Parser(tokenize(text)), Parser.parse_type, "end of type")
