"""Surface-syntax printer.

Prints types, expressions and proofs back to concrete syntax that reparses
to a structurally identical tree: the JSON dependency report, `doc`, the
diagnostics and the proof hole names read them.  Whole units are printed
only by the parser's round-trip test (`tests/oracles.py`).
"""

from __future__ import annotations

from typing import Iterator

from .ast import (
    BinOp, BoolLit, Call, ConRef, Connective, Eq, Expr, Fact, If, IntLit,
    Match, Not, PCon, PTuple, PVar, PWild, Pattern, ProofLeaf, ProofStep,
    ProofSteps, Proof, Qual, Quant, StrLit, TArrow, TCap, TCollCarrier, TCon,
    TParam, TSelf, TTuple, TupleExpr, Type, TVar, UnOp, Var,
)

# Binding strength, loosest first.  Parenthesize a child printed in a
# position that binds at least as tightly as the child's own level.
_LEVEL_QUANT = 0
_LEVEL_IMPL = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_NOT = 4
_LEVEL_EQ = 5
_LEVEL_BOOL = 6
_LEVEL_CMP = 7
_LEVEL_ADD = 8
_LEVEL_UNARY = 9
_LEVEL_APP = 10


def type_to_source(t: Type) -> str:
    match t:
        case TSelf():
            return "Self"
        case TCon(name) | TCap(name) | TParam(name):
            return name
        case TCollCarrier(name):
            return name
        case TArrow(arg, res):
            a = type_to_source(arg)
            if isinstance(arg, TArrow):
                a = f"({a})"
            return f"{a} -> {type_to_source(res)}"
        case TTuple(items):
            parts = []
            for it in items:
                s = type_to_source(it)
                if isinstance(it, (TArrow, TTuple)):
                    s = f"({s})"
                parts.append(s)
            return " * ".join(parts)
        case TVar(uid):
            return f"'_{uid}"
        case _:
            raise ValueError(f"cannot print type {t!r}")


def expr_to_source(e: Expr, level: int = _LEVEL_QUANT) -> str:
    def wrap(text: str, own: int) -> str:
        return f"({text})" if own < level else text

    match e:
        case IntLit(v):
            return str(v)
        case BoolLit(v):
            return "true" if v else "false"
        case StrLit(v):
            escaped = v.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        case Var(name):
            return name
        case Qual(coll, name):
            return f"{coll}!{name}"
        case ConRef(name, args):
            if not args:
                return name
            inner = ", ".join([expr_to_source(a) for a in args])
            return f"{name} ({inner})"
        case Call(callee, args):
            inner = ", ".join([expr_to_source(a) for a in args])
            return wrap(f"{expr_to_source(callee, _LEVEL_APP)} ({inner})", _LEVEL_APP)
        case TupleExpr(items):
            return "(" + ", ".join([expr_to_source(i) for i in items]) + ")"
        case UnOp(op, operand):
            return wrap(f"{op} {expr_to_source(operand, _LEVEL_UNARY)}", _LEVEL_UNARY)
        case BinOp(op, left, right):
            own = {"&&": _LEVEL_BOOL, "<0x": _LEVEL_CMP, "=0x": _LEVEL_CMP,
                   "+": _LEVEL_ADD, "-": _LEVEL_ADD}[op]
            l = expr_to_source(left, own)
            r = expr_to_source(right, own + 1)
            return wrap(f"{l} {op} {r}", own)
        case Eq(left, right):
            l = expr_to_source(left, _LEVEL_EQ + 1)
            r = expr_to_source(right, _LEVEL_EQ + 1)
            return wrap(f"{l} = {r}", _LEVEL_EQ)
        case Not(operand):
            return wrap(f"~ {expr_to_source(operand, _LEVEL_NOT)}", _LEVEL_NOT)
        case Connective(op, left, right):
            own = {"->": _LEVEL_IMPL, "\\/": _LEVEL_OR, "/\\": _LEVEL_AND}[op]
            # -> is right associative, the others are printed left associative
            if op == "->":
                l = expr_to_source(left, own + 1)
                r = expr_to_source(right, own)
            else:
                l = expr_to_source(left, own)
                r = expr_to_source(right, own + 1)
            return wrap(f"{l} {op} {r}", own)
        case Quant(kind, vars, ty, body):
            head = f"{kind} {' '.join(vars)} : {type_to_source(ty)}"
            return wrap(f"{head}, {expr_to_source(body)}", _LEVEL_QUANT)
        case If(cond, then, orelse):
            text = (f"if {expr_to_source(cond)} then {expr_to_source(then)} "
                    f"else {expr_to_source(orelse)}")
            return wrap(text, _LEVEL_QUANT)
        case Match(scrutinee, arms):
            parts = [f"match {expr_to_source(scrutinee)} with"]
            for pat, body in arms:
                parts.append(f"| {pattern_to_source(pat)} -> {expr_to_source(body)}")
            return wrap(" ".join(parts), _LEVEL_QUANT)
        case _:
            raise ValueError(f"cannot print expression {e!r}")


def pattern_to_source(p: Pattern) -> str:
    match p:
        case PWild():
            return "_"
        case PVar(name):
            return name
        case PCon(name, args):
            if not args:
                return name
            return f"{name} (" + ", ".join([pattern_to_source(a) for a in args]) + ")"
        case PTuple(items):
            return "(" + ", ".join([pattern_to_source(i) for i in items]) + ")"
        case _:
            raise ValueError(f"cannot print pattern {p!r}")


def proof_to_source(proof: Proof, indent: str) -> Iterator[str]:
    """The lines of `proof` one at a time, a sub-proof two spaces deeper
    than its step.  An explicit stack of (node, depth), not recursion: a
    proof n steps deep holds one line's indentation at a time and resumes
    no chain of n generators."""
    stack: list[tuple[Proof | ProofStep, int]] = [(proof, 0)]
    while stack:
        node, depth = stack.pop()
        match node:
            case ProofSteps(steps):
                stack.extend((step, depth) for step in reversed(steps))
            case ProofLeaf():
                yield indent + "  " * depth + _leaf_to_source(node)
            case ProofStep(sub=ProofLeaf() as leaf):
                yield f"{indent}{'  ' * depth}{_step_head(node)} {_leaf_to_source(leaf)}"
            case ProofStep(sub=sub):  # a missing sub-proof fails as the next node
                yield indent + "  " * depth + _step_head(node)
                stack.append((sub, depth + 1))
            case _:
                raise ValueError(f"cannot print proof {node!r}")


def _leaf_to_source(leaf: ProofLeaf) -> str:
    if leaf.admitted and not leaf.facts:
        return "admitted"
    return "by " + " ".join([_fact_to_source(f) for f in leaf.facts])


def _fact_to_source(f: Fact) -> str:
    if f.kind == "step":
        return "step " + ", ".join(f"<{d}>{k}" for d, k in f.labels)
    head = "definition of" if f.kind == "definition" else f.kind
    return f"{head} " + ", ".join(f.names)


def _step_head(step: ProofStep) -> str:
    depth, key = step.label
    head = [f"<{depth}>{key}"]
    for vars, ty in step.assumes:
        head.append(f"assume {' '.join(vars)} : {type_to_source(ty)},")
    for name, stmt in step.hyps:
        head.append(f"hypothesis {name} : {expr_to_source(stmt)},")
    head.append("qed" if step.is_qed else f"prove {expr_to_source(step.goal)}")
    return " ".join(head)
