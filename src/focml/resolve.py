"""Name resolution, once, in the species where a tree is written.

A method compiles once, to a generator of the species that defines it, and
heirs reuse that generator; so a free name means in every heir what it meant
where it was written.  Each `Var` is tagged a local (a parameter, a pattern,
quantified or assumed variable, a recursive let's own name), an entity
parameter, a method or a builtin, in that order; each `Qual`, and each
`P!m` a proof cites, by whether its collection is a parameter.  Type names
follow the same rule: a capitalised one becomes its parameter's carrier
(`TParam`), else its collection's (`TCollCarrier`), and a lower-case one a
builtin's shared constant or a union, all before flattening compares them.
Renaming keeps the tags, late binding applies to method-tagged names only,
and every later pass reads the tags and the resolved types.
"""

from __future__ import annotations

from typing import Collection

from .ast import Expr, Frozen, Match, MethodDecl, Pos, Proof, ProofLeaf, Qual, Quant, Var
from .ast import TCap, TCollCarrier, TCon, TParam, Type, expr_children, pattern_vars, type_map
from .basics import BUILTIN_FUNCTIONS, BUILTIN_TYPES
from .errors import PROOF, UNKNOWN, CompileError

LOCAL, ENTITY, METHOD, BUILTIN = "local", "entity", "method", "builtin"
PARAM, COLLECTION = "param", "collection"


class Names(Frozen):
    """What a name can refer to where a tree is written."""

    def __init__(
        self,
        entities: Collection[str] = (),
        methods: Collection[str] = (),
        params: Collection[str] = (),  # collection parameters
        collections: Collection[str] = (),
        unions: Collection[str] = (),
    ):
        d = self.__dict__
        d["entities"] = entities
        d["methods"] = methods
        d["params"] = params
        d["collections"] = collections
        d["unions"] = unions


def resolve_type(t: Type, names: Names, pos: Pos) -> Type:
    """`t` with each type name resolved where it is written; an unknown one
    is an error at `pos`."""

    def step(n: Type) -> Type:
        kind = type(n)
        if kind is TCap:
            if n.name in names.params:
                return TParam(n.name)
            if n.name in names.collections:
                return TCollCarrier(n.name)
        elif kind is TCon:
            if n.name in BUILTIN_TYPES:
                return BUILTIN_TYPES[n.name]
            if n.name in names.unions:
                return n
        else:
            return n
        raise CompileError(UNKNOWN, f"unknown type {n.name}", pos)

    return type_map(t, step)


def resolve(
    e: Expr, names: Names, bound: frozenset[str] = frozenset(), strict: bool = True
) -> None:
    """Tag every `Var` and `Qual` of `e` in place, in source order.  An
    unknown name is an error when `strict` and stays untagged otherwise."""
    kind = type(e)
    if kind is Var:
        name = e.name
        if name in bound:
            e.ref = LOCAL
        elif name in names.entities:
            e.ref = ENTITY
        elif name in names.methods:
            e.ref = METHOD
        elif name in BUILTIN_FUNCTIONS:
            e.ref = BUILTIN
        elif strict:
            raise CompileError(UNKNOWN, f"unknown name {name}", e.pos)
    elif kind is Qual:
        e.ref = PARAM if e.coll in names.params else COLLECTION
        if strict and e.ref == COLLECTION and e.coll not in names.collections:
            raise CompileError(UNKNOWN, f"unknown collection {e.coll}", e.pos)
    elif kind is Quant:
        if strict:
            e.ty = resolve_type(e.ty, names, e.pos)
        resolve(e.body, names, bound | set(e.vars), strict)
    elif kind is Match:
        resolve(e.scrutinee, names, bound, strict)
        for pat, body in e.arms:
            resolve(body, names, bound | set(pattern_vars(pat)), strict)
    else:
        for c in expr_children(e):
            resolve(c, names, bound, strict)


def resolve_method(m: MethodDecl, names: Names) -> None:
    """Resolve the types and trees of one method as its species writes them."""
    opt = lambda t: None if t is None else resolve_type(t, names, m.pos)
    m.ty, m.ret = opt(m.ty), opt(m.ret)
    m.params = [(n, opt(t)) for n, t in m.params]
    if m.body is not None:
        own = {m.name} if m.rec else set()
        resolve(m.body, names, frozenset(own.union(n for n, _ in m.params)))
    if m.statement is not None:
        resolve(m.statement, names)
    if m.proof is not None:
        _resolve_proof(m.proof, names, frozenset())


def _resolve_proof(proof: Proof, names: Names, bound: frozenset[str]) -> None:
    if isinstance(proof, ProofLeaf):
        for f in proof.facts:
            f.refs = [_fact_ref(n, names) for n in f.names]
            if f.kind == "type":  # `by type t` cites a builtin or a union
                for n in f.names:
                    if n not in BUILTIN_TYPES and n not in names.unions:
                        raise CompileError(PROOF, f"unknown type {n}", f.pos)
        return
    for step in proof.steps:
        step.assumes = [(vs, resolve_type(t, names, step.pos)) for vs, t in step.assumes]
        inner = bound | {v for vs, _ in step.assumes for v in vs}
        for _, stmt in step.hyps:
            resolve(stmt, names, inner)
        if step.goal is not None:
            resolve(step.goal, names, inner)
        if step.sub is not None:
            _resolve_proof(step.sub, names, inner)


def _fact_ref(name: str, names: Names) -> str | None:
    """`P!m` cites a method of a parameter or of a collection, as a `Qual`."""
    coll, bang, _ = name.partition("!")
    if not bang:
        return None
    return PARAM if coll in names.params else COLLECTION
