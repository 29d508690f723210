"""Target emission.

Two backends walk the same plans: a proof-oriented target where method
generators become Definitions/Theorems abstracted over their dependencies,
and an executable target that erases everything logical (statements, proofs,
carriers, type annotations) while keeping the identical module structure.
The plans decide what is erased: the executable target keeps the lifts,
record fields and creator locals that are not logical and the computational
arguments each application records.
Unproved obligations surface as content-addressed proof holes; theorems whose
proof is admitted become axioms.

A binder is its lift's tag and an argument is a tree (a type, a name or an
entity's expression), each written by the renderer of its kind in the env
of the definition (`_name`).  A method has one type, so only a builtin
whose scheme has type holes (`=`, `fst`, `snd`) takes one `_` per hole in
the logical target (`_builtin_head`).

An heir's plan shares pieces with its parent's by identity. Each emit call
writes such a piece's text once, in one memo `texts` keyed by identity (the
unit holds every keyed object for the whole call): a record field by the
method's record, a creator local by its `LocalDef` and whether its generator
is the species' own (`m` or `Species.m`), outer abstractions by their list
(the record's also for the `mk_record` line), and a lift's or parameter's
type or statement by the object and env (`_piece`).
"""

from __future__ import annotations

import hashlib

from .ast import (
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
    Qual,
    Quant,
    Record,
    StrLit,
    TArrow,
    TCollCarrier,
    TCon,
    TParam,
    TSelf,
    TTuple,
    TupleExpr,
    Type,
    UnionTypeDecl,
    UnOp,
    Var,
)
from .basics import BUILTIN_FUNCTIONS, LOGICAL_TYPE_NAMES
from .driver import plan_unit
from .generators import (
    CollectionExtractionPlan,
    GenApp,
    Lift,
    MethodGeneratorPlan,
    SpeciesPlan,
)
from .hierarchy import NFSpecies
from .pretty import expr_to_source, proof_to_source
from .resolve import ENTITY, LOCAL, METHOD, PARAM


class RenderEnv(Record):
    def __init__(
        self,
        target: str,  # 'logical' | 'comp'
        module: str = "",
        prefix: str = "",  # a method m renders as prefix + m
        params: frozenset[str] = frozenset(),  # is-parameter names
        self_ty: str | None = None,
        param_ty: str = "_p_{}_T",  # how a parameter's carrier is named
    ):
        self.target = target
        self.module = module
        self.prefix = prefix
        self.params = params
        self.self_ty = self_ty
        self.param_ty = param_ty


def _wrap(text: str, atomic: bool) -> str:
    return text if atomic else f"({text})"


# ---------------------------------------------------------------------------
# Types


def render_type(t: Type, env: RenderEnv) -> str:
    match t:
        case TSelf():
            assert env.self_ty is not None
            return env.self_ty
        case TCon(name):
            return LOGICAL_TYPE_NAMES.get(name, f"{name}__t")
        case TParam(name):
            assert name in env.params
            return env.param_ty.format(name)
        case TCollCarrier(name):
            return f"{name}.me_as_carrier"
        case TArrow(arg, res):
            a = render_type(arg, env)
            if isinstance(arg, TArrow):
                a = f"({a})"
            return f"{a} -> {render_type(res, env)}"
        case TTuple(items):
            parts = []
            for it in items:
                s = render_type(it, env)
                if isinstance(it, TArrow):
                    s = f"({s})"
                parts.append(s)
            return "(" + " * ".join(parts) + ")"
        case _:
            raise ValueError(f"cannot render type {t!r}")


# ---------------------------------------------------------------------------
# Expressions


def render_expr(e: Expr, env: RenderEnv) -> tuple[str, bool]:
    """Rendered text plus whether it is self-delimiting."""
    match e:
        case IntLit(v):
            return str(v), True
        case BoolLit(v):
            return ("true" if v else "false"), True
        case StrLit(v):
            escaped = v.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"', True
        case Var() | Qual():
            return _var_head(e, env)
        case ConRef(name, args):
            if not args:
                return name, True
            inner = " ".join([_arg(a, env) for a in args])
            return f"{name} {inner}", False
        case Call(callee, args):
            head = _call_head(callee, env)
            inner = " ".join([_arg(a, env) for a in args])
            return f"{head} {inner}", False
        case TupleExpr(items):
            inner = ", ".join([render_expr(i, env)[0] for i in items])
            return f"({inner})", True
        case UnOp(op, operand):
            b = BUILTIN_FUNCTIONS[op]
            return f"{_builtin_head(b, env)} {_arg(operand, env)}", False
        case BinOp(op, left, right):
            b = BUILTIN_FUNCTIONS[op]
            if b.infix:
                return f"{_arg(left, env)} {op} {_arg(right, env)}", False
            return (
                f"{_builtin_head(b, env)} {_arg(left, env)} {_arg(right, env)}",
                False,
            )
        case Eq(left, right):
            b = BUILTIN_FUNCTIONS["="]
            return (
                f"{_builtin_head(b, env)} {_arg(left, env)} {_arg(right, env)}",
                False,
            )
        case If(cond, then, orelse):
            c = render_expr(cond, env)[0]
            return (
                f"if ({c}) then {_arg(then, env)} else {_arg(orelse, env)}",
                False,
            )
        case Match(scrutinee, arms):
            s = render_expr(scrutinee, env)[0]
            sep = "=>" if env.target == "logical" else "->"
            parts = [f"match {s} with"]
            for pat, body in arms:
                parts.append(
                    f"| {_pattern(pat, env)} {sep} {render_expr(body, env)[0]}"
                )
            text = " ".join(parts)
            if env.target == "logical":
                text += " end"
            return text, False
        case _:
            raise ValueError(f"cannot render expression {e!r}")


def _arg(e: Expr, env: RenderEnv) -> str:
    return _wrap(*render_expr(e, env))


def _var_head(e: Var | Qual, env: RenderEnv) -> tuple[str, bool]:
    """The name `e` stands for, and whether it is self-delimiting."""
    if type(e) is Qual:
        return (f"_p_{e.coll}_{e.name}" if e.ref == PARAM else f"{e.coll}.{e.name}"), True
    if e.ref == LOCAL:
        return e.name, True
    if e.ref == ENTITY:
        return f"_p_{e.name}_{e.name}", True
    if e.ref == METHOD:
        return env.prefix + e.name, True
    head = _builtin_head(BUILTIN_FUNCTIONS[e.name], env)
    return head, " " not in head


def _builtin_head(b, env: RenderEnv) -> str:
    head = b.logical
    if env.target == "logical" and b.type_args:
        head += " _" * b.type_args
    return head


def _call_head(callee: Expr, env: RenderEnv) -> str:
    match callee:
        case Var() | Qual():
            return _var_head(callee, env)[0]
        case _:
            return _arg(callee, env)


def _pattern(p: Pattern, env: RenderEnv) -> str:
    match p:
        case PWild():
            return "_"
        case PVar(name):
            return name
        case PCon(name, args):
            if not args:
                return name
            if env.target == "logical":
                return name + " " + " ".join([_pattern(a, env) for a in args])
            return name + " (" + ", ".join([_pattern(a, env) for a in args]) + ")"
        case PTuple(items):
            return "(" + ", ".join([_pattern(i, env) for i in items]) + ")"
        case _:
            raise ValueError(f"cannot render pattern {p!r}")


def render_body(e: Expr, env: RenderEnv) -> str:
    """Right-hand side of a definition: infix applications stay bare."""
    text, atomic = render_expr(e, env)
    if atomic or (isinstance(e, BinOp) and BUILTIN_FUNCTIONS[e.op].infix):
        return text
    return f"({text})"


# ---------------------------------------------------------------------------
# Formulas (logical target only)


def render_formula(e: Expr, env: RenderEnv) -> str:
    match e:
        case Quant(kind, vars_, ty, body):
            head = "forall" if kind == "all" else "exists"
            return (
                f"{head} {' '.join(vars_)} : {render_type(ty, env)}, "
                f"{render_formula(body, env)}"
            )
        case Connective(op, left, right):
            sym = {"->": "->", "\\/": "\\/", "/\\": "/\\"}[op]
            l = _sub_formula(left, env)
            if op == "->":
                return f"{l} {sym} {render_formula(right, env)}"
            return f"{l} {sym} {_sub_formula(right, env)}"
        case Not(operand):
            if isinstance(operand, (Quant, Connective, Not)):
                return f"~({render_formula(operand, env)})"
            return f"~{_atom(operand, env)}"
        case _:
            return _atom(e, env)


def _sub_formula(e: Expr, env: RenderEnv) -> str:
    if isinstance(e, (Quant, Connective)):
        return f"({render_formula(e, env)})"
    return render_formula(e, env)


def _atom(e: Expr, env: RenderEnv) -> str:
    return f"Is_true ({_arg(e, env)})"


# ---------------------------------------------------------------------------
# Shared plan helpers


def proof_hole_name(species: str, method: str, statement: Expr, proof) -> str:
    """The digest of the proof's lines, joined by newlines, is fed a line at a time."""
    digest = hashlib.sha256(f"{species}.{method}\n{expr_to_source(statement)}\n".encode())
    sep = ""
    for line in proof_to_source(proof, ""):
        digest.update(f"{sep}{line}".encode())
        sep = "\n"
    return f"PROOF_HOLE_{species}_{method}_{digest.hexdigest()[:12]}"


def _piece(render, obj, env: RenderEnv, texts: dict) -> str:
    """`render(obj, env)` of a type or a statement, once per object and env fields."""
    key = (render, id(obj), env.self_ty, env.param_ty, env.prefix, env.target)
    text = texts.get(key)
    if text is None:
        text = texts[key] = render(obj, env)
    return text


def _render_env(
    nf: NFSpecies,
    target: str,
    prefix: str,
    self_ty: str | None,
    param_ty: str = "_p_{}_T",
) -> RenderEnv:
    """Names inside one of `nf`'s definitions: its methods under `prefix`,
    its carrier as `self_ty`, a parameter's carrier spelled by `param_ty`."""
    params = frozenset(p.name for p in nf.is_params)
    return RenderEnv(target, nf.name, prefix, params, self_ty, param_ty)


def _name(a: Type | Expr, env: RenderEnv) -> str:
    """A lift's tag as the binder it names, or a generator's argument, as
    `env` writes it: a carrier's type, a method's or an entity's name, or
    an entity's argument expression."""
    if type(a) is Var or type(a) is Qual:
        text, atomic = _var_head(a, env)
        return text if atomic else f"({text})"
    if isinstance(a, Expr):
        return _arg(a, env)
    return render_type(a, env)


def _genapp_text(gen: GenApp, env: RenderEnv) -> str:
    head = gen.method if gen.species == env.module else f"{gen.species}.{gen.method}"
    args = gen.comp_args if env.target == "comp" else gen.args
    return " ".join([head] + [_name(a, env) for a in args])


# ---------------------------------------------------------------------------
# Logical target


def emit_logical(cu) -> str:
    lines: list[str] = []  # each block's lines, then a blank line
    texts: dict = {}  # shared piece -> its text, for this call only
    for kind, name in plan_unit(cu).decl_order:
        with cu.writing(name):
            if kind == "union":
                lines.append(_inductive(cu.unions[name]))
            elif kind == "species":
                lines += _species_logical(cu, name, texts)
            else:
                lines.append(_collection_logical(cu, name))
        lines.append("")
    texts.clear()  # what no line holds goes before the text is joined
    return "\n".join(lines) if lines else "\n"


def _inductive(u: UnionTypeDecl) -> str:
    env = RenderEnv("logical")
    tname = f"{u.name}__t"
    lines = [f"Inductive {tname} : Set :="]
    for con, args in u.constructors:
        ty = " -> ".join([_arg_text(render_type(t, env), t) for t in args] + [tname])
        lines.append(f"  | {con} : {ty}")
    return "\n".join(lines) + "."


def _arg_text(text: str, t: Type) -> str:
    """The `text` of `t` as a constructor argument, a tuple item or an
    arrow's argument: an arrow in parentheses."""
    return f"({text})" if isinstance(t, TArrow) else text


def _lift_text(l: Lift, env: RenderEnv, texts: dict) -> str:
    name = _name(l.tag, env)
    if l.is_set:
        return f"({name} : Set)"
    if l.ty is not None:
        return f"({name} : {_piece(render_type, l.ty, env, texts)})"
    if l.statement is not None:
        return f"({name} : {_piece(render_formula, l.statement, env, texts)})"
    if l.bind_type is not None:
        return f"({name} := {render_type(l.bind_type, env)})"
    assert l.bind_gen is not None
    return f"({name} := {_genapp_text(l.bind_gen, env)})"


def _species_logical(cu, name: str, texts: dict) -> list[str]:
    nf: NFSpecies = cu.species[name]
    plan: SpeciesPlan = cu.plans[name]
    lines = [f"Module {name}."]
    for gp in plan.generators.values():
        lines.extend(_generator_logical(nf, gp, texts))
    if plan.record is not None:
        lines.extend(_record_logical(nf, plan, texts))
    if plan.create is not None:
        lines.extend(_create_logical(nf, plan, texts))
    lines.append(f"End {name}.")
    return lines


def _generator_logical(
    nf: NFSpecies, plan: MethodGeneratorPlan, texts: dict
) -> list[str]:
    lifts_carrier = any(type(l.tag) is TSelf for l in plan.lifts)
    self_ty = "abst_T" if lifts_carrier else None
    env = _render_env(nf, "logical", "abst_", self_ty)
    lifts = "".join([" " + _lift_text(l, env, texts) for l in plan.lifts])
    if plan.kind == "let":
        assert plan.body is not None and plan.ret is not None
        params = "".join(
            [f" ({n} : {_piece(render_type, t, env, texts)})" for n, t in plan.value_params]
        )
        keyword = "Fixpoint" if plan.rec else "Definition"
        ret = render_type(plan.ret, env)
        body = render_body(plan.body, env)
        return [f"  {keyword} {plan.method}{lifts}{params} : {ret} := {body}."]
    assert plan.statement is not None
    stmt = render_formula(plan.statement, env)
    if plan.admitted:
        return [f"  Axiom {plan.method}{lifts} : {stmt}."]
    hole = proof_hole_name(nf.name, plan.method, plan.statement, plan.proof)
    return [
        f"  Theorem {plan.method}{lifts} : {stmt}.",
        f"  apply {hole}.",
    ]


def _record_logical(nf: NFSpecies, plan: SpeciesPlan, texts: dict) -> list[str]:
    record = plan.record
    assert record is not None
    env = _render_env(nf, "logical", "rf_", "rf_T", "{}_T")
    key = ("record", id(record.abstractions))
    head = texts.get(key)
    if head is None:
        params = "".join([" " + _lift_text(l, env, texts) for l in record.abstractions])
        head = texts[key] = f"  Record me_as_species{params}" + (" : Type :=" if params else " :=")
    lines = [head, "    mk_record {", "    rf_T : Set ;"]
    for m in record.fields:
        mi = nf.methods[m]
        line = texts.get(id(mi))
        if line is None:
            if mi.statement is not None:  # a logical method
                text = render_formula(mi.statement, env)
            else:
                assert mi.scheme is not None
                text = render_type(mi.scheme.body, env)
            line = texts[id(mi)] = f"    rf_{m} : {text} ;"
        lines.append(line)
    lines[-1] = lines[-1][:-2]  # the last field ends without " ;"
    lines.append("    }.")
    return lines


def _create_logical(nf: NFSpecies, plan: SpeciesPlan, texts: dict) -> list[str]:
    create = plan.create
    assert create is not None
    env = _render_env(nf, "logical", "local_", "local_rep")
    head = texts.get(("create", id(create.outer)))
    if head is None:
        outer = "".join(
            [f" ({_name(l.tag, env)} : Set)" if l.is_set else " " + _name(l.tag, env) for l in create.outer]
        )
        head = texts[("create", id(create.outer))] = f"  Definition collection_create{outer} :="
    lines = [head]
    for ld in create.locals:
        if ld.gen is None:
            assert nf.rep is not None
            rhs = render_type(nf.rep, env)
            lines.append(f"    let local_rep := {rhs} in")
            continue
        key = (id(ld), ld.gen.species == env.module)
        line = texts.get(key)
        if line is None:
            line = texts[key] = f"    let local_{ld.name} := {_genapp_text(ld.gen, env)} in"
        lines.append(line)
    record = plan.record
    assert record is not None
    key = ("mk_record", id(record.abstractions))
    params = texts.get(key)
    if params is None:
        params = texts[key] = "".join([" " + _name(l.tag, env) for l in record.abstractions])
    fields = "".join([" local_" + m for m in record.fields])
    lines.append(f"    mk_record{params} local_rep{fields}.")
    return lines


def _collection_logical(cu, name: str) -> str:
    ext: CollectionExtractionPlan = cu.extractions[name]
    record = cu.plans[ext.species].record
    env = RenderEnv("logical", module=name)
    lines = [f"Module {name}."]
    app = _genapp_text(ext.create, env)
    lines.append(f"  Let effective_collection := {app}.")
    assert ext.carrier is not None
    lines.append(f"  Definition me_as_carrier := {render_type(ext.carrier, env)}.")
    holes = " _" * len(record.abstractions)
    for m in record.fields:
        lines.append(
            f"  Definition {m} := "
            f"effective_collection.({ext.species}.rf_{m}{holes})."
        )
    lines.append(f"End {name}.")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Computational target


def emit_comp(cu) -> str:
    lines: list[str] = []  # as in `emit_logical`
    texts: dict = {}
    for kind, name in plan_unit(cu).decl_order:
        with cu.writing(name):
            if kind == "union":
                lines.append(_union_comp(cu.unions[name], cu.collections))
            elif kind == "species":
                lines += _species_comp(cu, name, texts)
            else:
                lines.append(_collection_comp(cu, name))
        lines.append("")
    texts.clear()
    return "\n".join(lines) if lines else "\n"


def _union_comp(u: UnionTypeDecl, collections: dict) -> str:
    arms = []
    for con, args in u.constructors:
        if args:
            payload = " * ".join(_arg_text(_comp_type(t, collections), t) for t in args)
            arms.append(f"| {con} of {payload}")
        else:
            arms.append(f"| {con}")
    return f"type {u.name} = " + " ".join(arms)


def _comp_type(t: Type, collections: dict) -> str:
    """A type in a union's constructor.  The computational target declares
    no carrier type, so a collection's carrier is written as the type it
    equals, the collection's representation."""
    match t:
        case TCon(name):
            return name
        case TCollCarrier(name):
            return _comp_type(collections[name].carrier, collections)
        case TTuple(items):
            return "(" + " * ".join([_arg_text(_comp_type(i, collections), i) for i in items]) + ")"
        case TArrow(a, b):
            return f"{_arg_text(_comp_type(a, collections), a)} -> {_comp_type(b, collections)}"
        case _:
            raise ValueError(f"cannot render type {t!r}")


def _species_comp(cu, name: str, texts: dict) -> list[str]:
    nf: NFSpecies = cu.species[name]
    plan: SpeciesPlan = cu.plans[name]
    lines = [f"module {name} = struct"]
    for gp in plan.generators.values():
        if gp.kind != "let":
            continue
        lines.append(_generator_comp(nf, gp))
    if plan.record is not None:
        lines.extend(_record_comp(plan))
    if plan.create is not None:
        lines.extend(_create_comp(nf, plan, texts))
    lines.append("end")
    return lines


def _generator_comp(nf: NFSpecies, plan: MethodGeneratorPlan) -> str:
    env = _render_env(nf, "comp", "abst_", None)
    kept = [_name(l.tag, env) for l in plan.lifts if l.abstract and not l.logical]
    params = "".join(f" ({n})" for n in kept)
    params += "".join(f" ({n})" for n, _ in plan.value_params)
    keyword = "let rec" if plan.rec else "let"
    assert plan.body is not None
    return f"  {keyword} {plan.method}{params} = {render_body(plan.body, env)}"


def _record_comp(plan: SpeciesPlan) -> list[str]:
    record = plan.record
    assert record is not None
    fields = [f"rf_{m}" for m in record.comp_fields]
    inner = f"{{ {' ; '.join(fields)} }}" if fields else "{ }"
    return [f"  type me_as_species = {inner}"]


def _create_comp(nf: NFSpecies, plan: SpeciesPlan, texts: dict) -> list[str]:
    create = plan.create
    assert create is not None
    env = _render_env(nf, "comp", "local_", "local_rep")
    params = "".join(f" ({_name(l.tag, env)})" for l in create.outer if not l.logical)
    lines = [f"  let collection_create{params} ="]
    assigns = []
    for ld in create.locals:
        if ld.gen is None or ld.logical:
            continue
        key = (id(ld), ld.gen.species == env.module)
        line = texts.get(key)
        if line is None:
            line = texts[key] = f"    let local_{ld.name} = {_genapp_text(ld.gen, env)} in"
        lines.append(line)
        assigns.append(f"rf_{ld.name} = local_{ld.name}")
    record = f"{{ {' ; '.join(assigns)} }}" if assigns else "{ }"
    lines.append(f"    {record}")
    return lines


def _collection_comp(cu, name: str) -> str:
    ext: CollectionExtractionPlan = cu.extractions[name]
    record = cu.plans[ext.species].record
    env = RenderEnv("comp", module=name)
    lines = [f"module {name} = struct"]
    app = _genapp_text(ext.create, env)
    lines.append(f"  let effective_collection = {app}")
    for m in record.comp_fields:
        lines.append(
            f"  let {m} = effective_collection.{ext.species}.rf_{m}"
        )
    lines.append("end")
    return "\n".join(lines)
