"""Target emission.

Two backends walk the same plans: a proof-oriented target where method
generators become Definitions/Theorems abstracted over their dependencies,
and an executable target that erases everything logical (statements, proofs,
carriers, type annotations) while keeping the identical module structure.
The plans decide what is erased: the executable target keeps the lifts that
are not logical and the computational arguments each application records.
Unproved obligations surface as content-addressed proof holes; theorems whose
proof is admitted become axioms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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
    StrLit,
    TArrow,
    TCollCarrier,
    TCon,
    TGen,
    TParam,
    TSelf,
    TTuple,
    TupleExpr,
    Type,
    UnionTypeDecl,
    UnOp,
    Var,
    pattern_vars,
    type_walk,
)
from .basics import BUILTIN_FUNCTIONS, LOGICAL_TYPE_NAMES
from .generators import (
    CollectionExtractionPlan,
    GenApp,
    Lift,
    MethodGeneratorPlan,
    SpeciesPlan,
)
from .hierarchy import MethodInfo, NFSpecies
from .pretty import expr_to_source, proof_to_source


@dataclass
class RenderEnv:
    target: str  # 'logical' | 'comp'
    module: str = ""
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    prefix: str = ""  # a method m renders as prefix + m
    rec_name: str | None = None  # rendered as itself: self-recursion
    entities: frozenset[str] = frozenset()
    locals: frozenset[str] = frozenset()
    params: frozenset[str] = frozenset()  # is-parameter names, for P!m
    self_ty: str | None = None
    param_ty: str = "_p_{}_T"  # how a parameter's carrier is named

    def with_locals(self, names) -> "RenderEnv":
        out = RenderEnv(**vars(self))
        out.locals = self.locals | set(names)
        return out


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
        case TGen(idx):
            return f"__t{idx}"
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


def render_scheme_type(t: Type, env: RenderEnv) -> str:
    """A possibly polymorphic annotation: quantify generics up front."""
    ids = sorted({n.idx for n in type_walk(t) if isinstance(n, TGen)})
    body = render_type(t, env)
    if not ids:
        return body
    names = " ".join(f"__t{i}" for i in ids)
    return f"forall {names} : Set, {body}"


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
        case Var(name):
            return _var_head(name, env)
        case Qual(coll, name):
            if coll in env.params:
                return f"_p_{coll}_{name}", True
            return f"{coll}.{name}", True
        case ConRef(name, args):
            if not args:
                return name, True
            inner = " ".join(_arg(a, env) for a in args)
            return f"{name} {inner}", False
        case Call(callee, args):
            head = _call_head(callee, env)
            inner = " ".join(_arg(a, env) for a in args)
            return f"{head} {inner}", False
        case TupleExpr(items):
            inner = ", ".join(render_expr(i, env)[0] for i in items)
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
                inner = env.with_locals(pattern_vars(pat))
                parts.append(
                    f"| {_pattern(pat, env)} {sep} {render_expr(body, inner)[0]}"
                )
            text = " ".join(parts)
            if env.target == "logical":
                text += " end"
            return text, False
        case _:
            raise ValueError(f"cannot render expression {e!r}")


def _arg(e: Expr, env: RenderEnv) -> str:
    return _wrap(*render_expr(e, env))


def _var_head(name: str, env: RenderEnv) -> tuple[str, bool]:
    if name in env.locals:
        return name, True
    if name in env.entities:
        return f"_p_{name}_{name}", True
    if name in env.methods:
        return (name if name == env.rec_name else env.prefix + name), True
    b = BUILTIN_FUNCTIONS.get(name)
    if b is not None:
        head = _builtin_head(b, env)
        return head, " " not in head
    raise ValueError(f"unbound name {name} during emission")


def _builtin_head(b, env: RenderEnv) -> str:
    head = b.logical
    if env.target == "logical" and b.type_args:
        head += " _" * b.type_args
    return head


def _call_head(callee: Expr, env: RenderEnv) -> str:
    match callee:
        case Var(name):
            return _var_head(name, env)[0]
        case Qual():
            return render_expr(callee, env)[0]
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
                return name + " " + " ".join(_pattern(a, env) for a in args)
            return name + " (" + ", ".join(_pattern(a, env) for a in args) + ")"
        case PTuple(items):
            return "(" + ", ".join(_pattern(i, env) for i in items) + ")"
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
            inner = env.with_locals(vars_)
            return (
                f"{head} {' '.join(vars_)} : {render_type(ty, env)}, "
                f"{render_formula(body, inner)}"
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
    stmt = expr_to_source(statement)
    body = "\n".join(proof_to_source(proof, ""))
    digest = hashlib.sha256(
        f"{species}.{method}\n{stmt}\n{body}".encode()
    ).hexdigest()[:12]
    return f"PROOF_HOLE_{species}_{method}_{digest}"


def _render_env(
    nf: NFSpecies,
    target: str,
    prefix: str,
    self_ty: str | None,
    param_ty: str = "_p_{}_T",
    rec_name: str | None = None,
) -> RenderEnv:
    """Names inside one of `nf`'s definitions: its methods under `prefix`,
    its carrier as `self_ty`, a parameter's carrier spelled by `param_ty`."""
    return RenderEnv(
        target,
        module=nf.name,
        methods=nf.methods,
        prefix=prefix,
        rec_name=rec_name,
        entities=frozenset(p.name for p in nf.entity_params),
        params=frozenset(p.name for p in nf.is_params),
        self_ty=self_ty,
        param_ty=param_ty,
    )


def _atom_text(a, env: RenderEnv) -> str:
    match a:
        case ("param_carrier", p):
            return f"_p_{p}_T"
        case ("coll_carrier", c):
            return f"{c}.me_as_carrier"
        case ("param_method", p, m):
            return f"_p_{p}_{m}"
        case ("coll_method", c, m):
            return f"{c}.{m}"
        case ("param_entity", v):
            return f"_p_{v}_{v}"
        case ("entity_expr", e):
            return _arg(e, env)
        case ("self_carrier",):
            assert env.self_ty is not None
            return env.self_ty
        case ("self_method", m):
            return env.prefix + m
        case _:
            raise ValueError(f"unknown argument atom {a!r}")


def _genapp_text(gen: GenApp, env: RenderEnv) -> str:
    head = gen.method if gen.species == env.module else f"{gen.species}.{gen.method}"
    args = gen.comp_args if env.target == "comp" else gen.args
    return " ".join([head] + [_atom_text(a, env) for a in args])


# ---------------------------------------------------------------------------
# Logical target


def emit_logical(cu) -> str:
    blocks: list[str] = []
    for kind, name in cu.decl_order:
        if kind == "union":
            blocks.append(_inductive(cu.unions[name]))
        elif kind == "species":
            blocks.append(_species_logical(cu, name))
        else:
            blocks.append(_collection_logical(cu, name))
    return "\n\n".join(blocks) + "\n"


def _inductive(u: UnionTypeDecl) -> str:
    env = RenderEnv("logical")
    tname = f"{u.name}__t"
    lines = [f"Inductive {tname} : Set :="]
    for con, args in u.constructors:
        ty = " -> ".join([render_type(t, env) for t in args] + [tname])
        lines.append(f"  | {con} : {ty}")
    return "\n".join(lines) + "."


def _lift_text(l: Lift, env: RenderEnv) -> str:
    if l.is_set:
        return f"({l.name} : Set)"
    if l.ty is not None:
        return f"({l.name} : {render_scheme_type(l.ty, env)})"
    if l.statement is not None:
        return f"({l.name} : {render_formula(l.statement, env)})"
    if l.bind_type is not None:
        return f"({l.name} := {render_type(l.bind_type, env)})"
    assert l.bind_gen is not None
    return f"({l.name} := {_genapp_text(l.bind_gen, env)})"


def _species_logical(cu, name: str) -> str:
    nf: NFSpecies = cu.species[name]
    plan: SpeciesPlan = cu.plans[name]
    lines = [f"Module {name}."]
    for gp in plan.generators.values():
        lines.extend(_generator_logical(nf, gp))
    if plan.record is not None:
        lines.extend(_record_logical(nf, plan))
    if plan.create is not None:
        lines.extend(_create_logical(nf, plan))
    lines.append(f"End {name}.")
    return "\n".join(lines)


def _generator_logical(nf: NFSpecies, plan: MethodGeneratorPlan) -> list[str]:
    lifts_carrier = any(l.tag == ("self_carrier",) for l in plan.lifts)
    self_ty = "abst_T" if lifts_carrier else None
    env = _render_env(nf, "logical", "abst_", self_ty, rec_name=plan.method)
    lifts = "".join(" " + _lift_text(l, env) for l in plan.lifts)
    if plan.kind == "let":
        assert plan.body is not None and plan.ret is not None
        inner = env.with_locals(n for n, _ in plan.value_params)
        params = "".join(
            f" ({n} : {render_scheme_type(t, env)})" for n, t in plan.value_params
        )
        keyword = "Fixpoint" if plan.rec else "Definition"
        ret = render_type(plan.ret, env)
        body = render_body(plan.body, inner)
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


def _record_logical(nf: NFSpecies, plan: SpeciesPlan) -> list[str]:
    record = plan.record
    assert record is not None
    env = _render_env(nf, "logical", "rf_", "rf_T", param_ty="{}_T")
    params = "".join(" " + _lift_text(l, env) for l in record.abstractions)
    head = f"  Record me_as_species{params}"
    head += " : Type :=" if record.abstractions else " :="
    lines = [head, "    mk_record {"]
    fields = ["    rf_T : Set"]
    for m in record.fields:
        mi = nf.methods[m]
        if mi.is_logical:
            assert mi.statement is not None
            fields.append(f"    rf_{m} : {render_formula(mi.statement, env)}")
        else:
            assert mi.scheme is not None
            fields.append(f"    rf_{m} : {render_scheme_type(mi.scheme.body, env)}")
    lines.extend(f"{f} ;" for f in fields[:-1])
    lines.append(fields[-1])
    lines.append("    }.")
    return lines


def _create_logical(nf: NFSpecies, plan: SpeciesPlan) -> list[str]:
    create = plan.create
    assert create is not None
    env = _render_env(nf, "logical", "local_", "local_rep")
    outer_parts = []
    for l in create.outer:
        if l.is_set:
            outer_parts.append(f" ({l.name} : Set)")
        else:
            outer_parts.append(f" {l.name}")
    lines = [f"  Definition collection_create{''.join(outer_parts)} :="]
    for ld in create.locals:
        if ld.gen is None:
            assert nf.rep_resolved is not None
            rhs = render_type(nf.rep_resolved, env)
            lines.append(f"    let local_rep := {rhs} in")
        else:
            lines.append(f"    let local_{ld.name} := {_genapp_text(ld.gen, env)} in")
    args = " ".join(_atom_text(t, env) for t in create.record_args)
    lines.append(f"    mk_record {args}.")
    return lines


def _create_app(ext: CollectionExtractionPlan) -> GenApp:
    return GenApp(ext.species, "collection_create", ext.create_args, ext.comp_args)


def _collection_logical(cu, name: str) -> str:
    ext: CollectionExtractionPlan = cu.extractions[name]
    env = RenderEnv("logical", module=name)
    lines = [f"Module {name}."]
    app = _genapp_text(_create_app(ext), env)
    lines.append(f"  Let effective_collection := {app}.")
    assert ext.carrier is not None
    lines.append(f"  Definition me_as_carrier := {render_type(ext.carrier, env)}.")
    holes = " _" * ext.record_params
    for m, _logical in ext.methods:
        lines.append(
            f"  Definition {m} := "
            f"effective_collection.({ext.species}.rf_{m}{holes})."
        )
    lines.append(f"End {name}.")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Computational target


def emit_comp(cu) -> str:
    blocks: list[str] = []
    for kind, name in cu.decl_order:
        if kind == "union":
            blocks.append(_union_comp(cu.unions[name]))
        elif kind == "species":
            blocks.append(_species_comp(cu, name))
        else:
            blocks.append(_collection_comp(cu, name))
    return "\n\n".join(blocks) + "\n"


def _union_comp(u: UnionTypeDecl) -> str:
    arms = []
    for con, args in u.constructors:
        if args:
            payload = " * ".join(_comp_type(t) for t in args)
            arms.append(f"| {con} of {payload}")
        else:
            arms.append(f"| {con}")
    return f"type {u.name} = " + " ".join(arms)


def _comp_type(t: Type) -> str:
    match t:
        case TCon(name):
            return name
        case TTuple(items):
            return "(" + " * ".join(_comp_type(i) for i in items) + ")"
        case TArrow(a, b):
            return f"{_comp_type(a)} -> {_comp_type(b)}"
        case _:
            return "_"


def _species_comp(cu, name: str) -> str:
    nf: NFSpecies = cu.species[name]
    plan: SpeciesPlan = cu.plans[name]
    lines = [f"module {name} = struct"]
    for gp in plan.generators.values():
        if gp.kind != "let":
            continue
        lines.append(_generator_comp(nf, gp))
    if plan.record is not None:
        lines.extend(_record_comp(nf, plan))
    if plan.create is not None:
        lines.extend(_create_comp(nf, plan))
    lines.append("end")
    return "\n".join(lines)


def _generator_comp(nf: NFSpecies, plan: MethodGeneratorPlan) -> str:
    env = _render_env(nf, "comp", "abst_", None, rec_name=plan.method)
    kept = [l.name for l in plan.lifts if l.abstract and not l.logical]
    params = "".join(f" ({n})" for n in kept)
    params += "".join(f" ({n})" for n, _ in plan.value_params)
    inner = env.with_locals(n for n, _ in plan.value_params)
    keyword = "let rec" if plan.rec else "let"
    assert plan.body is not None
    return f"  {keyword} {plan.method}{params} = {render_body(plan.body, inner)}"


def _record_comp(nf: NFSpecies, plan: SpeciesPlan) -> list[str]:
    record = plan.record
    assert record is not None
    fields = [f"rf_{m}" for m in record.fields if not nf.methods[m].is_logical]
    inner = f"{{ {' ; '.join(fields)} }}" if fields else "{ }"
    return [f"  type me_as_species = {inner}"]


def _create_comp(nf: NFSpecies, plan: SpeciesPlan) -> list[str]:
    create = plan.create
    assert create is not None
    env = _render_env(nf, "comp", "local_", "local_rep")
    params = "".join(f" ({l.name})" for l in create.outer if not l.logical)
    lines = [f"  let collection_create{params} ="]
    assigns = []
    for ld in create.locals:
        if ld.gen is None or nf.methods[ld.name].is_logical:
            continue
        lines.append(f"    let local_{ld.name} = {_genapp_text(ld.gen, env)} in")
        assigns.append(f"rf_{ld.name} = local_{ld.name}")
    record = f"{{ {' ; '.join(assigns)} }}" if assigns else "{ }"
    lines.append(f"    {record}")
    return lines


def _collection_comp(cu, name: str) -> str:
    ext: CollectionExtractionPlan = cu.extractions[name]
    env = RenderEnv("comp", module=name)
    lines = [f"module {name} = struct"]
    app = _genapp_text(_create_app(ext), env)
    lines.append(f"  let effective_collection = {app}")
    for m, logical in ext.methods:
        if logical:
            continue
        lines.append(
            f"  let {m} = effective_collection.{ext.species}.rf_{m}"
        )
    lines.append("end")
    return "\n".join(lines)
