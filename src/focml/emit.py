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
of the definition (`_name`).  Each renderer writes a node in one call, and
dispatches on its exact class, the frequent kinds first: `render_expr` is
told whether the node is an argument (`wrap`) and then parenthesizes a text
that is not self-delimiting.  A method has one type, so only a builtin
whose scheme has type holes (`=`, `fst`, `snd`) takes one `_` per hole in
the logical target (`_builtin_head`).

An heir's plan shares pieces with its parent's by identity. Each emit call
writes such a piece's text once, in one memo `texts` keyed by identity (the
unit holds every keyed object for the whole call): a record field by the
method's record, a creator local by its `LocalDef` and whether its generator
is the species' own (`m` or `Species.m`), outer abstractions by their list
(the record's also for the `mk_record` line), and the type of a lift, a
value parameter or a let's result, or a lift's statement, by the object and
the env fields its text reads (`_piece`).  A species builds each env once
per target, method prefix and carrier name, not once per generator.
"""

from __future__ import annotations

# CPython's own SHA-256 module: `hashlib` loads OpenSSL, about 3.6 MB of peak RSS
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a CPython built without its builtin hashes
        from hashlib import sha256

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


# ---------------------------------------------------------------------------
# Types


def render_type(t: Type, env: RenderEnv) -> str:
    # dispatch on the exact class, the frequent kinds first
    kind = type(t)
    if kind is TCon:
        return LOGICAL_TYPE_NAMES.get(t.name, f"{t.name}__t")
    if kind is TArrow:
        arg = t.arg
        if type(arg) is TArrow:
            return f"({render_type(arg, env)}) -> {render_type(t.res, env)}"
        return f"{render_type(arg, env)} -> {render_type(t.res, env)}"
    if kind is TSelf:
        assert env.self_ty is not None
        return env.self_ty
    if kind is TParam:
        assert t.name in env.params
        return env.param_ty.format(t.name)
    if kind is TCollCarrier:
        return f"{t.name}.me_as_carrier"
    if kind is TTuple:
        return "(" + " * ".join([_arg_text(render_type(i, env), i) for i in t.items]) + ")"
    raise ValueError(f"cannot render type {t!r}")


# ---------------------------------------------------------------------------
# Expressions


def render_expr(e: Expr, env: RenderEnv, wrap: bool = False) -> str:
    """The text of `e`; as an argument (`wrap`), in parentheses unless it
    is self-delimiting."""
    # dispatch on the exact class, the frequent kinds first
    kind = type(e)
    if kind is Var:
        ref = e.ref
        if ref == LOCAL:
            return e.name
        if ref == METHOD:
            return env.prefix + e.name
        if ref == ENTITY:
            return f"_p_{e.name}_{e.name}"
        text = _builtin_head(BUILTIN_FUNCTIONS[e.name], env)
        if " " not in text:
            return text
    elif kind is BinOp:
        op = e.op
        b = BUILTIN_FUNCTIONS[op]
        left, right = render_expr(e.left, env, True), render_expr(e.right, env, True)
        text = f"{left} {op} {right}" if b.infix else f"{_builtin_head(b, env)} {left} {right}"
    elif kind is IntLit:
        return str(e.value)
    elif kind is Call:
        callee, args = e.callee, e.args
        head = render_expr(callee, env, type(callee) is not Var and type(callee) is not Qual)
        if len(args) == 1:
            text = f"{head} {render_expr(args[0], env, True)}"
        else:
            text = f"{head} " + " ".join([render_expr(a, env, True) for a in args])
    elif kind is Qual:
        return f"_p_{e.coll}_{e.name}" if e.ref == PARAM else f"{e.coll}.{e.name}"
    elif kind is If:
        cond, then = render_expr(e.cond, env), render_expr(e.then, env, True)
        text = f"if ({cond}) then {then} else {render_expr(e.orelse, env, True)}"
    elif kind is Eq:
        left, right = render_expr(e.left, env, True), render_expr(e.right, env, True)
        text = f"{_builtin_head(BUILTIN_FUNCTIONS['='], env)} {left} {right}"
    elif kind is BoolLit:
        return "true" if e.value else "false"
    elif kind is StrLit:
        escaped = e.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    elif kind is UnOp:
        text = f"{_builtin_head(BUILTIN_FUNCTIONS[e.op], env)} {render_expr(e.operand, env, True)}"
    elif kind is ConRef:
        if not e.args:
            return e.name
        text = f"{e.name} " + " ".join([render_expr(a, env, True) for a in e.args])
    elif kind is TupleExpr:
        return "(" + ", ".join([render_expr(i, env) for i in e.items]) + ")"
    elif kind is Match:
        logical = env.target == "logical"
        sep = "=>" if logical else "->"
        parts = [f"match {render_expr(e.scrutinee, env)} with"]
        for pat, body in e.arms:
            parts.append(f"| {_pattern(pat, env)} {sep} {render_expr(body, env)}")
        text = " ".join(parts) + (" end" if logical else "")
    else:
        raise ValueError(f"cannot render expression {e!r}")
    return f"({text})" if wrap else text


def _builtin_head(b, env: RenderEnv) -> str:
    head = b.logical
    if env.target == "logical" and b.type_args:
        head += " _" * b.type_args
    return head


def _pattern(p: Pattern, env: RenderEnv) -> str:
    kind = type(p)
    if kind is PVar:
        return p.name
    if kind is PWild:
        return "_"
    if kind is PCon:
        if not p.args:
            return p.name
        if env.target == "logical":
            return p.name + " " + " ".join([_pattern(a, env) for a in p.args])
        return p.name + " (" + ", ".join([_pattern(a, env) for a in p.args]) + ")"
    if kind is PTuple:
        return "(" + ", ".join([_pattern(i, env) for i in p.items]) + ")"
    raise ValueError(f"cannot render pattern {p!r}")


def render_body(e: Expr, env: RenderEnv) -> str:
    """Right-hand side of a definition: infix applications stay bare."""
    return render_expr(e, env, type(e) is not BinOp or not BUILTIN_FUNCTIONS[e.op].infix)


# ---------------------------------------------------------------------------
# Formulas (logical target only)


def render_formula(e: Expr, env: RenderEnv) -> str:
    kind = type(e)
    if kind is Quant:
        head = "forall" if e.kind == "all" else "exists"
        return f"{head} {' '.join(e.vars)} : {render_type(e.ty, env)}, {render_formula(e.body, env)}"
    if kind is Connective:
        op = e.op
        if op == "->":
            return f"{_sub_formula(e.left, env)} -> {render_formula(e.right, env)}"
        return f"{_sub_formula(e.left, env)} {op} {_sub_formula(e.right, env)}"
    if kind is Not:
        operand = e.operand
        if type(operand) in (Quant, Connective, Not):
            return f"~({render_formula(operand, env)})"
        return f"~Is_true ({render_expr(operand, env, True)})"
    return f"Is_true ({render_expr(e, env, True)})"


def _sub_formula(e: Expr, env: RenderEnv) -> str:
    if type(e) is Quant or type(e) is Connective:
        return f"({render_formula(e, env)})"
    return render_formula(e, env)


# ---------------------------------------------------------------------------
# Shared plan helpers


def proof_hole_name(species: str, method: str, statement: Expr, proof) -> str:
    """The digest of the proof's lines, joined by newlines, is fed a line at a time."""
    digest = sha256(f"{species}.{method}\n{expr_to_source(statement)}\n".encode())
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
    return render_expr(a, env, True) if isinstance(a, Expr) else render_type(a, env)


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
    envs = {s: _render_env(nf, "logical", "abst_", s) for s in ("abst_T", None)}
    for gp in plan.generators.values():
        lines.extend(_generator_logical(nf, gp, envs, texts))
    if plan.record is not None:
        lines.extend(_record_logical(nf, plan, texts))
    if plan.create is not None:
        lines.extend(_create_logical(nf, plan, texts))
    lines.append(f"End {name}.")
    return lines


def _generator_logical(
    nf: NFSpecies, plan: MethodGeneratorPlan, envs: dict, texts: dict
) -> list[str]:
    """`envs` holds the generator's env by carrier name: `abst_T` where a
    lift abstracts the carrier, none otherwise."""
    env = envs["abst_T" if TSelf in [type(l.tag) for l in plan.lifts] else None]
    lifts = "".join([" " + _lift_text(l, env, texts) for l in plan.lifts])
    if plan.kind == "let":
        assert plan.body is not None and plan.ret is not None
        params = "".join(
            [f" ({n} : {_piece(render_type, t, env, texts)})" for n, t in plan.value_params]
        )
        keyword = "Fixpoint" if plan.rec else "Definition"
        ret = _piece(render_type, plan.ret, env, texts)
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
    kind = type(t)
    if kind is TCon:
        return t.name
    if kind is TArrow:
        return f"{_arg_text(_comp_type(t.arg, collections), t.arg)} -> {_comp_type(t.res, collections)}"
    if kind is TCollCarrier:
        return _comp_type(collections[t.name].carrier, collections)
    if kind is TTuple:
        return "(" + " * ".join([_arg_text(_comp_type(i, collections), i) for i in t.items]) + ")"
    raise ValueError(f"cannot render type {t!r}")


def _species_comp(cu, name: str, texts: dict) -> list[str]:
    nf: NFSpecies = cu.species[name]
    plan: SpeciesPlan = cu.plans[name]
    lines = [f"module {name} = struct"]
    env = _render_env(nf, "comp", "abst_", None)
    for gp in plan.generators.values():
        if gp.kind != "let":
            continue
        lines.append(_generator_comp(gp, env))
    if plan.record is not None:
        lines.extend(_record_comp(plan))
    if plan.create is not None:
        lines.extend(_create_comp(nf, plan, texts))
    lines.append("end")
    return lines


def _generator_comp(plan: MethodGeneratorPlan, env: RenderEnv) -> str:
    params = "".join([f" ({_name(l.tag, env)})" for l in plan.lifts if l.abstract and not l.logical])
    params += "".join([f" ({n})" for n, _ in plan.value_params])
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
