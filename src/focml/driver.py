"""Pipeline driver: parse -> flatten -> type -> analyze -> plan.

Declarations are processed in unit order, so a species can only lean on
species and collections that precede it.  The result bundles everything the
emitters, the evaluator and the reports read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .ast import (
    CollectionDecl,
    Expr,
    Pos,
    Scheme,
    SpeciesDecl,
    SpeciesExpr,
    SpeciesParam,
    TCollCarrier,
    TParam,
    TSelf,
    Type,
    UnionTypeDecl,
    type_walk,
)
from .deps import SpeciesDeps, finish_deps, scan_species
from .errors import (
    DUPLICATE,
    INCOMPLETE,
    INTERFACE,
    PROOF,
    TYPE_MISMATCH,
    UNKNOWN,
    CompileError,
    Diagnostic,
)
from .generators import (
    CollectionExtractionPlan,
    SpeciesPlan,
    _param_method_lift,
    build_extraction_plan,
    build_species_plan,
)
from .hierarchy import (
    CollectionModel,
    MethodInfo,
    NFSpecies,
    interface_view,  # noqa: F401  perfbench/layers.py traces it by this name
    invalidate_proofs,
    make_collection,
    normalize,
    param_schemes,
    subst_expr,
    subst_proof,
)
from .parser import parse_source
from .pretty import expr_to_source, type_to_source
from .proofs import iter_leaves
from .typecheck import (
    SpeciesTypeEnv,
    TypeContext,
    Unifier,
    check_proof,
    check_statement,
    infer_expr,
    type_let,
)


@dataclass
class CompiledUnit:
    """Everything the back ends consume, keyed by declaration name."""

    unions: dict[str, UnionTypeDecl] = field(default_factory=dict)
    species: dict[str, NFSpecies] = field(default_factory=dict)
    deps: dict[str, SpeciesDeps] = field(default_factory=dict)
    plans: dict[str, SpeciesPlan] = field(default_factory=dict)
    collections: dict[str, CollectionModel] = field(default_factory=dict)
    extractions: dict[str, CollectionExtractionPlan] = field(default_factory=dict)
    decl_order: list[tuple[str, str]] = field(default_factory=list)
    constructors: dict[str, tuple[str, list[Type]]] = field(default_factory=dict)
    warnings: list[Diagnostic] = field(default_factory=list)


def compile_files(paths: list[str]) -> CompiledUnit:
    sources = [(p, Path(p).read_text()) for p in paths]
    return compile_unit(sources)


def compile_source(text: str, file: str = "<input>") -> CompiledUnit:
    return compile_unit([(file, text)])


def compile_unit(sources: list[tuple[str, str]]) -> CompiledUnit:
    cu = CompiledUnit()
    decls: list[tuple[str, object]] = []
    for file, text in sources:
        try:
            unit = parse_source(text, file)
        except CompileError as err:
            err.file = file
            raise
        decls.extend((file, d) for d in unit.decls)
    for file, decl in decls:
        before = len(cu.warnings)
        try:
            _register(cu, decl)
        except CompileError as err:
            if err.file is None:
                err.file = file
            raise
        for w in cu.warnings[before:]:
            w.file = file
    return cu


def _register(cu: CompiledUnit, decl) -> None:
    name = decl.name
    if name in cu.unions or name in cu.species or name in cu.collections:
        raise CompileError(DUPLICATE, f"duplicate declaration {name}", decl.pos)
    match decl:
        case UnionTypeDecl():
            _register_union(cu, decl)
            cu.decl_order.append(("union", name))
        case SpeciesDecl():
            _register_species(cu, decl)
            cu.decl_order.append(("species", name))
        case CollectionDecl():
            _register_collection(cu, decl)
            cu.decl_order.append(("collection", name))


# ---------------------------------------------------------------------------
# Union types


def _register_union(cu: CompiledUnit, decl: UnionTypeDecl) -> None:
    cu.unions[decl.name] = decl
    ctx = TypeContext(unions=cu.unions, collection_names=set(cu.collections))
    seen: set[str] = set()
    for cname, args in decl.constructors:
        if cname in seen or cname in cu.constructors:
            raise CompileError(
                DUPLICATE, f"duplicate constructor {cname}", decl.pos
            )
        seen.add(cname)
        cu.constructors[cname] = (
            decl.name,
            [ctx.resolve(t, decl.pos) for t in args],
        )


# ---------------------------------------------------------------------------
# Species


def _register_species(cu: CompiledUnit, decl: SpeciesDecl) -> None:
    # The header first: the parameters, then the arguments of each inherit.
    nf = NFSpecies(name=decl.name, params=list(decl.params), pos=decl.pos)
    env = _species_env(cu, nf)
    inherited = [
        arg
        for se in decl.inherits
        for arg in _check_species_args(cu, se, nf.params, se.pos)
    ]
    normalize(nf, decl, cu.species, cu.collections)
    if nf.rep is not None:
        nf.rep_resolved = env.rep = env.ctx.resolve(nf.rep, nf.pos)
    reverted = invalidate_proofs(nf)
    for rp in reverted:
        cu.warnings.append(
            Diagnostic(
                PROOF,
                f"proof of {rp.method} (from {rp.proof_origin}) is reverted: "
                f"it unfolds {rp.def_name}, redefined by {rp.def_origin}",
                rp.pos,
                severity="warning",
            )
        )
    sd = scan_species(nf, cu.deps)
    _type_species(nf, sd, env)
    # Inherit arguments may name the species' own methods.
    _type_entity_args(inherited, env)
    finish_deps(nf, sd, cu.species, cu.deps)
    cu.species[nf.name] = nf
    cu.deps[nf.name] = sd
    cu.plans[nf.name] = build_species_plan(
        nf, sd, cu.species, cu.deps, cu.plans
    )


def _species_env(cu: CompiledUnit, nf: NFSpecies) -> SpeciesTypeEnv:
    """Typing environment for one species, built parameter by parameter:
    each parameter is checked against the ones before it."""
    ctx = TypeContext(
        unions=cu.unions,
        param_names={p.name for p in nf.is_params},
        collection_names=set(cu.collections),
    )
    env = SpeciesTypeEnv(
        ctx=ctx, rep=nf.rep_resolved, constructors=cu.constructors
    )
    env.collections = {
        c: m.iface_schemes for c, m in cu.collections.items()
    }
    seen: list[SpeciesParam] = []
    for p in nf.params:
        if p.kind == "is":
            assert p.interface is not None
            args = _check_species_args(cu, p.interface, seen, p.pos)
            _type_entity_args(args, env)
            env.param_ifaces[p.name] = param_schemes(nf, p, cu.species)
        elif p.carrier not in env.param_ifaces:
            raise CompileError(
                UNKNOWN,
                f"entity parameter {p.name} needs a preceding collection "
                f"parameter, got {p.carrier}",
                p.pos,
            )
        else:
            env.entity_params[p.name] = TParam(p.carrier)
        seen.append(p)
    return env


def _check_species_args(
    cu: CompiledUnit, se: SpeciesExpr, own: list[SpeciesParam], pos: Pos
) -> list[tuple[Expr, Type, Pos]]:
    """Check `S (args)`, written as a parameter's interface or inherited,
    against the parameters of S: the arity, and each is-argument is an own
    collection parameter in `own` or a collection, either of which lists
    the formal's interface in its lineage.  `pos` places an unknown S or a
    wrong arity.  Returns each entity argument with the type it must have:
    the formal's carrier, renamed to that is-argument."""
    formal_nf = cu.species.get(se.name)
    if formal_nf is None:
        raise CompileError(UNKNOWN, f"unknown species {se.name}", pos)
    if len(se.args) != len(formal_nf.params):
        raise CompileError(
            INTERFACE,
            f"{se.name} takes {len(formal_nf.params)} argument(s), "
            f"got {len(se.args)}",
            pos,
        )
    own_is = {q.name: q for q in own if q.kind == "is"}
    carriers: dict[str, Type] = {}
    entities: list[tuple[Expr, Type, Pos]] = []
    for formal, arg in zip(formal_nf.params, se.args):
        if formal.kind == "in":
            assert formal.carrier is not None
            entities.append((arg.entity, carriers[formal.carrier], arg.pos))
            continue
        if arg.name is None:
            raise CompileError(
                INTERFACE,
                f"parameter {formal.name} of {se.name} needs a collection "
                "argument",
                arg.pos,
            )
        if arg.name in own_is:
            actual = own_is[arg.name].interface
            assert actual is not None
            lineage = cu.species[actual.name].lineage
            carriers[formal.name] = TParam(arg.name)
        elif arg.name in cu.collections:
            lineage = cu.collections[arg.name].nf.lineage
            carriers[formal.name] = TCollCarrier(arg.name)
        else:
            raise CompileError(UNKNOWN, f"unknown collection {arg.name}", arg.pos)
        assert formal.interface is not None
        if formal.interface.name not in lineage:
            raise CompileError(
                INTERFACE,
                f"{arg.name} does not implement {formal.interface.name}",
                arg.pos,
            )
    return entities


def _type_entity_args(
    args: list[tuple[Expr, Type, Pos]], env: SpeciesTypeEnv
) -> None:
    for expr, want, pos in args:
        uni = Unifier()
        uni.unify(infer_expr(expr, {}, env, uni), want, pos)


def _type_species(nf: NFSpecies, sd: SpeciesDeps, env: SpeciesTypeEnv) -> None:
    """Type the methods not carried from an ancestor, in global order."""
    group_of: dict[str, list[str]] = {}
    for g in sd.rec_groups:
        for m in g:
            group_of[m] = g
    for name in sd.order:
        mi = nf.methods[name]
        if name in group_of and env.methods.get(name) is None:
            _seed_rec_group(nf, group_of[name], env)
        if not mi.carried:
            _type_method(mi, env)
        if mi.scheme is not None:
            env.methods[name] = mi.scheme


def _type_method(mi: MethodInfo, env: SpeciesTypeEnv) -> None:
    """Type one method; record its scheme and carrier use flags."""
    # The pin is the declared signature if any, else the scheme carried
    # over from the species that first defined the method.
    stored = _declared_scheme(mi, env) or mi.scheme
    match mi.kind:
        case "signature":
            assert stored is not None
            mi.scheme = stored
            mi.carrier_decl = _mentions_self(stored.body)
        case "let":
            lt = type_let(mi, stored, env)
            mi.scheme = lt.scheme
            mi.param_types = lt.param_types
            mi.ret_type = lt.ret_type
            mi.carrier_decl = lt.touched_self or _mentions_self(lt.scheme.body)
            mi.carrier_def = lt.used_rep
        case "property" | "theorem":
            assert mi.statement is not None
            st = check_statement(mi.statement, env)
            mi.carrier_decl = st.touched_self
            if mi.proof is not None:
                pt = check_proof(mi.proof, env)
                mi.carrier_decl = mi.carrier_decl or pt.touched_self
                mi.carrier_def = pt.used_rep
            # Quantifier and assume types are emitted later: pin them
            # to their resolved forms.
            tyfn = lambda t: env.ctx.resolve(t, mi.pos)
            mi.statement = subst_expr(mi.statement, {}, {}, tyfn)
            if mi.proof is not None:
                mi.proof = subst_proof(mi.proof, {}, {}, tyfn)


def _declared_scheme(mi: MethodInfo, env: SpeciesTypeEnv) -> Scheme | None:
    if mi.ty is None:
        return None
    scheme = Scheme(0, env.ctx.resolve(mi.ty, mi.pos))
    for extra in mi.extra_sigs:
        if env.ctx.resolve(extra, mi.pos) != scheme.body:
            raise CompileError(
                TYPE_MISMATCH,
                f"conflicting signatures for {mi.name}: "
                f"{type_to_source(scheme.body)} vs {type_to_source(extra)}",
                mi.pos,
            )
    return scheme


def _seed_rec_group(
    nf: NFSpecies, group: list[str], env: SpeciesTypeEnv
) -> None:
    """Mutually recursive lets are typed against declared signatures."""
    for m in group:
        mi = nf.methods[m]
        if mi.ty is not None:
            env.methods[m] = Scheme(0, env.ctx.resolve(mi.ty, mi.pos))
        elif mi.scheme is not None:
            env.methods[m] = mi.scheme
        else:
            raise CompileError(
                TYPE_MISMATCH,
                f"mutually recursive methods need declared types: {m} has none",
                mi.pos,
                witness=list(group),
            )


def _mentions_self(t: Type) -> bool:
    return any(isinstance(n, TSelf) for n in type_walk(t))


# ---------------------------------------------------------------------------
# Collections


def _register_collection(cu: CompiledUnit, decl: CollectionDecl) -> None:
    base = cu.species.get(decl.implements.name)
    if base is not None:
        mutual = cu.deps[base.name].rec_groups
        if mutual and not base.incompleteness():
            raise CompileError(
                INCOMPLETE,
                f"species {base.name} defines mutually recursive methods, "
                "which cannot back a collection",
                decl.pos,
                witness=list(mutual[0]),
            )

    def type_entity_arg(expr: Expr, coll: str) -> None:
        model = cu.collections[coll]
        env = SpeciesTypeEnv(
            ctx=TypeContext(
                unions=cu.unions, collection_names=set(cu.collections)
            ),
            constructors=cu.constructors,
            collections={c: m.iface_schemes for c, m in cu.collections.items()},
        )
        uni = Unifier()
        got = infer_expr(expr, {}, env, uni)
        assert model.carrier is not None
        try:
            uni.unify(got, model.carrier, expr.pos)
        except CompileError:
            # A qualified call already returns the abstract carrier.
            uni.unify(got, TCollCarrier(coll), expr.pos)

    model = make_collection(decl, cu.species, cu.collections, type_entity_arg)
    cu.collections[decl.name] = model
    cu.extractions[decl.name] = build_extraction_plan(model, cu.plans)


# ---------------------------------------------------------------------------
# Dependency report


def deps_report(cu: CompiledUnit) -> dict:
    """JSON-ready view of the dependency analysis; all sets serialized in
    the owning species' global method order."""
    species: dict[str, dict] = {}
    for kind, name in cu.decl_order:
        if kind != "species":
            continue
        nf = cu.species[name]
        sd = cu.deps[name]
        index = {m: i for i, m in enumerate(sd.order)}
        methods: dict[str, dict] = {}
        for m in sd.order:
            mi = nf.methods[m]
            md = sd.methods[m]
            params: dict[str, list[dict]] = {}
            for p in nf.is_params:
                if not md.param_deps.get(p.name) and not md.param_carrier.get(
                    p.name
                ):
                    continue
                params[p.name] = [
                    {"name": w, "type": _param_method_type(cu, nf, p, w)}
                    for w in md.param_deps.get(p.name, [])
                ]
            for v in md.entity_used:
                carrier = next(
                    q.carrier for q in nf.entity_params if q.name == v
                )
                params[v] = [{"name": v, "type": carrier}]
            methods[m] = {
                "kind": mi.kind,
                "origin": mi.origin,
                "type": type_to_source(mi.scheme.body) if mi.scheme else None,
                "statement": expr_to_source(mi.statement)
                if mi.statement is not None
                else None,
                "decl": _in_order(md.decl, index),
                "def": _in_order(md.defs, index),
                "universe": _in_order(md.universe, index),
                "carrier": {"decl": mi.carrier_decl, "def": mi.carrier_def},
                "min_env": [
                    {"name": n, "keep": keep} for n, keep in md.min_env
                ],
                "params": params,
                "order_index": index[m],
                "valid_proof": mi.valid_proof,
            }
        species[name] = {"order": list(sd.order), "methods": methods}
    collections = {
        name: {
            "implements": cu.collections[name].nf.name,
            "args": [
                cu.collections[name].param_map[f]
                if k == "is"
                else expr_to_source(cu.collections[name].entity_args[f])
                for k, f in cu.collections[name].arg_order
            ],
        }
        for kind, name in cu.decl_order
        if kind == "collection"
    }
    return {"species": species, "collections": collections}


def _param_method_type(
    cu: CompiledUnit, nf: NFSpecies, p: SpeciesParam, m: str
) -> str:
    lift = _param_method_lift(nf, p, m, cu.species, m)
    if lift.ty is not None:
        return type_to_source(lift.ty)
    assert lift.statement is not None
    return expr_to_source(lift.statement)


def _in_order(names: set[str], index: dict[str, int]) -> list[str]:
    return sorted(names, key=lambda n: index[n])


def render_deps_report(cu: CompiledUnit) -> str:
    return json.dumps(deps_report(cu), indent=2) + "\n"


@dataclass
class MethodDepsView:
    """Per-method slice reconstructed from a serialized report."""

    decl: set[str]
    defs: set[str]
    universe: set[str]
    carrier_decl: bool
    carrier_def: bool
    min_env: list[tuple[str, str]]
    param_deps: dict[str, list[str]]
    order_index: int
    valid_proof: bool


def load_deps_report(data: dict) -> dict[str, dict[str, MethodDepsView]]:
    out: dict[str, dict[str, MethodDepsView]] = {}
    for sname, sdata in data["species"].items():
        out[sname] = {
            m: MethodDepsView(
                decl=set(md["decl"]),
                defs=set(md["def"]),
                universe=set(md["universe"]),
                carrier_decl=md["carrier"]["decl"],
                carrier_def=md["carrier"]["def"],
                min_env=[(e["name"], e["keep"]) for e in md["min_env"]],
                param_deps={
                    p: [e["name"] for e in entries]
                    for p, entries in md["params"].items()
                },
                order_index=md["order_index"],
                valid_proof=md["valid_proof"],
            )
            for m, md in sdata["methods"].items()
        }
    return out


def deps_view(cu: CompiledUnit) -> dict[str, dict[str, MethodDepsView]]:
    """The in-memory counterpart of load_deps_report, for round-trip checks."""
    return load_deps_report(deps_report(cu))


# ---------------------------------------------------------------------------
# Documentation output


def doc_text(cu: CompiledUnit) -> str:
    """Per-species method inventory with origins, reverted proofs and
    admitted proof steps."""
    lines: list[str] = []
    for kind, name in cu.decl_order:
        if kind == "union":
            u = cu.unions[name]
            cons = ", ".join(c for c, _ in u.constructors)
            lines.append(f"type {name} = {cons}")
            lines.append("")
            continue
        if kind == "collection":
            model = cu.collections[name]
            args = ", ".join(
                model.param_map[f]
                if k == "is"
                else expr_to_source(model.entity_args[f])
                for k, f in model.arg_order
            )
            head = f"collection {name} implements {model.nf.name}"
            lines.append(f"{head}({args})" if args else head)
            lines.append("")
            continue
        nf = cu.species[name]
        lines.append(f"species {name}")
        for m in nf.order:
            mi = nf.methods[m]
            ty = (
                type_to_source(mi.scheme.body)
                if mi.scheme is not None
                else expr_to_source(mi.statement)
                if mi.statement is not None
                else "?"
            )
            note = f"from {mi.origin}"
            if mi.kind == "theorem" and mi.proof_origin not in (None, mi.origin):
                note += f", proved in {mi.proof_origin}"
            lines.append(f"  {mi.kind} {m} : {ty} ({note})")
        for m in nf.order:
            mi = nf.methods[m]
            if mi.proof is None:
                continue
            admitted = sum(1 for leaf in iter_leaves(mi.proof) if leaf.admitted)
            if admitted:
                step = "step" if admitted == 1 else "steps"
                lines.append(f"  admitted: {m} ({admitted} proof {step})")
        for rp in nf.reverted:
            lines.append(
                f"  reverted: proof of {rp.method} (from {rp.proof_origin}) "
                f"unfolds {rp.def_name}, redefined by {rp.def_origin}"
            )
        lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
