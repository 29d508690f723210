"""Pipeline driver: parse -> flatten -> type -> analyze -> plan.

Declarations are processed in unit order, so a species can only lean on
species and collections that precede it.  The result bundles everything the
emitters, the evaluator and the reports read.
"""

from __future__ import annotations

from json import dumps
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

from .ast import (
    CollectionDecl,
    Expr,
    MethodDecl,
    Pos,
    Record,
    Scheme,
    SpeciesDecl,
    SpeciesExpr,
    SpeciesParam,
    TCollCarrier,
    TParam,
    TSelf,
    Type,
    UnionTypeDecl,
    same,
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
    depth_limit_at,
)
from .generators import (
    CollectionExtractionPlan,
    SpeciesPlan,
    _param_method_lift,
    build_extraction_plan,
    build_species_plan,
)
from .hierarchy import (
    Args,
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
from .resolve import COLLECTION, Names, resolve, resolve_method
from .typecheck import (
    SpeciesTypeEnv,
    TypeContext,
    Unifier,
    check_proof,
    check_statement,
    infer_expr,
    type_let,
)


class CompiledUnit(Record):
    """Everything the back ends consume, keyed by declaration name."""

    __match_args__ = (
        "unions", "species", "deps", "plans", "collections", "extractions", "decl_order",
        "constructors", "warnings", "files",
    )

    def __init__(
        self,
        unions: dict[str, UnionTypeDecl] | None = None,
        species: dict[str, NFSpecies] | None = None,
        deps: dict[str, SpeciesDeps] | None = None,
        plans: dict[str, SpeciesPlan] | None = None,
        collections: dict[str, CollectionModel] | None = None,
        extractions: dict[str, CollectionExtractionPlan] | None = None,
        decl_order: list[tuple[str, str]] | None = None,
        constructors: dict[str, tuple[str, list[Type]]] | None = None,
        warnings: list[Diagnostic] | None = None,
        files: dict[str, str] | None = None,
    ):
        self.unions = {} if unions is None else unions
        self.species = {} if species is None else species
        self.deps = {} if deps is None else deps
        self.plans = {} if plans is None else plans
        self.collections = {} if collections is None else collections
        self.extractions = {} if extractions is None else extractions
        self.decl_order = [] if decl_order is None else decl_order
        self.constructors = {} if constructors is None else constructors
        self.warnings = [] if warnings is None else warnings
        self.files = {} if files is None else files  # declaration -> its file

    def writing(self, name: str):
        """A `RecursionError` writing declaration `name` is a `DepthLimit` there."""
        decl = self.unions.get(name) or self.species.get(name) or self.collections[name]
        return depth_limit_at(decl.pos, self.files.get(name))


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
        cu.files[decl.name] = file
        try:
            with depth_limit_at(decl.pos):
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
    inherit_args = [
        _check_species_args(cu, se, nf.params, se.pos) for se in decl.inherits
    ]
    # The species' own text is resolved here, once (`resolve`): its inherit
    # arguments before renaming copies them, its methods after flattening.
    methods = {m.name for m in decl.methods if m.kind != "proof_of"}
    methods.update(*(cu.species[se.name].methods for se in decl.inherits))
    names = Names(env.entity_params, methods, env.param_ifaces, env.collections)
    for args in inherit_args:
        _resolve_entity_args(args, names)
    normalize(nf, decl, inherit_args, cu.species, cu.collections)
    for m in decl.methods:
        resolve_method(m, names)
        _check_collection_facts(cu, m)
    if nf.rep is not None:
        nf.rep_resolved = env.rep = env.ctx.resolve(nf.rep, nf.pos)
    parent = _extended_parent(cu, decl, nf)
    reverted = invalidate_proofs(nf, parent, parent and cu.deps[parent.name].methods)
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
    sd = scan_species(nf, cu.deps, parent)
    _type_species(nf, sd, env)
    # Inherit arguments may name the species' own methods.
    for se, args in zip(decl.inherits, inherit_args):
        _type_entity_args(cu, se, args, env)
    finish_deps(nf, sd, cu.species, cu.deps, parent)
    cu.species[nf.name] = nf
    cu.deps[nf.name] = sd
    cu.plans[nf.name] = build_species_plan(
        nf, sd, cu.species, cu.deps, cu.plans, parent
    )


def _extended_parent(
    cu: CompiledUnit, decl: SpeciesDecl, nf: NFSpecies
) -> NFSpecies | None:
    """The species `nf` inherits first, when `nf` has its parameters and
    passes each as itself, so that `normalize` shared the parent's trees
    and `ancestor_args` entries: then the passes after flattening extend
    the parent's results instead of computing their own.  The lineage of
    `nf` starts with the parent's (`merge_lineages`)."""
    if not decl.inherits:
        return None
    parent = cu.species[decl.inherits[0].name]
    assert nf.lineage[: len(parent.lineage)] == parent.lineage
    if not same(parent.params, nf.params):
        return None
    if nf.ancestor_args[parent.name] is not parent.ancestor_args[parent.name]:
        return None  # a formal is renamed
    return parent


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
            names = Names(env.entity_params, (), env.param_ifaces, env.collections)
            _resolve_entity_args(args, names)
            _type_entity_args(cu, p.interface, args, env)
            nf.iface_args[p.name] = args
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


def _check_collection_facts(cu: CompiledUnit, m: MethodDecl) -> None:
    """A `by property C!m` fact names a collection `C` and a method of it."""
    if m.proof is None:
        return
    for leaf in iter_leaves(m.proof):
        for f in leaf.facts:
            for name, ref in zip(f.names, f.refs):
                if ref != COLLECTION:
                    continue
                coll, _, method = name.partition("!")
                if coll not in cu.collections:
                    raise CompileError(UNKNOWN, f"unknown collection {coll}", f.pos)
                if method not in cu.collections[coll].nf.methods:
                    raise CompileError(UNKNOWN, f"{coll} has no method {method}", f.pos)


def _check_species_args(
    cu: CompiledUnit, se: SpeciesExpr, own: list[SpeciesParam], pos: Pos
) -> Args:
    """Check `S (args)`, written as a parameter's interface or inherited,
    against the parameters of S: the arity, and each is-argument is an own
    collection parameter in `own` or a collection, either of which lists
    the formal's interface in its lineage.  `pos` places an unknown S or a
    wrong arity.  This decides, once, what each argument denotes: returns
    the actual of each formal, `TParam` for an own parameter and
    `TCollCarrier` for a collection, an entity argument as its expression."""
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
    is_params = {q.name: q for q in own if q.kind == "is"}
    args: Args = {}
    for formal, arg in zip(formal_nf.params, se.args):
        if formal.kind == "in":
            args[formal.name] = arg.entity
            continue
        if arg.name is None:
            raise CompileError(
                INTERFACE,
                f"parameter {formal.name} of {se.name} needs a collection "
                "argument",
                arg.pos,
            )
        if arg.name in is_params:
            actual = is_params[arg.name].interface
            assert actual is not None
            lineage = cu.species[actual.name].lineage
            args[formal.name] = TParam(arg.name)
        elif arg.name in cu.collections:
            lineage = cu.collections[arg.name].nf.lineage
            args[formal.name] = TCollCarrier(arg.name)
        else:
            raise CompileError(UNKNOWN, f"unknown collection {arg.name}", arg.pos)
        assert formal.interface is not None
        if formal.interface.name not in lineage:
            raise CompileError(
                INTERFACE,
                f"{arg.name} does not implement {formal.interface.name}",
                arg.pos,
            )
    return args


def _resolve_entity_args(args: Args, names: Names) -> None:
    for a in args.values():
        if isinstance(a, Expr):
            resolve(a, names)


def _type_entity_args(
    cu: CompiledUnit, se: SpeciesExpr, args: Args, env: SpeciesTypeEnv
) -> None:
    """Each entity argument of `se` must have its formal's carrier, renamed
    to that is-argument."""
    for formal, arg in zip(cu.species[se.name].params, se.args):
        if formal.kind == "in":
            uni = Unifier()
            got = infer_expr(args[formal.name], {}, env, uni)
            uni.unify(got, args[formal.carrier], arg.pos)


def _type_species(nf: NFSpecies, sd: SpeciesDeps, env: SpeciesTypeEnv) -> None:
    """Type the methods not carried from an ancestor, in global order.  A
    carried method is typed again when a method it declares a dependency on
    was typed again here to another scheme."""
    group_of: dict[str, list[str]] = {}
    for g in sd.rec_groups:
        for m in g:
            group_of[m] = g
    changed: set[str] = set()
    for name in sd.order:
        mi = nf.methods[name]
        if name in group_of and env.methods.get(name) is None:
            _seed_rec_group(nf, group_of[name], env)
        if changed and mi.carried and not changed.isdisjoint(sd.methods[name].decl):
            mi.carried = False
        if not mi.carried:
            carried_scheme = mi.scheme
            _type_method(mi, env)
            if not same(mi.scheme, carried_scheme):
                changed.add(name)
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
            mi.statement = subst_expr(mi.statement, {}, tyfn)
            if mi.proof is not None:
                mi.proof = subst_proof(mi.proof, {}, tyfn)


def _declared_scheme(mi: MethodInfo, env: SpeciesTypeEnv) -> Scheme | None:
    if mi.ty is None:
        return None
    scheme = Scheme(0, env.ctx.resolve(mi.ty, mi.pos))
    for extra in mi.extra_sigs:
        if not same(env.ctx.resolve(extra, mi.pos), scheme.body):
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
        resolve(expr, Names(collections=cu.collections))
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
    report: dict[str, dict] = {"species": {}, "collections": {}}
    for kind, name in cu.decl_order:
        with cu.writing(name):
            if kind == "species":
                report["species"][name] = _species_report(cu, name)
            elif kind == "collection":
                model = cu.collections[name]
                report["collections"][name] = {
                    "implements": model.nf.name,
                    "args": _collection_args(model),
                }
    return report


def _species_report(cu: CompiledUnit, name: str) -> dict:
    nf = cu.species[name]
    sd = cu.deps[name]
    index = {m: i for i, m in enumerate(sd.order)}
    methods: dict[str, dict] = {}
    for m in sd.order:
        mi = nf.methods[m]
        md = sd.methods[m]
        params: dict[str, list[dict]] = {}
        for p in nf.is_params:
            if not md.param_deps.get(p.name) and not md.param_carrier.get(p.name):
                continue
            params[p.name] = [
                {"name": w, "type": _param_method_type(cu, nf, p, w)}
                for w in md.param_deps.get(p.name, [])
            ]
        for v in md.entity_used:
            carrier = next(q.carrier for q in nf.entity_params if q.name == v)
            params[v] = [{"name": v, "type": carrier}]
        methods[m] = {
            "kind": mi.kind,
            "origin": mi.origin,
            "type": type_to_source(mi.scheme.body) if mi.scheme else None,
            "statement": expr_to_source(mi.statement) if mi.statement is not None else None,
            "decl": _in_order(md.decl, index),
            "def": _in_order(md.defs, index),
            "universe": _in_order(md.universe, index),
            "carrier": {"decl": mi.carrier_decl, "def": mi.carrier_def},
            "min_env": [{"name": n, "keep": keep} for n, keep in md.min_env],
            "params": params,
            "order_index": index[m],
            "valid_proof": mi.valid_proof,
        }
    return {"order": list(sd.order), "methods": methods}


def _collection_args(model: CollectionModel) -> list[str]:
    return [
        expr_to_source(a) if isinstance(a, Expr) else a.name
        for a in model.args.values()
    ]


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
    """`deps_report` as `json.dumps(report, indent=2)` writes it.  That
    encoder runs in pure Python once `indent` is set, so the layout is
    written here and only the leaves go through the C encoder."""
    out: list[str] = []
    _write_json(deps_report(cu), "\n", out)
    out.append("\n")
    return "".join(out)


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _write_json(value: dict | list, newline: str, out: list[str]) -> None:
    """Append the non-empty container `value` to `out`; `newline` breaks a
    line and indents it to the depth of `value`."""
    inner = newline + "  "
    if type(value) is dict:
        items = [(_json_string(k) + ": ", v) for k, v in value.items()]
        sep, close = "{" + inner, newline + "}"
    else:
        items = [("", v) for v in value]
        sep, close = "[" + inner, newline + "]"
    for head, v in items:
        kind = type(v)
        if kind is str:
            out.append(sep + head + _json_string(v))
        elif kind is dict or kind is list:
            if v:
                out.append(sep + head)
                _write_json(v, inner, out)
            else:
                out.append(sep + head + ("{}" if kind is dict else "[]"))
        elif kind is int:
            out.append(sep + head + str(v))
        elif kind is bool or v is None:
            out.append(sep + head + _JSON_WORDS[v])
        else:
            out.append(sep + head + dumps(v))
        sep = "," + inner
    out.append(close)


# ---------------------------------------------------------------------------
# Documentation output


def doc_text(cu: CompiledUnit) -> str:
    """Per-species method inventory with origins, reverted proofs and
    admitted proof steps."""
    lines: list[str] = []
    for kind, name in cu.decl_order:
        with cu.writing(name):
            if kind == "union":
                cons = ", ".join(c for c, _ in cu.unions[name].constructors)
                lines += [f"type {name} = {cons}", ""]
                continue
            if kind == "collection":
                model = cu.collections[name]
                args = ", ".join(_collection_args(model))
                head = f"collection {name} implements {model.nf.name}"
                lines += [f"{head}({args})" if args else head, ""]
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
