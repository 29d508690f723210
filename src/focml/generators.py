"""Emission plans.

Each defined method compiles to a generator: its definition abstracted over
exactly the minimal environment and parameter dependencies the dependency
pass established.  Complete species additionally get a record type packing
their interface and a creator that instantiates every generator in order.
Collections become an application of the creator plus one projection per
method.  The plans built here are target independent; both emitters walk
them.  They also decide erasure once: a lift knows whether it is logical,
and each generator application records its computational arguments, which
the computational emitter and the evaluator read as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    Expr,
    Proof,
    Qual,
    SpeciesParam,
    TParam,
    Type,
)
from .deps import MethodDeps, SpeciesDeps, qual_refs, type_level_refs
from .hierarchy import (
    CollectionModel,
    MethodInfo,
    NFSpecies,
    interface_view,
    subst_expr,
)
from .proofs import proof_is_admitted

Tag = tuple
Atom = tuple


@dataclass
class GenApp:
    """Application of a method generator to already-resolved arguments."""

    species: str
    method: str
    args: list[Atom] = field(default_factory=list)
    comp_args: list[Atom] = field(default_factory=list)  # logical ones erased


@dataclass
class Lift:
    """One parameter of a generator: abstracted or bound."""

    tag: Tag
    name: str
    is_set: bool = False  # (name : Set)
    ty: Type | None = None  # (name : <type>)
    statement: Expr | None = None  # (name : <formula>)
    bind_type: Type | None = None  # (name := <type>)
    bind_gen: GenApp | None = None  # (name := <generator application>)

    @property
    def abstract(self) -> bool:
        return self.bind_type is None and self.bind_gen is None

    @property
    def logical(self) -> bool:
        """No computational content: a carrier or a formula."""
        carrier = self.is_set or self.bind_type is not None
        return carrier or self.statement is not None


@dataclass
class MethodGeneratorPlan:
    species: str
    method: str
    kind: str  # 'let' | 'theorem'
    rec: bool = False
    admitted: bool = False
    lifts: list[Lift] = field(default_factory=list)
    value_params: list[tuple[str, Type]] = field(default_factory=list)
    ret: Type | None = None
    body: Expr | None = None
    statement: Expr | None = None
    proof: Proof | None = None


@dataclass
class RecordTypePlan:
    species: str
    abstractions: list[Lift] = field(default_factory=list)
    fields: list[str] = field(default_factory=list)  # method names; carrier first


@dataclass
class LocalDef:
    name: str  # 'rep' or a method name
    gen: GenApp | None = None  # None for the representation local


@dataclass
class CollectionGeneratorPlan:
    species: str
    outer: list[Lift] = field(default_factory=list)
    locals: list[LocalDef] = field(default_factory=list)
    record_args: list[Tag] = field(default_factory=list)


@dataclass
class SpeciesPlan:
    name: str
    generators: dict[str, MethodGeneratorPlan] = field(default_factory=dict)
    record: RecordTypePlan | None = None
    create: CollectionGeneratorPlan | None = None


@dataclass
class CollectionExtractionPlan:
    name: str
    species: str  # module holding the record and creator
    create_args: list[Atom] = field(default_factory=list)
    comp_args: list[Atom] = field(default_factory=list)  # logical ones erased
    carrier: Type | None = None
    record_params: int = 0
    methods: list[tuple[str, bool]] = field(default_factory=list)  # (name, logical)


# ---------------------------------------------------------------------------
# Tag resolution


def resolve_tags(tags: list[Tag], origin: str, nf: NFSpecies) -> list[Atom]:
    """Rewrite tags phrased in `origin`'s formal parameters into atoms
    meaningful inside `nf`."""
    amap = nf.ancestor_args[origin]
    own_params = {p.name for p in nf.is_params}
    out: list[Atom] = []
    for t in tags:
        match t[0]:
            case "param_carrier":
                a = amap[t[1]]
                assert isinstance(a, str)
                out.append(
                    ("param_carrier", a) if a in own_params else ("coll_carrier", a)
                )
            case "param_method":
                a = amap[t[1]]
                assert isinstance(a, str)
                out.append(
                    ("param_method", a, t[2])
                    if a in own_params
                    else ("coll_method", a, t[2])
                )
            case "param_entity":
                e = amap[t[1]]
                assert not isinstance(e, str)
                out.append(("entity_expr", e))
            case _:
                out.append(t)
    return out


def _gen_app(callee: MethodGeneratorPlan, nf: NFSpecies) -> GenApp:
    """Apply `callee` inside `nf`: one argument per abstract lift, kept in
    the computational target unless the lift is logical."""
    lifts = [l for l in callee.lifts if l.abstract]
    args = resolve_tags([l.tag for l in lifts], callee.species, nf)
    comp = [a for a, l in zip(args, lifts) if not l.logical]
    return GenApp(callee.species, callee.method, args, comp)


def _param_method_lift(
    nf: NFSpecies,
    p: SpeciesParam,
    m: str,
    species_env: dict[str, NFSpecies],
    name: str,
) -> Lift:
    iface_nf, qual_map, entity_map, tyfn = interface_view(nf, p, species_env)
    imi = iface_nf.methods[m]
    tag = ("param_method", p.name, m)
    if imi.is_logical:
        assert imi.statement is not None
        refs = {w: Qual(p.name, w) for w in iface_nf.methods}
        refs.update(entity_map)
        stmt = subst_expr(imi.statement, qual_map, refs, tyfn)
        return Lift(tag, name, statement=stmt)
    assert imi.scheme is not None
    return Lift(tag, name, ty=tyfn(imi.scheme.body))


# ---------------------------------------------------------------------------
# Plan construction


def build_species_plan(
    nf: NFSpecies,
    sd: SpeciesDeps,
    species_env: dict[str, NFSpecies],
    deps_env: dict[str, SpeciesDeps],
    plans_env: dict[str, SpeciesPlan],
) -> SpeciesPlan:
    plan = SpeciesPlan(name=nf.name)

    def lookup(origin: str, m: str) -> MethodGeneratorPlan:
        if origin == nf.name:
            return plan.generators[m]
        return plans_env[origin].generators[m]

    for m in sd.order:
        mi = nf.methods[m]
        if mi.origin != nf.name or not mi.defined or not mi.valid_proof:
            continue
        plan.generators[m] = _method_plan(
            nf, mi, sd.methods[m], species_env, lookup
        )
    if not nf.incompleteness():
        plan.record = _record_plan(nf, sd, species_env, deps_env)
        if not sd.rec_groups:
            # A mutual group admits no instantiation order for the
            # creator's locals, and such a species cannot back a
            # collection anyway.
            plan.create = _create_plan(
                nf, sd, plan.record, species_env, deps_env, lookup
            )
    return plan


def _method_plan(
    nf: NFSpecies,
    mi: MethodInfo,
    md: MethodDeps,
    species_env: dict[str, NFSpecies],
    lookup,
) -> MethodGeneratorPlan:
    lifts: list[Lift] = []
    for p in nf.params:
        if p.kind == "is":
            if md.param_carrier.get(p.name):
                lifts.append(
                    Lift(("param_carrier", p.name), f"_p_{p.name}_T", is_set=True)
                )
            for m in md.param_deps.get(p.name, ()):
                lifts.append(
                    _param_method_lift(nf, p, m, species_env, f"_p_{p.name}_{m}")
                )
        elif p.name in md.entity_used:
            lifts.append(_entity_lift(p))
    if md.carrier_keep == "TypeAndBody":
        assert nf.rep_resolved is not None
        lifts.append(Lift(("self_carrier",), "abst_T", bind_type=nf.rep_resolved))
    elif md.carrier_keep == "TypeOnly":
        lifts.append(Lift(("self_carrier",), "abst_T", is_set=True))
    for z, keep in md.min_env:
        zi = nf.methods[z]
        tag = ("self_method", z)
        if keep == "TypeAndBody":
            gen = _gen_app(lookup(zi.origin, z), nf)
            lifts.append(Lift(tag, f"abst_{z}", bind_gen=gen))
        elif zi.is_logical:
            lifts.append(Lift(tag, f"abst_{z}", statement=zi.statement))
        else:
            assert zi.scheme is not None
            lifts.append(Lift(tag, f"abst_{z}", ty=zi.scheme.body))
    out = MethodGeneratorPlan(
        species=nf.name,
        method=mi.name,
        kind=mi.kind,
        rec=mi.rec,
        lifts=lifts,
    )
    if mi.kind == "let":
        assert mi.param_types is not None
        out.value_params = [
            (n, t) for (n, _), t in zip(mi.params, mi.param_types)
        ]
        out.ret = mi.ret_type
        out.body = mi.body
    else:
        out.statement = mi.statement
        out.proof = mi.proof
        out.admitted = proof_is_admitted(mi.proof)
    return out


def _entity_lift(p: SpeciesParam) -> Lift:
    assert p.carrier is not None
    name = f"_p_{p.name}_{p.name}"
    return Lift(("param_entity", p.name), name, ty=TParam(p.carrier))


def _param_lifts(
    nf: NFSpecies,
    carrier: str,
    used: dict[str, set[str]],
    species_env: dict[str, NFSpecies],
    deps_env: dict[str, SpeciesDeps],
) -> list[Lift]:
    """Outer lifts of a record or a creator: the carrier of each
    is-parameter, named by the `carrier` format, the entity parameters, then
    the methods `used[p]` of each is-parameter in its interface's order."""
    lifts = [
        Lift(("param_carrier", p.name), carrier.format(p.name), is_set=True)
        for p in nf.is_params
    ]
    lifts.extend(_entity_lift(p) for p in nf.entity_params)
    for p in nf.is_params:
        assert p.interface is not None
        for m in deps_env[p.interface.name].order:
            if m in used[p.name]:
                lifts.append(
                    _param_method_lift(nf, p, m, species_env, f"_p_{p.name}_{m}")
                )
    return lifts


def _record_plan(
    nf: NFSpecies,
    sd: SpeciesDeps,
    species_env: dict[str, NFSpecies],
    deps_env: dict[str, SpeciesDeps],
) -> RecordTypePlan:
    used: dict[str, set[str]] = {}
    for p in nf.is_params:
        assert p.interface is not None
        iface_nf = species_env[p.interface.name]
        used[p.name] = set()
        for mi in nf.methods.values():
            if mi.statement is None:
                continue
            refs = {w for c, w in qual_refs(mi.statement) if c == p.name}
            used[p.name] |= refs
            for w in refs:
                used[p.name] |= type_level_refs(iface_nf.methods[w], iface_nf)
    return RecordTypePlan(
        species=nf.name,
        abstractions=_param_lifts(nf, "{}_T", used, species_env, deps_env),
        fields=list(sd.order),
    )


def _create_plan(
    nf: NFSpecies,
    sd: SpeciesDeps,
    record: RecordTypePlan,
    species_env: dict[str, NFSpecies],
    deps_env: dict[str, SpeciesDeps],
    lookup,
) -> CollectionGeneratorPlan:
    used: dict[str, set[str]] = {p.name: set() for p in nf.is_params}
    for md in sd.methods.values():
        for p in used:
            used[p].update(md.param_deps.get(p, ()))
    plan = CollectionGeneratorPlan(
        species=nf.name,
        outer=_param_lifts(nf, "_p_{}_T", used, species_env, deps_env),
    )
    plan.locals.append(LocalDef("rep"))
    for m in sd.order:
        callee = lookup(nf.methods[m].origin, m)
        plan.locals.append(LocalDef(m, _gen_app(callee, nf)))
    plan.record_args = [l.tag for l in record.abstractions]
    plan.record_args.append(("self_carrier",))
    plan.record_args.extend(("self_method", m) for m in sd.order)
    return plan


def build_extraction_plan(
    model: CollectionModel,
    plans_env: dict[str, SpeciesPlan],
) -> CollectionExtractionPlan:
    nf = model.nf
    splan = plans_env[nf.name]
    assert splan.create is not None and splan.record is not None
    out = CollectionExtractionPlan(
        name=model.name,
        species=nf.name,
        carrier=model.carrier,
        record_params=len(splan.record.abstractions),
    )
    for lift in splan.create.outer:
        match lift.tag:
            case ("param_carrier", p):
                arg = ("coll_carrier", model.param_map[p])
            case ("param_method", p, m):
                arg = ("coll_method", model.param_map[p], m)
            case ("param_entity", v):
                arg = ("entity_expr", model.entity_args[v])
        out.create_args.append(arg)
        if not lift.logical:
            out.comp_args.append(arg)
    out.methods = [(m, nf.methods[m].is_logical) for m in nf.order]
    return out
