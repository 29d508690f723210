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

from .ast import (
    Expr,
    Proof,
    Qual,
    Record,
    SpeciesParam,
    TParam,
    Type,
)
from .deps import MethodDeps, SpeciesDeps, param_refs, type_level_refs
from .hierarchy import (
    Args,
    CollectionModel,
    MethodInfo,
    NFSpecies,
    interface_view,
    rename_type,
    subst_expr,
)
from .proofs import proof_is_admitted
from .resolve import PARAM

Tag = tuple
Atom = tuple


class GenApp(Record):
    """Application of a method generator to already-resolved arguments."""

    __match_args__ = ("species", "method", "args", "comp_args")

    def __init__(
        self,
        species: str,
        method: str,
        args: list[Atom] | None = None,
        comp_args: list[Atom] | None = None,  # logical ones erased
    ):
        self.species = species
        self.method = method
        self.args = [] if args is None else args
        self.comp_args = [] if comp_args is None else comp_args


class Lift(Record):
    """One parameter of a generator: abstracted or bound."""

    __match_args__ = ("tag", "name", "is_set", "ty", "statement", "bind_type", "bind_gen")

    def __init__(
        self,
        tag: Tag,
        name: str,
        is_set: bool = False,  # (name : Set)
        ty: Type | None = None,  # (name : <type>)
        statement: Expr | None = None,  # (name : <formula>)
        bind_type: Type | None = None,  # (name := <type>)
        bind_gen: GenApp | None = None,  # (name := <generator application>)
    ):
        self.tag = tag
        self.name = name
        self.is_set = is_set
        self.ty = ty
        self.statement = statement
        self.bind_type = bind_type
        self.bind_gen = bind_gen

    @property
    def abstract(self) -> bool:
        return self.bind_type is None and self.bind_gen is None

    @property
    def logical(self) -> bool:
        """No computational content: a carrier or a formula."""
        carrier = self.is_set or self.bind_type is not None
        return carrier or self.statement is not None


class MethodGeneratorPlan(Record):
    __match_args__ = (
        "species", "method", "kind", "rec", "admitted", "lifts", "value_params", "ret",
        "body", "statement", "proof",
    )

    def __init__(
        self,
        species: str,
        method: str,
        kind: str,  # 'let' | 'theorem'
        rec: bool = False,
        admitted: bool = False,
        lifts: list[Lift] | None = None,
        value_params: list[tuple[str, Type]] | None = None,
        ret: Type | None = None,
        body: Expr | None = None,
        statement: Expr | None = None,
        proof: Proof | None = None,
    ):
        self.species = species
        self.method = method
        self.kind = kind
        self.rec = rec
        self.admitted = admitted
        self.lifts = [] if lifts is None else lifts
        self.value_params = [] if value_params is None else value_params
        self.ret = ret
        self.body = body
        self.statement = statement
        self.proof = proof


class RecordTypePlan(Record):
    __match_args__ = ("species", "abstractions", "fields")

    def __init__(
        self,
        species: str,
        abstractions: list[Lift] | None = None,
        fields: list[str] | None = None,  # method names; carrier first
    ):
        self.species = species
        self.abstractions = [] if abstractions is None else abstractions
        self.fields = [] if fields is None else fields


class LocalDef(Record):
    __match_args__ = ("name", "gen")

    def __init__(
        self,
        name: str,  # 'rep' or a method name
        gen: GenApp | None = None,  # None for the representation local
    ):
        self.name = name
        self.gen = gen


class CollectionGeneratorPlan(Record):
    __match_args__ = ("species", "outer", "locals", "record_args")

    def __init__(
        self,
        species: str,
        outer: list[Lift] | None = None,
        locals: list[LocalDef] | None = None,
        record_args: list[Tag] | None = None,
    ):
        self.species = species
        self.outer = [] if outer is None else outer
        self.locals = [] if locals is None else locals
        self.record_args = [] if record_args is None else record_args


class SpeciesPlan(Record):
    __match_args__ = ("name", "generators", "record", "create")

    def __init__(
        self,
        name: str,
        generators: dict[str, MethodGeneratorPlan] | None = None,
        record: RecordTypePlan | None = None,
        create: CollectionGeneratorPlan | None = None,
    ):
        self.name = name
        self.generators = {} if generators is None else generators
        self.record = record
        self.create = create


class CollectionExtractionPlan(Record):
    __match_args__ = (
        "name", "species", "create_args", "comp_args", "carrier", "record_params", "methods",
    )

    def __init__(
        self,
        name: str,
        species: str,  # module holding the record and creator
        create_args: list[Atom] | None = None,
        comp_args: list[Atom] | None = None,  # logical ones erased
        carrier: Type | None = None,
        record_params: int = 0,
        methods: list[tuple[str, bool]] | None = None,  # (name, logical)
    ):
        self.name = name
        self.species = species
        self.create_args = [] if create_args is None else create_args
        self.comp_args = [] if comp_args is None else comp_args
        self.carrier = carrier
        self.record_params = record_params
        self.methods = [] if methods is None else methods


# ---------------------------------------------------------------------------
# Tag resolution


def resolve_tags(tags: list[Tag], args: Args) -> list[Atom]:
    """Rewrite tags phrased in some species' formal parameters into atoms,
    given the actuals `args` of those formals."""
    out: list[Atom] = []
    for t in tags:
        match t:
            case ("param_carrier", p):
                a = args[p]
                own = isinstance(a, TParam)
                out.append(("param_carrier" if own else "coll_carrier", a.name))
            case ("param_method", p, m):
                a = args[p]
                own = isinstance(a, TParam)
                out.append(("param_method" if own else "coll_method", a.name, m))
            case ("param_entity", v):
                out.append(("entity_expr", args[v]))
            case _:
                out.append(t)
    return out


def _gen_app(callee: MethodGeneratorPlan, nf: NFSpecies) -> GenApp:
    """Apply `callee` inside `nf`: one argument per abstract lift, kept in
    the computational target unless the lift is logical."""
    lifts = [l for l in callee.lifts if l.abstract]
    args = resolve_tags([l.tag for l in lifts], nf.ancestor_args[callee.species])
    comp = [a for a, l in zip(args, lifts) if not l.logical]
    return GenApp(callee.species, callee.method, args, comp)


def _param_method_lift(
    nf: NFSpecies,
    p: SpeciesParam,
    m: str,
    species_env: dict[str, NFSpecies],
    name: str,
) -> Lift:
    iface_nf, args = interface_view(nf, p, species_env)
    tyfn = lambda t: rename_type(t, args, TParam(p.name))
    imi = iface_nf.methods[m]
    tag = ("param_method", p.name, m)
    if imi.is_logical:
        assert imi.statement is not None
        refs = {w: Qual(p.name, w, PARAM) for w in iface_nf.methods}
        return Lift(tag, name, statement=subst_expr(imi.statement, args, tyfn, refs))
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
    parent: NFSpecies | None = None,
) -> SpeciesPlan:
    """Generators for the methods `nf` defines; a record and a creator when
    it is complete.  Given the `parent` the species extends (see
    `driver._extended_parent`), the parent's record and creator are
    extended rather than rebuilt (`_record_plan`, `_create_plan`)."""
    plan = SpeciesPlan(name=nf.name)
    prev = None if parent is None else plans_env[parent.name]

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
        plan.record = _record_plan(
            nf, sd, species_env, deps_env, parent, prev and prev.record
        )
        if not sd.rec_groups:
            # A mutual group admits no instantiation order for the
            # creator's locals, and such a species cannot back a
            # collection anyway.
            plan.create = _create_plan(
                nf, sd, plan.record, species_env, deps_env, lookup,
                prev and prev.create,
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


def _used_methods(nf: NFSpecies, lifts: list[Lift]) -> dict[str, set[str]]:
    """The methods of each is-parameter that `lifts` abstract over."""
    used: dict[str, set[str]] = {p.name: set() for p in nf.is_params}
    for l in lifts:
        if l.tag[0] == "param_method":
            used[l.tag[1]].add(l.tag[2])
    return used


def _record_plan(
    nf: NFSpecies,
    sd: SpeciesDeps,
    species_env: dict[str, NFSpecies],
    deps_env: dict[str, SpeciesDeps],
    parent: NFSpecies | None,
    prev: RecordTypePlan | None,
) -> RecordTypePlan:
    """The record abstracts over the parameter methods the statements
    mention.  An heir's statements hold its parent's, so given the
    parent's record `prev`, only the statements new since the parent's
    copies are read, and the same methods keep the parent's lifts."""
    methods = list(nf.methods.values())
    used: dict[str, set[str]] = {p.name: set() for p in nf.is_params}
    if prev is not None:
        assert parent is not None
        old = parent.methods
        methods = [
            mi for mi in methods
            if mi.name not in old or old[mi.name].statement is not mi.statement
        ]
        used = _used_methods(nf, prev.abstractions)
    before = {p: set(ms) for p, ms in used.items()}
    for p in nf.is_params:
        assert p.interface is not None
        iface_nf = species_env[p.interface.name]
        for mi in methods:
            if mi.statement is None:
                continue
            refs = {w for c, w in param_refs(mi.statement) if c == p.name}
            used[p.name] |= refs
            for w in refs:
                used[p.name] |= type_level_refs(iface_nf.methods[w])
    return RecordTypePlan(
        species=nf.name,
        abstractions=prev.abstractions
        if prev is not None and used == before
        else _param_lifts(nf, "{}_T", used, species_env, deps_env),
        fields=list(sd.order),
    )


def _create_plan(
    nf: NFSpecies,
    sd: SpeciesDeps,
    record: RecordTypePlan,
    species_env: dict[str, NFSpecies],
    deps_env: dict[str, SpeciesDeps],
    lookup,
    prev: CollectionGeneratorPlan | None,
) -> CollectionGeneratorPlan:
    """The creator abstracts over the parameter methods any generator
    depends on, and binds a local to each generator applied in order.
    Given the parent's creator `prev`, a local whose generator comes from
    the same species as there is the parent's local: it applies the same
    generator to the same actuals, the `ancestor_args` entry the heir
    shares with the parent."""
    used: dict[str, set[str]] = {p.name: set() for p in nf.is_params}
    for md in sd.methods.values():
        for p, ms in md.param_deps.items():
            if ms:
                used[p].update(ms)
    reuse = {} if prev is None else {ld.name: ld for ld in prev.locals[1:]}
    plan = CollectionGeneratorPlan(
        species=nf.name,
        outer=prev.outer
        if prev is not None and used == _used_methods(nf, prev.outer)
        else _param_lifts(nf, "_p_{}_T", used, species_env, deps_env),
    )
    plan.locals.append(LocalDef("rep"))
    for m in sd.order:
        origin = nf.methods[m].origin
        ld = reuse.get(m)
        if ld is None or ld.gen.species != origin:
            ld = LocalDef(m, _gen_app(lookup(origin, m), nf))
        plan.locals.append(ld)
    plan.record_args = [l.tag for l in record.abstractions]
    plan.record_args.append(("self_carrier",))
    plan.record_args += [("self_method", m) for m in sd.order]
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
    lifts = splan.create.outer
    out.create_args = resolve_tags([l.tag for l in lifts], model.args)
    out.comp_args = [a for a, l in zip(out.create_args, lifts) if not l.logical]
    out.methods = [(m, nf.methods[m].is_logical) for m in nf.order]
    return out
