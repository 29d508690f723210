"""Emission plans.

Each defined method compiles to a generator: its definition abstracted over
exactly the minimal environment and parameter dependencies the dependency
pass established.  Complete species additionally get a record type packing
their interface and a creator that instantiates every generator in order.
Collections become an application of the creator plus one projection per
method.  The plans built here are target independent; both emitters walk
them.  A lift is tagged by the tree it abstracts over, in the formals of
the generator's species: a carrier's type (`TParam`, `TSelf`), a method's
name (`Qual` of a parameter, a method-tagged `Var`) or an entity
parameter's `Var`; the emitters name its binder by rendering the tag.  An
application renames the tags by the applying species' actuals
(`hierarchy.rename_actual`), as inherited bodies are renamed.  The plans
also decide erasure once: a lift and a creator local know
whether they are logical, a record lists the fields the computational
target keeps, and each generator application records its computational
arguments, which the computational emitter and the evaluator read as they
are.
"""

from __future__ import annotations

from .ast import (
    Expr,
    Proof,
    Qual,
    Record,
    SpeciesParam,
    TParam,
    TSelf,
    Type,
    Var,
)
from .deps import MethodDeps, param_refs, type_level_refs
from .hierarchy import (
    Args,
    CollectionModel,
    MethodInfo,
    NFSpecies,
    param_method_view,
    rename_actual,
)
from .proofs import proof_is_admitted
from .resolve import ENTITY, METHOD, PARAM


class GenApp(Record):
    """Application of a generator to one argument per abstract lift: the
    lift's tag renamed by the applying species' actuals (`_apply`)."""

    def __init__(
        self,
        species: str,
        method: str,
        args: list[Type | Expr] | None = None,
        comp_args: list[Type | Expr] | None = None,  # logical ones erased
    ):
        self.species = species
        self.method = method
        self.args = [] if args is None else args
        self.comp_args = [] if comp_args is None else comp_args


class Lift(Record):
    """One parameter of a generator, abstracted or bound, named by its tag."""

    def __init__(
        self,
        tag: Type | Expr,
        ty: Type | None = None,  # (tag : <type>)
        statement: Expr | None = None,  # (tag : <formula>)
        bind_type: Type | None = None,  # (tag := <type>)
        bind_gen: GenApp | None = None,  # (tag := <generator application>)
    ):
        self.tag = tag
        self.ty = ty
        self.statement = statement
        self.bind_type = bind_type
        self.bind_gen = bind_gen

    @property
    def abstract(self) -> bool:
        return self.bind_type is None and self.bind_gen is None

    @property
    def is_set(self) -> bool:
        """(tag : Set): a carrier abstracted over."""
        return not isinstance(self.tag, Expr) and self.abstract

    @property
    def logical(self) -> bool:
        """No computational content: a carrier or a formula."""
        return not isinstance(self.tag, Expr) or self.statement is not None


class MethodGeneratorPlan(Record):
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
    def __init__(
        self,
        species: str,
        abstractions: list[Lift] | None = None,
        fields: list[str] | None = None,  # method names, after the carrier
        comp_fields: list[str] | None = None,  # those not logical
    ):
        self.species = species
        self.abstractions = [] if abstractions is None else abstractions
        self.fields = [] if fields is None else fields
        self.comp_fields = [] if comp_fields is None else comp_fields


class LocalDef(Record):
    def __init__(
        self,
        name: str,  # 'rep' or a method name
        gen: GenApp | None = None,  # None for the representation local
        logical: bool = False,  # the method is a theorem
    ):
        self.name = name
        self.gen = gen
        self.logical = logical


class CollectionGeneratorPlan(Record):
    def __init__(
        self,
        species: str,
        outer: list[Lift] | None = None,
        locals: list[LocalDef] | None = None,
    ):
        self.species = species
        self.outer = [] if outer is None else outer
        self.locals = [] if locals is None else locals


class SpeciesPlan(Record):
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
    def __init__(
        self,
        name: str,
        species: str,  # module holding the record and creator
        create: GenApp | None = None,  # the creator applied to the arguments
        carrier: Type | None = None,
    ):
        self.name = name
        self.species = species
        self.create = create
        self.carrier = carrier


# ---------------------------------------------------------------------------
# Applications


def _apply(species: str, method: str, lifts: list[Lift], args: Args) -> GenApp:
    """Apply the generator `species.method` to the actuals `args` of its
    species' formals: one argument per abstract lift, its tag renamed, kept
    in the computational target unless the lift is logical."""
    out = GenApp(species, method)
    for l in lifts:
        if l.abstract:
            a = rename_actual(l.tag, args)
            out.args.append(a)
            if not l.logical:
                out.comp_args.append(a)
    return out


def _gen_app(callee: MethodGeneratorPlan, nf: NFSpecies) -> GenApp:
    """Apply `callee` inside `nf`."""
    return _apply(callee.species, callee.method, callee.lifts, nf.ancestor_args[callee.species])


def _param_method_lift(
    nf: NFSpecies,
    p: SpeciesParam,
    m: str,
    species_env: dict[str, NFSpecies],
) -> Lift:
    ty, statement = param_method_view(nf, p, m, species_env)
    return Lift(Qual(p.name, m, PARAM), ty=ty, statement=statement)


# ---------------------------------------------------------------------------
# Plan construction


def build_species_plan(
    nf: NFSpecies,
    species_env: dict[str, NFSpecies],
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

    for m in nf.order:
        mi = nf.methods[m]
        if mi.origin != nf.name or not mi.defined or not mi.valid_proof:
            continue
        plan.generators[m] = _method_plan(
            nf, mi, nf.deps[m], species_env, lookup
        )
    if not nf.incompleteness():
        plan.record = _record_plan(nf, species_env, parent, prev and prev.record)
        if not nf.rec_groups:
            # A mutual group admits no instantiation order for the
            # creator's locals, and such a species cannot back a
            # collection anyway.
            plan.create = _create_plan(nf, species_env, lookup, prev and prev.create)
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
                lifts.append(Lift(TParam(p.name)))
            for m in md.param_deps.get(p.name, ()):
                lifts.append(_param_method_lift(nf, p, m, species_env))
        elif p.name in md.entity_used:
            lifts.append(_entity_lift(p))
    if md.carrier_keep == "TypeAndBody":
        assert nf.rep is not None
        lifts.append(Lift(TSelf(), bind_type=nf.rep))
    elif md.carrier_keep == "TypeOnly":
        lifts.append(Lift(TSelf()))
    for z, keep in md.min_env:
        zi = nf.methods[z]
        tag = Var(z, METHOD)
        if keep == "TypeAndBody":
            lifts.append(Lift(tag, bind_gen=_gen_app(lookup(zi.origin, z), nf)))
        elif zi.is_logical:
            lifts.append(Lift(tag, statement=zi.statement))
        else:
            assert zi.scheme is not None
            lifts.append(Lift(tag, ty=zi.scheme.body))
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
    return Lift(Var(p.name, ENTITY), ty=TParam(p.carrier))


def _param_lifts(
    nf: NFSpecies,
    used: dict[str, set[str]],
    species_env: dict[str, NFSpecies],
) -> list[Lift]:
    """Outer lifts of a record or a creator: the carrier of each
    is-parameter, the entity parameters, then the methods `used[p]` of each
    is-parameter in its interface's order."""
    lifts = [Lift(TParam(p.name)) for p in nf.is_params]
    lifts.extend(_entity_lift(p) for p in nf.entity_params)
    for p in nf.is_params:
        assert p.interface is not None
        for m in species_env[p.interface.name].order:
            if m in used[p.name]:
                lifts.append(_param_method_lift(nf, p, m, species_env))
    return lifts


def _used_methods(nf: NFSpecies, lifts: list[Lift]) -> dict[str, set[str]]:
    """The methods of each is-parameter that `lifts` abstract over."""
    used: dict[str, set[str]] = {p.name: set() for p in nf.is_params}
    for l in lifts:
        if type(l.tag) is Qual:
            used[l.tag.coll].add(l.tag.name)
    return used


def _record_plan(
    nf: NFSpecies,
    species_env: dict[str, NFSpecies],
    parent: NFSpecies | None,
    prev: RecordTypePlan | None,
) -> RecordTypePlan:
    """The record abstracts over the parameter methods the statements
    mention.  An heir's statements hold its parent's, so given the
    parent's record `prev`, only the methods whose records are not the
    parent's are read, and the same methods keep the parent's lifts."""
    methods = list(nf.methods.values())
    used: dict[str, set[str]] = {p.name: set() for p in nf.is_params}
    if prev is not None:
        assert parent is not None
        old = parent.methods
        methods = [mi for mi in methods if old.get(mi.name) is not mi]
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
        else _param_lifts(nf, used, species_env),
        fields=list(nf.order),
        comp_fields=[m for m in nf.order if not nf.methods[m].is_logical],
    )


def _create_plan(
    nf: NFSpecies,
    species_env: dict[str, NFSpecies],
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
    for md in nf.deps.values():
        for p, ms in md.param_deps.items():
            if ms:
                used[p].update(ms)
    reuse = {} if prev is None else {ld.name: ld for ld in prev.locals[1:]}
    plan = CollectionGeneratorPlan(
        species=nf.name,
        outer=prev.outer
        if prev is not None and used == _used_methods(nf, prev.outer)
        else _param_lifts(nf, used, species_env),
    )
    plan.locals.append(LocalDef("rep"))
    for m in nf.order:
        mi = nf.methods[m]
        ld = reuse.get(m)
        if ld is None or ld.gen.species != mi.origin:
            ld = LocalDef(m, _gen_app(lookup(mi.origin, m), nf), mi.is_logical)
        plan.locals.append(ld)
    return plan


def build_extraction_plan(
    model: CollectionModel,
    plans_env: dict[str, SpeciesPlan],
) -> CollectionExtractionPlan:
    nf = model.nf
    splan = plans_env[nf.name]
    assert splan.create is not None and splan.record is not None
    create = _apply(nf.name, "collection_create", splan.create.outer, model.args)
    return CollectionExtractionPlan(model.name, nf.name, create, model.carrier)
