"""Species flattening: inheritance merge, late binding, and collection checks.

A species normal form carries every method reachable through `inherit`, with
parameter substitutions applied and redefinitions resolved by late binding:
the last definition along the linearized inheritance chain wins, while the
method's type stays pinned to its first declaration.  Inherited copies carry
the typing and scan results of the species they come from.  Proof
invalidation and collection completeness both operate on this normal form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .ast import (
    NOPOS,
    CollectionDecl,
    ConRef,
    Expr,
    Fact,
    Match,
    MethodDecl,
    Pos,
    ProofLeaf,
    ProofStep,
    ProofSteps,
    Proof,
    Quant,
    Qual,
    Scheme,
    SpeciesDecl,
    SpeciesExpr,
    SpeciesParam,
    TCap,
    TCollCarrier,
    TParam,
    TSelf,
    Type,
    Var,
    pattern_vars,
    type_map,
    type_walk,
)
from .basics import BUILTIN_FUNCTIONS, BUILTIN_PROPERTIES
from .errors import (
    DUPLICATE,
    INCOMPLETE,
    INTERFACE,
    REP_REDEFINED,
    TYPE_MISMATCH,
    UNKNOWN,
    CompileError,
)
from .proofs import collect_leaf_facts


@dataclass
class MethodInfo:
    """One flattened method with its full late-binding history."""

    name: str
    kind: str  # 'signature' | 'let' | 'property' | 'theorem'
    decl_site: str
    first_def: str | None
    origin: str
    proof_origin: str | None = None
    ty: Type | None = None  # first declared signature type
    extra_sigs: list[Type] = field(default_factory=list)
    params: list[tuple[str, Type | None]] = field(default_factory=list)
    ret: Type | None = None
    body: Expr | None = None
    statement: Expr | None = None
    proof: Proof | None = None
    rec: bool = False
    superseded: set[str] = field(default_factory=set)
    pos: Pos = NOPOS
    # Filled in by the typing and dependency phases of the species that
    # analyses the method, then carried, renamed, into its descendants.
    scheme: Scheme | None = None
    param_types: list[Type] | None = None
    ret_type: Type | None = None
    carrier_decl: bool = False
    carrier_def: bool = False
    scanned_in: str | None = None  # species whose deps hold decl/def sets
    # `carried` is set on inheritance and cleared where the species changes
    # what the analysis reads: the results above came from an ancestor and
    # still hold here, so the species skips typing and scanning the method.
    carried: bool = False
    # A reverted proof stays reverted in descendants until a `proof of`.
    valid_proof: bool = True

    @property
    def is_logical(self) -> bool:
        return self.kind in ("property", "theorem")

    @property
    def defined(self) -> bool:
        if self.kind == "let":
            return self.body is not None
        if self.kind == "theorem":
            return self.proof is not None
        return False

    def order_site(self) -> str:
        """Species whose lineage rank orders this method."""
        return self.first_def if self.first_def is not None else self.decl_site


@dataclass
class RevertedProof:
    method: str
    proof_origin: str
    def_name: str
    def_origin: str
    pos: Pos


@dataclass
class NFSpecies:
    name: str
    params: list[SpeciesParam] = field(default_factory=list)
    lineage: list[str] = field(default_factory=list)
    rep: Type | None = None  # surface type, substituted
    rep_origin: str | None = None
    rep_resolved: Type | None = None  # filled by typing
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)  # filled by deps
    reverted: list[RevertedProof] = field(default_factory=list)
    # ancestor -> formal parameter -> actual in this species' own terms:
    # a str (own parameter or collection name) for is-formals, an Expr for
    # entity formals.  Includes the species itself with identity bindings.
    ancestor_args: dict[str, dict[str, "str | Expr"]] = field(
        default_factory=dict
    )
    pos: Pos = NOPOS

    @property
    def is_params(self) -> list[SpeciesParam]:
        return [p for p in self.params if p.kind == "is"]

    @property
    def entity_params(self) -> list[SpeciesParam]:
        return [p for p in self.params if p.kind == "in"]

    def incompleteness(self) -> list[str]:
        """Human-readable reasons this species cannot back a collection."""
        missing: list[str] = []
        if self.rep is None:
            missing.append("no representation")
        for m in self.methods.values():
            if m.kind == "signature":
                missing.append(f"{m.name} is declared but never defined")
            elif m.kind == "property":
                missing.append(f"{m.name} is stated but never proved")
            elif m.kind == "theorem" and not m.valid_proof:
                missing.append(f"the proof of {m.name} was reverted")
        return missing


# ---------------------------------------------------------------------------
# Interface views


def interface_view(nf: NFSpecies, p: SpeciesParam, species_env: dict[str, NFSpecies]):
    """The interface of parameter `p` with its own arguments spliced in, as
    seen from inside `nf`: (interface NF, qual map, entity map, type fn)."""
    assert p.interface is not None
    iface_nf = species_env[p.interface.name]
    qual_map: dict[str, str] = {}
    entity_map: dict[str, Expr] = {}
    ty_map: dict[str, Type] = {}
    own_params = {q.name for q in nf.is_params}
    for formal, arg in zip(iface_nf.params, p.interface.args):
        if formal.kind == "is" and arg.name is not None:
            qual_map[formal.name] = arg.name
            ty_map[formal.name] = (
                TParam(arg.name) if arg.name in own_params else TCollCarrier(arg.name)
            )
        elif formal.kind == "in":
            entity_map[formal.name] = arg.entity
    self_ty = TParam(p.name)

    def tyfn(t: Type) -> Type:
        def step(n: Type) -> Type:
            if isinstance(n, TSelf):
                return self_ty
            if isinstance(n, (TCap, TParam)) and n.name in ty_map:
                return ty_map[n.name]
            return n

        return type_map(t, step)

    return iface_nf, qual_map, entity_map, tyfn


def param_schemes(
    nf: NFSpecies, p: SpeciesParam, species_env: dict[str, NFSpecies]
) -> dict[str, Scheme]:
    """Types of `p!m` inside `nf`, for each method `m` of `p`'s interface."""
    iface_nf, _, _, tyfn = interface_view(nf, p, species_env)
    return {
        m: Scheme(mi.scheme.count, tyfn(mi.scheme.body))
        for m, mi in iface_nf.methods.items()
        if mi.scheme is not None
    }


# ---------------------------------------------------------------------------
# Substitution of species parameters by effective arguments


def rename_caps(
    t: Type, mapping: dict[str, str], target_is: frozenset[str] = frozenset()
) -> Type:
    """Rename parameter types through `mapping`.

    Surface types (`TCap`) keep their surface form; already-resolved
    parameter types map to `TParam` when the actual is a parameter of the
    inheriting species and to a collection carrier otherwise.
    """
    if not mapping:
        return t

    def step(n: Type) -> Type:
        match n:
            case TCap(name) if name in mapping:
                return TCap(mapping[name])
            case TParam(name) if name in mapping:
                actual = mapping[name]
                if actual in target_is:
                    return TParam(actual)
                return TCollCarrier(actual)
            case _:
                return n

    return type_map(t, step)


def subst_expr(
    e: Expr,
    qual_map: dict[str, str],
    entity_map: dict[str, Expr],
    type_fn,
    bound: frozenset[str] = frozenset(),
) -> Expr:
    """Rebuild `e` with parameter renamings applied; binders shadow."""

    def go(e: Expr, bound: frozenset[str]) -> Expr:
        match e:
            case Var(name) if name in entity_map and name not in bound:
                return copy.deepcopy(entity_map[name])
            case Qual(coll, name) if coll in qual_map:
                return Qual(qual_map[coll], name, pos=e.pos)
            case Quant(kind, vars_, ty, body):
                return Quant(
                    kind,
                    list(vars_),
                    type_fn(ty),
                    go(body, bound | set(vars_)),
                    pos=e.pos,
                )
            case Match(scrutinee, arms):
                return Match(
                    go(scrutinee, bound),
                    [
                        (pat, go(b, bound | set(pattern_vars(pat))))
                        for pat, b in arms
                    ],
                    pos=e.pos,
                )
            case ConRef(name, args):
                return ConRef(name, [go(a, bound) for a in args], pos=e.pos)
            case _:
                out = copy.copy(e)
                for attr, value in vars(e).items():
                    if isinstance(value, Expr):
                        setattr(out, attr, go(value, bound))
                    elif isinstance(value, list) and value and isinstance(value[0], Expr):
                        setattr(out, attr, [go(v, bound) for v in value])
                return out

    return go(e, bound)


def subst_proof(
    proof: Proof, qual_map: dict[str, str], entity_map: dict[str, Expr], type_fn
) -> Proof:
    def go_leaf(leaf: ProofLeaf) -> ProofLeaf:
        facts = []
        for f in leaf.facts:
            names = f.names
            if f.kind == "property":
                renamed = []
                for n in names:
                    if "!" in n:
                        c, m = n.split("!", 1)
                        renamed.append(f"{qual_map.get(c, c)}!{m}")
                    else:
                        renamed.append(n)
                names = renamed
            facts.append(Fact(f.kind, list(names), list(f.labels), f.pos))
        return ProofLeaf(facts, leaf.admitted, leaf.pos)

    def go(p: Proof, bound: frozenset[str]) -> Proof:
        if isinstance(p, ProofLeaf):
            return go_leaf(p)
        steps = []
        for s in p.steps:
            inner = bound | {v for names, _ in s.assumes for v in names}
            steps.append(
                ProofStep(
                    label=s.label,
                    assumes=[(list(ns), type_fn(t)) for ns, t in s.assumes],
                    hyps=[
                        (h, subst_expr(st, qual_map, entity_map, type_fn, inner))
                        for h, st in s.hyps
                    ],
                    goal=None
                    if s.goal is None
                    else subst_expr(s.goal, qual_map, entity_map, type_fn, inner),
                    is_qed=s.is_qed,
                    sub=None if s.sub is None else go(s.sub, inner),
                    pos=s.pos,
                )
            )
        return ProofSteps(steps, p.pos)

    return go(proof, frozenset())


def subst_method(
    mi: MethodInfo,
    qual_map: dict[str, str],
    entity_map: dict[str, Expr],
    target_is: frozenset[str] = frozenset(),
) -> MethodInfo:
    """Copy `mi` into an inheriting species, analysis results included.

    `qual_map` and `entity_map` hold only the parameters that are not passed
    as themselves; when both are empty the copy shares the parent's trees.
    """
    out = copy.copy(mi)
    out.superseded = set(mi.superseded)
    out.carried = True
    if not qual_map and not entity_map:
        out.extra_sigs = list(mi.extra_sigs)
        return out
    type_fn = lambda t: rename_caps(t, qual_map, target_is)
    out.extra_sigs = [type_fn(t) for t in mi.extra_sigs]
    if mi.ty is not None:
        out.ty = type_fn(mi.ty)
    out.params = [(n, None if t is None else type_fn(t)) for n, t in mi.params]
    if mi.ret is not None:
        out.ret = type_fn(mi.ret)
    if mi.body is not None:
        bound = frozenset(n for n, _ in mi.params)
        out.body = subst_expr(mi.body, qual_map, entity_map, type_fn, bound)
    if mi.statement is not None:
        out.statement = subst_expr(mi.statement, qual_map, entity_map, type_fn)
    if mi.proof is not None:
        out.proof = subst_proof(mi.proof, qual_map, entity_map, type_fn)
    # The scheme also pins the method's type for any redefinition further
    # down.
    if mi.scheme is not None:
        out.scheme = Scheme(mi.scheme.count, type_fn(mi.scheme.body))
    if mi.param_types is not None:
        out.param_types = [type_fn(t) for t in mi.param_types]
    if mi.ret_type is not None:
        out.ret_type = type_fn(mi.ret_type)
    return out


# ---------------------------------------------------------------------------
# Normalization


def merge_lineages(parents: list[list[str]], self_name: str) -> list[str]:
    out: list[str] = []
    for lin in parents:
        for s in lin:
            if s not in out:
                out.append(s)
    if self_name not in out:
        out.append(self_name)
    return out


def _adopt_definition(cur: MethodInfo, inc: MethodInfo) -> None:
    cur.params = inc.params
    cur.ret = inc.ret
    cur.body = inc.body
    cur.rec = inc.rec
    cur.proof = inc.proof
    cur.proof_origin = inc.proof_origin
    cur.origin = inc.origin
    cur.kind = inc.kind
    cur.pos = inc.pos
    if cur.first_def is None:
        cur.first_def = inc.first_def
    # The definition brings its analysis along, which still holds only if
    # it was made against the same declared type.
    cur.param_types = inc.param_types
    cur.ret_type = inc.ret_type
    cur.carrier_decl = inc.carrier_decl
    cur.carrier_def = inc.carrier_def
    cur.scanned_in = inc.scanned_in
    cur.valid_proof = inc.valid_proof
    cur.carried = (
        inc.carried
        and inc.scheme == cur.scheme
        and inc.ty == cur.ty
        and inc.extra_sigs == cur.extra_sigs
    )


def _merge(nf: NFSpecies, inc: MethodInfo) -> None:
    cur = nf.methods.get(inc.name)
    if cur is None:
        nf.methods[inc.name] = inc
        return
    if cur.is_logical != inc.is_logical:
        raise CompileError(
            DUPLICATE,
            f"{inc.name} is redeclared as a different kind of method "
            f"in {inc.origin}",
            inc.pos,
        )
    if inc.ty is not None:
        # A new declared type must be checked against the definition.
        if cur.ty is None:
            cur.ty = inc.ty
            cur.carried = False
        elif inc.decl_site != cur.decl_site and inc.ty != cur.ty:
            cur.extra_sigs.append(inc.ty)
            cur.carried = False
    if inc.statement is not None:
        if cur.statement is None:
            cur.statement = inc.statement
        elif inc.decl_site != cur.decl_site and inc.statement != cur.statement:
            raise CompileError(
                TYPE_MISMATCH,
                f"{inc.name} is restated with a different statement "
                f"in {inc.decl_site}",
                inc.pos,
            )
    cur.superseded |= inc.superseded
    if not inc.defined:
        return
    if not cur.defined:
        _adopt_definition(cur, inc)
        return
    if inc.origin == cur.origin:
        return
    if inc.origin in cur.superseded:
        return
    if cur.origin in inc.superseded:
        _adopt_definition(cur, inc)
        return
    # Sibling parents both define the method: the later inherit wins.
    cur.superseded.add(cur.origin)
    _adopt_definition(cur, inc)


def _local_info(decl: SpeciesDecl, m: MethodDecl) -> MethodInfo:
    defined = m.kind in ("let", "theorem")
    return MethodInfo(
        name=m.name,
        kind=m.kind,
        decl_site=decl.name,
        first_def=decl.name if defined else None,
        origin=decl.name,
        proof_origin=decl.name if m.kind == "theorem" else None,
        ty=m.ty,
        params=list(m.params),
        ret=m.ret,
        body=m.body,
        statement=m.statement,
        proof=m.proof,
        rec=m.rec,
        pos=m.pos,
    )


def _build_subst(
    parent: NFSpecies, se: SpeciesExpr
) -> tuple[dict[str, str], dict[str, Expr]]:
    """Formal parameters of `parent` to the checked arguments of `se`."""
    qual_map: dict[str, str] = {}
    entity_map: dict[str, Expr] = {}
    for formal, arg in zip(parent.params, se.args):
        if formal.kind == "is":
            assert arg.name is not None
            qual_map[formal.name] = arg.name
        else:
            entity_map[formal.name] = arg.entity
    return qual_map, entity_map


def _offers_formal_types(
    parent: NFSpecies,
    nf: NFSpecies,
    qual_map: dict[str, str],
    species_env: dict[str, NFSpecies],
    collections: dict[str, "CollectionModel"],
) -> bool:
    """Whether each is-argument offers the methods of its formal's interface
    at the formal's types, renamed: the parent's methods were typed against
    those.  Another interface or other interface arguments can differ."""
    child_is = frozenset(p.name for p in nf.is_params)
    for formal in parent.is_params:
        actual = qual_map[formal.name]
        own = next((p for p in nf.is_params if p.name == actual), None)
        if own is not None:
            have = param_schemes(nf, own, species_env)
        else:
            have = collections[actual].iface_schemes
        for m, s in param_schemes(parent, formal, species_env).items():
            if have.get(m) != Scheme(s.count, rename_caps(s.body, qual_map, child_is)):
                return False
    return True


def normalize(
    nf: NFSpecies,
    decl: SpeciesDecl,
    species_env: dict[str, NFSpecies],
    collections: dict[str, "CollectionModel"],
) -> None:
    """Flatten `decl` into `nf`, which holds its parameters.  The arguments
    of the parameters' interfaces and of the inherits are already checked."""
    parent_lineages: list[list[str]] = []
    carries = True
    child_is = frozenset(p.name for p in nf.is_params)
    own_carriers = {p.name: p.carrier for p in decl.params if p.kind == "in"}
    for se in decl.inherits:
        parent = species_env[se.name]
        qual_map, entity_map = _build_subst(parent, se)
        type_fn = lambda t: rename_caps(t, qual_map, child_is)
        if parent.rep is not None:
            rep = type_fn(parent.rep)
            if nf.rep is None:
                nf.rep = rep
                nf.rep_origin = parent.rep_origin
            elif nf.rep_origin != parent.rep_origin or nf.rep != rep:
                raise CompileError(
                    REP_REDEFINED,
                    f"{decl.name} inherits two representations "
                    f"(from {nf.rep_origin} and {parent.rep_origin})",
                    se.pos,
                )
        renamed = {
            f: a for f, a in qual_map.items() if a != f or a not in child_is
        }
        substituted = {f: e for f, e in entity_map.items() if e != Var(f)}
        for mi in parent.methods.values():
            _merge(nf, subst_method(mi, renamed, substituted, child_is))
        # Any entity argument but an own entity parameter over the renamed
        # carrier is an expression to type and scan the methods with.
        carries = carries and all(
            isinstance(arg, Var)
            and own_carriers.get(arg.name) == qual_map[formal.carrier]
            for formal, arg in zip(parent.entity_params, entity_map.values())
        )
        carries = carries and _offers_formal_types(
            parent, nf, qual_map, species_env, collections
        )
        parent_lineages.append(parent.lineage)
        nf.ancestor_args[parent.name] = {**qual_map, **entity_map}
        for anc, amap in parent.ancestor_args.items():
            if anc == parent.name:
                continue
            composed: dict[str, str | Expr] = {}
            for formal, actual in amap.items():
                if isinstance(actual, str):
                    composed[formal] = qual_map.get(actual, actual)
                else:
                    composed[formal] = subst_expr(
                        actual, qual_map, entity_map, type_fn
                    )
            nf.ancestor_args[anc] = composed
    nf.lineage = merge_lineages(parent_lineages, decl.name)
    nf.ancestor_args[decl.name] = {
        p.name: (p.name if p.kind == "is" else Var(p.name, pos=p.pos))
        for p in decl.params
    }
    if decl.representation is not None:
        if nf.rep is not None:
            raise CompileError(
                REP_REDEFINED,
                f"representation of {decl.name} is already fixed by "
                f"{nf.rep_origin}",
                decl.rep_pos,
            )
        if any(isinstance(n, TSelf) for n in type_walk(decl.representation)):
            raise CompileError(
                TYPE_MISMATCH,
                "representation cannot mention Self",
                decl.rep_pos,
            )
        nf.rep = decl.representation
        nf.rep_origin = decl.name
    for m in decl.methods:
        if m.kind == "proof_of":
            cur = nf.methods.get(m.name)
            if cur is None or not cur.is_logical:
                raise CompileError(
                    UNKNOWN, f"proof of unknown property {m.name}", m.pos
                )
            cur.proof = m.proof
            cur.proof_origin = decl.name
            cur.origin = decl.name
            cur.kind = "theorem"
            cur.valid_proof = True
            cur.carried = False
            if cur.first_def is None:
                cur.first_def = decl.name
            continue
        _merge(nf, _local_info(decl, m))
    # A name the species brings in captures the same name wherever an
    # inherited method leaves it free: a method or an entity parameter named
    # like a builtin, an entity parameter named like a method, a collection
    # parameter named like a collection.
    builtins = BUILTIN_FUNCTIONS.keys() | BUILTIN_PROPERTIES
    entities = {p.name for p in nf.entity_params}
    if (
        not carries
        or not builtins.isdisjoint(nf.methods)
        or not entities.isdisjoint(builtins | nf.methods.keys())
        or not child_is.isdisjoint(collections)
    ):
        for mi in nf.methods.values():
            mi.carried = False


def invalidate_proofs(nf: NFSpecies) -> list[RevertedProof]:
    """Erase proofs whose unfolded definitions were later redefined."""
    rank = {s: i for i, s in enumerate(nf.lineage)}
    reverted: list[RevertedProof] = []
    for mi in nf.methods.values():
        if mi.kind != "theorem" or mi.proof is None:
            continue
        assert mi.proof_origin is not None
        proof_rank = rank.get(mi.proof_origin, len(nf.lineage))
        for def_name in collect_leaf_facts(mi.proof).definitions:
            target = nf.methods.get(def_name)
            if target is None:
                continue  # reported by the dependency scan
            if rank.get(target.origin, 0) > proof_rank:
                mi.valid_proof = False
                reverted.append(
                    RevertedProof(
                        mi.name,
                        mi.proof_origin,
                        def_name,
                        target.origin,
                        target.pos,  # point at the redefinition
                    )
                )
                break
    nf.reverted = reverted
    return reverted


# ---------------------------------------------------------------------------
# Collections


@dataclass
class CollectionModel:
    name: str
    nf: NFSpecies  # underlying complete species (shared, not copied)
    param_map: dict[str, str] = field(default_factory=dict)  # formal -> collection
    entity_args: dict[str, Expr] = field(default_factory=dict)
    arg_order: list[tuple[str, str]] = field(default_factory=list)  # (kind, formal)
    iface_schemes: dict[str, Scheme] = field(default_factory=dict)
    carrier: Type | None = None  # representation with parameters substituted
    pos: Pos = NOPOS


def make_collection(
    decl: CollectionDecl,
    species_env: dict[str, NFSpecies],
    collections: dict[str, CollectionModel],
    type_entity_arg,
) -> CollectionModel:
    """Encapsulate a complete species; `type_entity_arg(expr, coll_name)`
    checks one effective entity argument against a collection's carrier."""
    se = decl.implements
    base = species_env.get(se.name)
    if base is None:
        raise CompileError(UNKNOWN, f"unknown species {se.name}", se.pos)
    missing = base.incompleteness()
    if missing:
        raise CompileError(
            INCOMPLETE,
            f"species {se.name} is not complete",
            decl.pos,
            witness=missing,
        )
    if len(se.args) != len(base.params):
        raise CompileError(
            INTERFACE,
            f"{se.name} takes {len(base.params)} argument(s), got {len(se.args)}",
            se.pos,
        )
    model = CollectionModel(name=decl.name, nf=base, pos=decl.pos)
    for formal, arg in zip(base.params, se.args):
        if formal.kind == "is":
            if arg.name is None or arg.name not in collections:
                raise CompileError(
                    UNKNOWN,
                    f"parameter {formal.name} of {se.name} needs an existing "
                    "collection",
                    arg.pos,
                )
            actual = collections[arg.name]
            assert formal.interface is not None
            _check_interface(formal.interface.name, actual, species_env, arg.pos)
            model.param_map[formal.name] = arg.name
            model.arg_order.append(("is", formal.name))
        else:
            expr = arg.entity
            assert formal.carrier is not None
            target = model.param_map.get(formal.carrier)
            if target is None:
                raise CompileError(
                    UNKNOWN,
                    f"entity parameter {formal.name} has no effective carrier",
                    arg.pos,
                )
            type_entity_arg(expr, target)
            model.entity_args[formal.name] = expr
            model.arg_order.append(("in", formal.name))

    def subst(t: Type) -> Type:
        def step(n: Type) -> Type:
            match n:
                case TSelf():
                    return TCollCarrier(decl.name)
                case TParam(p) if p in model.param_map:
                    return TCollCarrier(model.param_map[p])
                case _:
                    return n

        return type_map(t, step)

    assert base.rep_resolved is not None
    model.carrier = type_map(
        base.rep_resolved,
        lambda n: TCollCarrier(model.param_map[n.name])
        if isinstance(n, TParam) and n.name in model.param_map
        else n,
    )
    for name, mi in base.methods.items():
        if mi.scheme is not None:
            model.iface_schemes[name] = Scheme(
                mi.scheme.count, subst(mi.scheme.body)
            )
    return model


def _check_interface(
    iface: str,
    actual: CollectionModel,
    species_env: dict[str, NFSpecies],
    pos: Pos,
) -> None:
    if iface in actual.nf.lineage:
        return
    iface_nf = species_env.get(iface)
    if iface_nf is None:
        raise CompileError(UNKNOWN, f"unknown species {iface}", pos)
    problems: list[str] = []
    for name, mi in iface_nf.methods.items():
        other = actual.nf.methods.get(name)
        if other is None:
            problems.append(f"missing {name}")
        elif mi.scheme is not None and other.scheme != mi.scheme:
            problems.append(f"{name} has a different type")
        elif mi.statement is not None and other.statement != mi.statement:
            problems.append(f"{name} has a different statement")
    if problems:
        raise CompileError(
            INTERFACE,
            f"{actual.name} does not implement {iface}",
            pos,
            witness=problems,
        )
