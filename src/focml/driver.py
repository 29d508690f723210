"""Pipeline driver: parse -> flatten -> type -> analyze; plan on demand.

Declarations are processed in unit order, so a species can only lean on
species and collections that precede it.  The result bundles everything the
reports read; the emitters and the evaluator plan it first (`plan_unit`).

The plan builders and the report writers are imported on first use
(`__getattr__`, PEP 562), so `check` loads neither.
"""

from __future__ import annotations

import sys
from importlib import import_module

from .ast import (
    CollectionDecl,
    Expr,
    MethodDecl,
    Pos,
    Record,
    Scheme,
    SpeciesDecl,
    SpeciesExpr,
    TArrow,
    TCollCarrier,
    TCon,
    TParam,
    TSelf,
    TTuple,
    TVar,
    Type,
    UnionTypeDecl,
    same,
    type_walk,
)
from .deps import finish_deps, scan_species
from .errors import (
    DUPLICATE,
    INCOMPLETE,
    INTERFACE,
    PROOF,
    SYNTAX,
    TYPE_MISMATCH,
    UNKNOWN,
    CompileError,
    Diagnostic,
    depth_limit_at,
)
from .hierarchy import (
    Args,
    CollectionModel,
    MethodInfo,
    NFSpecies,
    applied_schemes,
    interface_view,  # noqa: F401  perfbench/layers.py traces it by this name
    invalidate_proofs,
    make_collection,
    normalize,
    rename_args,
)
from .parser import parse_source
from .proofs import iter_leaves
from .resolve import COLLECTION, Names, resolve, resolve_method, resolve_type
from .typecheck import (
    SpeciesTypeEnv,
    Unifier,
    check_proof,
    check_statement,
    infer_expr,
    type_let,
)

_LAZY = {
    "build_extraction_plan": "generators",
    "build_species_plan": "generators",
    "deps_report": "report",
    "doc_text": "report",
    "render_deps_report": "report",
}


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __package__), name)
    globals()[name] = value
    return value


class CompiledUnit(Record):
    """Everything the back ends consume, keyed by declaration name."""

    def __init__(
        self,
        unions: dict[str, UnionTypeDecl] | None = None,
        species: dict[str, NFSpecies] | None = None,
        parents: dict[str, NFSpecies | None] | None = None,
        collections: dict[str, CollectionModel] | None = None,
        decl_order: list[tuple[str, str]] | None = None,
        constructors: dict[str, tuple[str, list[Type]]] | None = None,
        warnings: list[Diagnostic] | None = None,
        files: dict[str, str] | None = None,
    ):
        self.unions = {} if unions is None else unions
        self.species = {} if species is None else species
        self.parents = {} if parents is None else parents  # species -> `_extended_parent`
        self.collections = {} if collections is None else collections
        self.decl_order = [] if decl_order is None else decl_order
        self.constructors = {} if constructors is None else constructors
        self.warnings = [] if warnings is None else warnings
        self.files = {} if files is None else files  # declaration -> its file

    def writing(self, name: str):
        """A `RecursionError` writing declaration `name` is a `DepthLimit` there."""
        decl = self.unions.get(name) or self.species.get(name) or self.collections[name]
        return depth_limit_at(decl.pos, self.files.get(name))


def compile_files(paths: list[str]) -> CompiledUnit:
    return compile_unit([(p, _read_source(p)) for p in paths])


def _read_source(path: str) -> str:
    """A source file's text, decoded as UTF-8 whatever the locale, its line
    ends read as `\\n` as text mode reads them.  A byte that does not decode
    is a syntax error at its line and column."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        before = data[: err.start].decode("utf-8")
        pos = Pos(before.count("\n") + 1, len(before) - before.rfind("\n"))
        error = CompileError(SYNTAX, f"invalid UTF-8 byte 0x{data[err.start]:02x}", pos)
        error.file = path
        raise error from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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


def plan_unit(cu: CompiledUnit) -> CompiledUnit:
    """Set `cu.plans` and `cu.extractions`, once, in declaration order: an
    heir extends its parent's plans (`_extended_parent`)."""
    if "plans" not in vars(cu):
        # Read as attributes of this module, which loads them, so that a
        # tracer that wraps them there (`setattr`) sees every call.
        this = sys.modules[__name__]
        plans, extractions = {}, {}
        for kind, name in cu.decl_order:
            with cu.writing(name):
                if kind == "species":
                    nf, parent = cu.species[name], cu.parents[name]
                    plans[name] = this.build_species_plan(nf, cu.species, plans, parent)
                elif kind == "collection":
                    extractions[name] = this.build_extraction_plan(cu.collections[name], plans)
        cu.plans, cu.extractions = plans, extractions
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
    names = Names(collections=cu.collections, unions=cu.unions)
    seen: set[str] = set()
    for i, (cname, args) in enumerate(decl.constructors):
        if cname in seen or cname in cu.constructors:
            raise CompileError(
                DUPLICATE, f"duplicate constructor {cname}", decl.pos
            )
        seen.add(cname)
        args = [resolve_type(t, names, decl.pos) for t in args]
        if any(map(_mentions_self, args)):
            raise CompileError(
                TYPE_MISMATCH,
                f"constructor {cname} of {decl.name} cannot mention Self",
                decl.pos,
            )
        # A proof checker accepts an inductive type only where it occurs
        # strictly positively in its constructors.
        if any(_left_of_arrow(decl.name, t) for t in args):
            raise CompileError(
                TYPE_MISMATCH,
                f"constructor {cname} of {decl.name} cannot take {decl.name} "
                "left of an arrow",
                decl.pos,
            )
        decl.constructors[i] = (cname, args)
        cu.constructors[cname] = (decl.name, args)


def _left_of_arrow(name: str, t: Type) -> bool:
    """Whether the union `name` occurs in an arrow's argument within `t`."""
    return any(
        type(n) is TArrow and TCon(name) in type_walk(n.arg) for n in type_walk(t)
    )


# ---------------------------------------------------------------------------
# Species


def _register_species(cu: CompiledUnit, decl: SpeciesDecl) -> None:
    # The header first: the parameters, then the arguments of each inherit.
    nf = NFSpecies(name=decl.name, params=list(decl.params), pos=decl.pos)
    env = _species_env(cu, nf)
    inherit_args = [
        _check_species_args(cu, se, env, se.pos, nf) for se in decl.inherits
    ]
    # The species' own text is resolved here, once (`resolve`), before
    # flattening copies or compares any of it: its inherit arguments, its
    # representation and its methods, types included.
    methods = {m.name for m in decl.methods if m.kind != "proof_of"}
    methods.update(*(cu.species[se.name].methods for se in decl.inherits))
    names = Names(env.entity_params, methods, env.param_ifaces, env.collections, cu.unions)
    for args in inherit_args:
        _resolve_entity_args(args, names)
    if decl.representation is not None:
        decl.representation = resolve_type(decl.representation, names, decl.pos)
    for m in decl.methods:
        resolve_method(m, names)
        _check_collection_facts(cu, m)
    normalize(nf, decl, inherit_args, cu.species)
    env.rep = nf.rep
    parent = _extended_parent(cu, decl, nf)
    reverted = invalidate_proofs(nf, parent)
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
    scan_species(nf, parent, tuple(cu.species[se.name] for se in decl.inherits))
    _type_species(nf, env)
    # Inherit arguments may name the species' own methods.
    for se, args in zip(decl.inherits, inherit_args):
        _type_entity_args(cu, se, args, env)
    finish_deps(nf, cu.species, parent)
    cu.species[nf.name] = nf
    cu.parents[nf.name] = parent


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
    env = SpeciesTypeEnv(rep=nf.rep, constructors=cu.constructors)
    env.collections = {
        c: m.iface_schemes for c, m in cu.collections.items()
    }
    for p in nf.params:
        if p.kind == "is":
            assert p.interface is not None
            args = _check_species_args(cu, p.interface, env, p.pos, nf)
            names = Names(env.entity_params, (), env.param_ifaces, env.collections)
            _resolve_entity_args(args, names)
            _type_entity_args(cu, p.interface, args, env)
            nf.iface_args[p.name] = args
            env.param_ifaces[p.name] = applied_schemes(
                cu.species[p.interface.name], args, TParam(p.name)
            )
        elif p.carrier not in env.param_ifaces:
            raise CompileError(
                UNKNOWN,
                f"entity parameter {p.name} needs a preceding collection "
                f"parameter, got {p.carrier}",
                p.pos,
            )
        else:
            env.entity_params[p.name] = TParam(p.carrier)
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
    cu: CompiledUnit,
    se: SpeciesExpr,
    env: SpeciesTypeEnv,
    pos: Pos,
    nf: NFSpecies | None = None,
) -> Args:
    """Check `S (args)`, written as a parameter's interface, inherited or
    implemented, against the parameters of S.  `pos` places an unknown S or
    a wrong arity.  Each is-argument is a collection parameter of `nf` that
    precedes the application (one in `nf.iface_args`) or a collection.  S's
    methods were typed once, against each formal `P is I (...)`, so its
    argument must offer `I` as P does: its lineage lists `I`, its own
    actuals of `I` are P's, renamed by this application's, and it offers
    each method of `I` at P's scheme, as the typing `env` looks it up.
    This decides, once, what each argument denotes: returns the actual of
    each formal, `TParam` for an own parameter and `TCollCarrier` for a
    collection, an entity argument as its expression, compared as written."""
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
        # The species the argument applies, at which actuals, and the
        # schemes of its methods, as `infer_expr` looks up `q!m` and `C!m`.
        if nf is not None and arg.name in nf.iface_args:
            q = next(q for q in nf.is_params if q.name == arg.name)
            assert q.interface is not None
            base, base_args = cu.species[q.interface.name], nf.iface_args[q.name]
            actual, offers = TParam(q.name), env.param_ifaces[q.name]
        elif arg.name in cu.collections:
            model = cu.collections[arg.name]
            base, base_args = model.nf, model.args
            actual, offers = TCollCarrier(arg.name), env.collections[arg.name]
        else:
            raise CompileError(UNKNOWN, f"unknown collection {arg.name}", arg.pos)
        args[formal.name] = actual
        assert formal.interface is not None
        iface = formal.interface.name
        if iface not in base.lineage:
            raise CompileError(
                INTERFACE, f"{arg.name} does not implement {iface}", arg.pos
            )
        want = rename_args(formal_nf.iface_args[formal.name], args)
        if rename_args(base.ancestor_args[iface], base_args) != want:
            raise CompileError(
                INTERFACE,
                f"{arg.name} implements {iface} at other arguments than "
                f"parameter {formal.name} of {se.name}",
                arg.pos,
            )
        for m, s in applied_schemes(cu.species[iface], want, actual).items():
            if not same(offers.get(m), s):
                raise CompileError(
                    INTERFACE,
                    f"{arg.name} offers the methods of {iface} at other types "
                    f"than parameter {formal.name} of {se.name}",
                    arg.pos,
                )
    return args


def _resolve_entity_args(args: Args, names: Names) -> None:
    for a in args.values():
        if isinstance(a, Expr):
            resolve(a, names)


def _type_entity_args(
    cu: CompiledUnit,
    se: SpeciesExpr,
    args: Args,
    env: SpeciesTypeEnv,
    concrete: bool = False,
) -> None:
    """Each entity argument of `se` must have its formal's carrier, renamed
    to that is-argument.  In a collection (`concrete`), where that carrier
    is a collection's, the argument may also have its representation."""
    for formal, arg in zip(cu.species[se.name].params, se.args):
        if formal.kind == "in":
            uni = Unifier()
            got = infer_expr(args[formal.name], {}, env, uni)
            carrier = args[formal.carrier]
            if concrete and _unifies(uni.deep(got), cu.collections[carrier.name].carrier, {}):
                continue  # a qualified call has the abstract carrier instead
            uni.unify(got, carrier, arg.pos)


def _unifies(t: Type, closed: Type, bound: dict[int, Type]) -> bool:
    """Whether `Unifier.unify` accepts `t`, resolved, against `closed`,
    which has no variable, decided without binding or raising: each
    variable of `t` stands for one subtree of `closed` (`bound`)."""
    if type(t) is TVar:
        return same(bound.setdefault(t.uid, closed), closed)
    if type(t) is TArrow and type(closed) is TArrow:
        return _unifies(t.arg, closed.arg, bound) and _unifies(t.res, closed.res, bound)
    if type(t) is TTuple and type(closed) is TTuple and len(t.items) == len(closed.items):
        return all(_unifies(a, b, bound) for a, b in zip(t.items, closed.items))
    return same(t, closed)


def _type_species(nf: NFSpecies, env: SpeciesTypeEnv) -> None:
    """Type the methods the species analyses (`nf.analysed`), in global
    order, and store each typed record.  A method holding an ancestor's
    analysis is analysed too when a method it declares a dependency on was
    typed again here to another scheme."""
    group_of: dict[str, list[str]] = {}
    for g in nf.rec_groups:
        for m in g:
            group_of[m] = g
    changed: set[str] = set()
    for name in nf.order:
        mi = nf.methods[name]
        if name in group_of and env.methods.get(name) is None:
            _seed_rec_group(nf, group_of[name], env)
        if changed and not changed.isdisjoint(nf.deps[name].decl):
            nf.analysed.add(name)
        if name in nf.analysed:
            typed = _type_method(mi, env)
            if not same(typed.scheme, mi.scheme):
                changed.add(name)
            nf.methods[name] = mi = typed
        if mi.scheme is not None:
            env.methods[name] = mi.scheme


def _type_method(mi: MethodInfo, env: SpeciesTypeEnv) -> MethodInfo:
    """Type one method: a new record with its scheme and carrier use
    flags."""
    # The pin is the declared signature if any, else the scheme the method
    # got in the species that first defined it.
    stored = _declared_scheme(mi) or mi.scheme
    match mi.kind:
        case "signature":
            assert stored is not None
            return mi.replace(scheme=stored, carrier_decl=_mentions_self(stored.body))
        case "let":
            lt = type_let(mi, stored, env)
            return mi.replace(
                scheme=lt.scheme,
                param_types=lt.param_types,
                ret_type=lt.ret_type,
                carrier_decl=lt.touched_self or _mentions_self(lt.scheme.body),
                carrier_def=lt.used_rep,
            )
        case "property" | "theorem":
            assert mi.statement is not None
            st = check_statement(mi.statement, env)
            if mi.proof is None:
                return mi.replace(carrier_decl=st.touched_self)
            pt = check_proof(mi.proof, env)
            return mi.replace(
                carrier_decl=st.touched_self or pt.touched_self, carrier_def=pt.used_rep
            )


def _declared_scheme(mi: MethodInfo) -> Scheme | None:
    """The declared signature; `_merge` kept each other one that differs."""
    if mi.ty is None:
        return None
    if mi.extra_sigs:
        from .pretty import type_to_source

        raise CompileError(
            TYPE_MISMATCH,
            f"conflicting signatures for {mi.name}: "
            f"{type_to_source(mi.ty)} vs {type_to_source(mi.extra_sigs[0])}",
            mi.pos,
        )
    return Scheme(0, mi.ty)


def _seed_rec_group(
    nf: NFSpecies, group: list[str], env: SpeciesTypeEnv
) -> None:
    """Mutually recursive lets are typed against declared signatures."""
    for m in group:
        mi = nf.methods[m]
        if mi.ty is not None:
            env.methods[m] = Scheme(0, mi.ty)
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
    se = decl.implements
    base = cu.species.get(se.name)
    if base is None:
        raise CompileError(UNKNOWN, f"unknown species {se.name}", se.pos)
    missing = base.incompleteness()
    if missing:
        raise CompileError(
            INCOMPLETE, f"species {se.name} is not complete", decl.pos, witness=missing
        )
    if base.rec_groups:
        raise CompileError(
            INCOMPLETE,
            f"species {base.name} defines mutually recursive methods, "
            "which cannot back a collection",
            decl.pos,
            witness=list(base.rec_groups[0]),
        )
    env = SpeciesTypeEnv(
        constructors=cu.constructors,
        collections={c: m.iface_schemes for c, m in cu.collections.items()},
    )
    args = _check_species_args(cu, se, env, se.pos)
    _resolve_entity_args(args, Names(collections=cu.collections))
    _type_entity_args(cu, se, args, env, concrete=True)
    cu.collections[decl.name] = make_collection(decl, base, args)
