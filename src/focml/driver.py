"""Pipeline driver: parse -> flatten -> type -> analyze; plan on demand.

Declarations are processed in unit order, so a species can only lean on
species and collections that precede it.  The result bundles everything the
reports read; the emitters and the evaluator plan it first (`plan_unit`).
"""

from __future__ import annotations

from json import loads
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
from .generators import _param_method_lift, build_extraction_plan, build_species_plan
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
from .pretty import expr_to_source, type_to_source
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
    data = Path(path).read_bytes()
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
        plans, extractions = {}, {}
        for kind, name in cu.decl_order:
            with cu.writing(name):
                if kind == "species":
                    nf, parent = cu.species[name], cu.parents[name]
                    plans[name] = build_species_plan(nf, cu.species, plans, parent)
                elif kind == "collection":
                    extractions[name] = build_extraction_plan(cu.collections[name], plans)
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
        decl.constructors[i] = (cname, args)
        cu.constructors[cname] = (decl.name, args)


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
            if concrete:
                try:
                    uni.unify(got, cu.collections[carrier.name].carrier, arg.pos)
                    continue
                except CompileError:
                    pass  # A qualified call already returns the abstract carrier.
            uni.unify(got, carrier, arg.pos)


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


# ---------------------------------------------------------------------------
# Dependency report


def deps_report(cu: CompiledUnit) -> dict:
    """`render_deps_report` read back."""
    return loads(render_deps_report(cu))


def render_deps_report(cu: CompiledUnit) -> str:
    """The dependency analysis as JSON, each set in its species' global
    method order, as `json.dumps(report, indent=2)` writes the report of
    `tests/oracles.py`.  A scheme's or statement's text is written once per
    object (`_source_of`), a method entry once per key: it reads the
    method's record, its finished entry (`MethodDeps`), its order index and
    the species' parameters.  A finished entry is shared only with heirs
    (`_extended_parent`) that have its parameters and keep its relative
    order (`finish_deps`), so its sets read alike there."""
    texts: dict[int, str] = {}
    entries: dict[tuple, str] = {}  # key -> `"m": {...}`
    parts: dict[str, list[str]] = {"species": [], "collections": []}  # "name": {...}
    for kind, name in cu.decl_order:
        with cu.writing(name):
            if kind == "species":
                parts["species"].append(_species_json(cu, name, texts, entries))
            elif kind == "collection":
                model = cu.collections[name]
                args = _json_block([_json_string(a) for a in _collection_args(model)], _NL[3], "[]")
                fields = {"implements": _json_string(model.nf.name), "args": args}
                parts["collections"].append(f"{_json_string(name)}: {_json_object(fields, _NL[2])}")
    out = ["{"]  # pieces, joined once: the species' texts are not copied again
    for part, items in parts.items():
        out += (_NL[1], f'"{part}": ', *_block_pieces(items, _NL[1], "{}"), ",")
    out[-1] = _NL[0] + "}\n"
    return "".join(out)


_NL = tuple("\n" + "  " * depth for depth in range(9))  # a line break, indented
_JSON_BOOL = ("false", "true")


def _block_pieces(items: list[str], nl: str, brackets: str) -> list[str]:
    """The array or object (`brackets` "[]" or "{}") of the written
    `items`, its brackets on lines that `nl` starts, in pieces."""
    if not items:
        return [brackets]
    pieces = ["," + nl + "  "] * (2 * len(items) + 1)
    pieces[0] = brackets[0] + nl + "  "
    pieces[1::2] = items
    pieces[-1] = nl + brackets[1]
    return pieces


def _json_block(items: list[str], nl: str, brackets: str) -> str:
    return "".join(_block_pieces(items, nl, brackets))


def _json_object(fields: dict[str, str], nl: str) -> str:
    """The object of the written values in `fields`."""
    return _json_block([f"{_json_string(k)}: {v}" for k, v in fields.items()], nl, "{}")


def _species_json(cu: CompiledUnit, name: str, texts: dict, entries: dict) -> str:
    nf = cu.species[name]
    index = {m: i for i, m in enumerate(nf.order)}
    methods: list[str] = []
    for i, m in enumerate(nf.order):
        mi = nf.methods[m]
        key = (id(nf.deps[m]), id(mi), i)
        text = entries.get(key)
        if text is None:
            text = entries[key] = _method_json(cu, nf, m, index, texts)
        methods.append(text)
    order = _json_block([_json_string(m) for m in nf.order], _NL[3], "[]")
    fields = {"order": order, "methods": _json_block(methods, _NL[3], "{}")}
    return f"{_json_string(name)}: {_json_object(fields, _NL[2])}"


def _method_json(
    cu: CompiledUnit, nf: NFSpecies, m: str, index: dict[str, int], texts: dict[int, str]
) -> str:
    """`"m": {...}`, the entry of method `m` of `nf`."""
    mi = nf.methods[m]
    md = nf.deps[m]
    nl = _NL[5]

    def names(s: set[str]) -> str:
        return _json_block([_json_string(n) for n in sorted(s, key=index.__getitem__)], nl, "[]")

    def source(node: Scheme | Expr | None) -> str:
        return "null" if node is None else _json_string(_source_of(texts, node))

    def pairs(key: str, items: list[tuple[str, str]], nl: str) -> str:
        f = nl + "    "  # a field of an item
        return _json_block([f'{{{f}"name": {_json_string(a)},{f}"{key}": {_json_string(b)}{nl}  }}'
                            for a, b in items], nl, "[]")

    lifts = {p.name: [(w, _param_method_type(cu, nf, p, w)) for w in md.param_deps.get(p.name, [])]
             for p in nf.is_params if md.param_deps.get(p.name) or md.param_carrier.get(p.name)}
    for v in md.entity_used:
        lifts[v] = [(v, next(q.carrier for q in nf.entity_params if q.name == v))]
    params = {p: pairs("type", items, _NL[6]) for p, items in lifts.items()}
    entry = {
        "kind": _json_string(mi.kind),
        "origin": _json_string(mi.origin),
        "type": source(mi.scheme),
        "statement": source(mi.statement),
        "decl": names(md.decl),
        "def": names(md.defs),
        "universe": names(md.universe),
        "carrier": _json_object({"decl": _JSON_BOOL[mi.carrier_decl],
                                 "def": _JSON_BOOL[mi.carrier_def]}, nl),
        "min_env": pairs("keep", md.min_env, nl),
        "params": _json_object(params, nl),
        "order_index": str(index[m]),
        "valid_proof": _JSON_BOOL[mi.valid_proof],
    }
    return f"{_json_string(m)}: {_json_object(entry, _NL[4])}"


def _source_of(texts: dict[int, str], node: Scheme | Expr) -> str:
    """Source text of a scheme's type or of a statement, written once per
    object: an heir shares both with the species it inherits them from."""
    text = texts.get(id(node))
    if text is None:
        text = texts[id(node)] = (
            type_to_source(node.body) if type(node) is Scheme else expr_to_source(node)
        )
    return text


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


# ---------------------------------------------------------------------------
# Documentation output


def doc_text(cu: CompiledUnit) -> str:
    """Per-species method inventory with origins, reverted proofs and
    admitted proof steps.  A scheme's or a statement's text is written once
    per object (`_source_of`), and a proof's admitted steps counted once."""
    texts: dict[int, str] = {}
    admitted_in: dict[int, int] = {}  # id of a proof -> its admitted steps
    written: dict[int, str] = {}  # id of a method record -> its line
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
                line = written.get(id(mi))
                if line is None:
                    node = mi.scheme if mi.scheme is not None else mi.statement
                    ty = "?" if node is None else _source_of(texts, node)
                    line = written[id(mi)] = f"  {mi.kind} {m} : {ty} (from {mi.origin})"
                lines.append(line)
            for m in nf.order:
                proof = nf.methods[m].proof
                if proof is None:
                    continue
                if id(proof) not in admitted_in:
                    admitted_in[id(proof)] = sum(1 for leaf in iter_leaves(proof) if leaf.admitted)
                admitted = admitted_in[id(proof)]
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
