"""Species flattening: inheritance merge, late binding, and collection checks.

A species normal form carries every method reachable through `inherit`, with
parameter substitutions applied and redefinitions resolved by late binding:
the last definition along the linearized inheritance chain wins, while the
method's type stays pinned to its first declaration.  Late binding applies
to methods only: an inherited tree keeps the tags its names got where it was
written (`resolve`), and renaming replaces only entity-tagged names and
parameter-tagged collections and carriers.  What each argument of a species
denotes is decided once, where the application is checked, and stored as the
actual itself (`Args`): renaming, interface views, the arguments recorded
for ancestors and collections all read that actual and never look its name
up again.  Inherited copies carry the typing and scan results of the species
they come from.  Proof invalidation and collection completeness both operate
on this normal form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .ast import (
    NOPOS,
    CollectionDecl,
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
    Record,
    Scheme,
    SpeciesDecl,
    SpeciesParam,
    TCap,
    TCollCarrier,
    TParam,
    TSelf,
    Type,
    Var,
    same,
    type_map,
    type_walk,
)
from .errors import (
    DUPLICATE,
    INCOMPLETE,
    INTERFACE,
    REP_REDEFINED,
    TYPE_MISMATCH,
    UNKNOWN,
    CompileError,
)
from .proofs import unfolded
from .resolve import COLLECTION, ENTITY, METHOD, PARAM

if TYPE_CHECKING:
    from .deps import MethodDeps


# The actual of each formal parameter of an applied species, as decided once
# where the application is checked: an is-formal maps to the carrier it
# denotes, `TParam` for a parameter of the applying species and
# `TCollCarrier` for a toplevel collection; an entity formal maps to its
# argument expression.
Args = dict[str, "Type | Expr"]


class MethodInfo(Record):
    """One flattened method with its full late-binding history."""

    __match_args__ = (
        "name", "kind", "decl_site", "first_def", "origin", "proof_origin", "ty",
        "extra_sigs", "params", "ret", "body", "statement", "proof", "rec", "superseded",
        "pos", "scheme", "param_types", "ret_type", "carrier_decl", "carrier_def",
        "scanned_in", "carried", "valid_proof",
    )

    def __init__(
        self,
        name: str,
        kind: str,  # 'signature' | 'let' | 'property' | 'theorem'
        decl_site: str,
        first_def: str | None,
        origin: str,
        proof_origin: str | None = None,
        ty: Type | None = None,  # first declared signature type
        extra_sigs: list[Type] | None = None,
        params: list[tuple[str, Type | None]] | None = None,
        ret: Type | None = None,
        body: Expr | None = None,
        statement: Expr | None = None,
        proof: Proof | None = None,
        rec: bool = False,
        superseded: set[str] | None = None,
        pos: Pos = NOPOS,
        scheme: Scheme | None = None,
        param_types: list[Type] | None = None,
        ret_type: Type | None = None,
        carrier_decl: bool = False,
        carrier_def: bool = False,
        scanned_in: str | None = None,
        carried: bool = False,
        valid_proof: bool = True,
    ):
        self.name = name
        self.kind = kind
        self.decl_site = decl_site
        self.first_def = first_def
        self.origin = origin
        self.proof_origin = proof_origin
        self.ty = ty
        self.extra_sigs = [] if extra_sigs is None else extra_sigs
        self.params = [] if params is None else params
        self.ret = ret
        self.body = body
        self.statement = statement
        self.proof = proof
        self.rec = rec
        self.superseded = set() if superseded is None else superseded
        self.pos = pos
        # Filled in by the typing and dependency phases of the species that
        # analyses the method, then carried, renamed, into its descendants.
        self.scheme = scheme
        self.param_types = param_types
        self.ret_type = ret_type
        self.carrier_decl = carrier_decl
        self.carrier_def = carrier_def
        self.scanned_in = scanned_in  # species whose deps hold decl/def sets
        # `carried` is set on inheritance and cleared where the species changes
        # what the analysis reads: a declared type, a definition adopted from a
        # sibling, an entity argument that is an expression, the types a
        # parameter offers, a `proof of`, or (in typing) the scheme of a method
        # it declares a dependency on.  The results above came from an ancestor
        # and still hold here, so the species skips typing and scanning the
        # method.  Names keep their tags in heirs, so no name clears it.
        self.carried = carried
        # A reverted proof stays reverted in descendants until a `proof of`.
        self.valid_proof = valid_proof

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


class RevertedProof(Record):
    __match_args__ = ("method", "proof_origin", "def_name", "def_origin", "pos")

    def __init__(self, method: str, proof_origin: str, def_name: str, def_origin: str, pos: Pos):
        self.method = method
        self.proof_origin = proof_origin
        self.def_name = def_name
        self.def_origin = def_origin
        self.pos = pos


class NFSpecies(Record):
    __match_args__ = (
        "name", "params", "lineage", "rep", "rep_origin", "rep_resolved", "methods",
        "order", "reverted", "iface_args", "ancestor_args", "pos",
    )

    def __init__(
        self,
        name: str,
        params: list[SpeciesParam] | None = None,
        lineage: list[str] | None = None,
        rep: Type | None = None,  # surface type, substituted
        rep_origin: str | None = None,
        rep_resolved: Type | None = None,  # filled by typing
        methods: dict[str, MethodInfo] | None = None,
        order: list[str] | None = None,  # filled by deps
        reverted: list[RevertedProof] | None = None,
        iface_args: dict[str, Args] | None = None,
        ancestor_args: dict[str, Args] | None = None,
        pos: Pos = NOPOS,
    ):
        self.name = name
        self.params = [] if params is None else params
        self.lineage = [] if lineage is None else lineage
        self.rep = rep
        self.rep_origin = rep_origin
        self.rep_resolved = rep_resolved
        self.methods = {} if methods is None else methods
        self.order = [] if order is None else order
        self.reverted = [] if reverted is None else reverted
        # is-parameter -> the actuals of its interface's formals.
        self.iface_args = {} if iface_args is None else iface_args
        # ancestor -> the actuals of its formals in this species' own terms.
        # Includes the species itself with identity bindings.
        self.ancestor_args = {} if ancestor_args is None else ancestor_args
        self.pos = pos

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


def interface_view(
    nf: NFSpecies, p: SpeciesParam, species_env: dict[str, NFSpecies]
) -> tuple[NFSpecies, Args]:
    """The interface of parameter `p` and the actuals of its formals, as
    seen from inside `nf`; the interface's `Self` is `TParam(p.name)`."""
    assert p.interface is not None
    return species_env[p.interface.name], nf.iface_args[p.name]


def param_schemes(
    nf: NFSpecies, p: SpeciesParam, species_env: dict[str, NFSpecies]
) -> dict[str, Scheme]:
    """Types of `p!m` inside `nf`, for each method `m` of `p`'s interface."""
    iface_nf, args = interface_view(nf, p, species_env)
    self_ty = TParam(p.name)
    return {
        m: Scheme(mi.scheme.count, rename_type(mi.scheme.body, args, self_ty))
        for m, mi in iface_nf.methods.items()
        if mi.scheme is not None
    }


# ---------------------------------------------------------------------------
# Substitution of species parameters by effective arguments


def rename_type(t: Type, args: Args, self_ty: Type | None = None) -> Type:
    """Replace each formal's carrier in `t` by its actual, and `Self` by
    `self_ty` if given.  A formal named in a surface type (`TCap`) becomes
    its actual too, which no later lookup of the name can change."""
    if not args and self_ty is None:
        return t

    def step(n: Type) -> Type:
        match n:
            case TSelf() if self_ty is not None:
                return self_ty
            case TCap(name) | TParam(name) if name in args:
                return args[name]
            case _:
                return n

    return type_map(t, step)


def _ref(actual: Type) -> str:
    """The tag of a name whose collection is `actual`."""
    return PARAM if isinstance(actual, TParam) else COLLECTION


def _unchanged(new: list, old: list) -> bool:
    """Whether rebuilding the items of `old` gave back each item itself."""
    return all(a is b for a, b in zip(new, old))


def subst_expr(
    e: Expr,
    args: Args,
    type_fn,
    method_map: dict[str, Expr] | None = None,
) -> Expr:
    """Rebuild `e` with the formals replaced by their actuals: an
    entity-tagged name becomes its argument (a method-tagged one in
    `method_map` its entry), and a parameter-tagged collection becomes the
    parameter or collection its actual denotes.  Other names keep their
    tags; `type_fn` maps quantifier types.

    Only the spine above a replaced name or a changed type is copied: a
    subtree in which nothing changes, and an argument put in for a name,
    is the same object in the result.  Sharing is safe because no tree is
    changed in place once it is resolved: `resolve` tags a species' own
    trees and its inherit arguments before `normalize` copies either, and
    every later pass builds new nodes."""
    method_map = method_map or {}

    def go(e: Expr) -> Expr:
        match e:
            case Var(name, ref) if ref == ENTITY and name in args:
                return args[name]
            case Var(name, ref) if ref == METHOD and name in method_map:
                return method_map[name]
            case Qual(coll, name, ref) if ref == PARAM and coll in args:
                actual = args[coll]
                return Qual(actual.name, name, _ref(actual), pos=e.pos)
            case Quant(kind, vars_, ty, body):
                ty2, body2 = type_fn(ty), go(body)
                if ty2 is ty and body2 is body:
                    return e
                return Quant(kind, list(vars_), ty2, body2, pos=e.pos)
            case Match(scrutinee, arms):
                scrutinee2 = go(scrutinee)
                bodies = [go(b) for _, b in arms]
                if scrutinee2 is scrutinee and _unchanged(bodies, [b for _, b in arms]):
                    return e
                arms2 = [(pat, b) for (pat, _), b in zip(arms, bodies)]
                return Match(scrutinee2, arms2, pos=e.pos)
            case _:
                changes = {}
                for attr, value in vars(e).items():
                    if isinstance(value, Expr):
                        new = go(value)
                        if new is not value:
                            changes[attr] = new
                    elif isinstance(value, list) and value and isinstance(value[0], Expr):
                        new = [go(v) for v in value]
                        if not _unchanged(new, value):
                            changes[attr] = new
                return e.replace(**changes) if changes else e

    return go(e)


def subst_proof(proof: Proof, args: Args, type_fn) -> Proof:
    """`subst_expr` over a proof: facts, hypotheses, goals and assumed
    types, sharing every step and leaf in which nothing changes."""

    def fact(f: Fact) -> Fact:
        # `by property P!m` renames `P` only where it is a parameter.
        if not any(ref == PARAM and n.partition("!")[0] in args
                   for n, ref in zip(f.names, f.refs)):
            return f
        names, refs = [], []
        for n, ref in zip(f.names, f.refs):
            coll, _, m = n.partition("!")
            if ref == PARAM and coll in args:
                actual = args[coll]
                n, ref = f"{actual.name}!{m}", _ref(actual)
            names.append(n)
            refs.append(ref)
        return Fact(f.kind, names, list(f.labels), f.pos, refs)

    def expr(e: Expr | None) -> Expr | None:
        return None if e is None else subst_expr(e, args, type_fn)

    def step(s: ProofStep) -> ProofStep:
        assumes = [(ns, type_fn(t)) for ns, t in s.assumes]
        hyps = [(h, expr(st)) for h, st in s.hyps]
        goal, sub = expr(s.goal), None if s.sub is None else go(s.sub)
        if (
            goal is s.goal
            and sub is s.sub
            and _unchanged([t for _, t in assumes], [t for _, t in s.assumes])
            and _unchanged([st for _, st in hyps], [st for _, st in s.hyps])
        ):
            return s
        return ProofStep(
            label=s.label,
            assumes=[(list(ns), t) for ns, t in assumes],
            hyps=hyps,
            goal=goal,
            is_qed=s.is_qed,
            sub=sub,
            pos=s.pos,
        )

    def go(p: Proof) -> Proof:
        if isinstance(p, ProofLeaf):
            facts = [fact(f) for f in p.facts]
            return p if _unchanged(facts, p.facts) else ProofLeaf(facts, p.admitted, p.pos)
        steps = [step(s) for s in p.steps]
        return p if _unchanged(steps, p.steps) else ProofSteps(steps, p.pos)

    return go(proof)


def subst_method(mi: MethodInfo, args: Args) -> MethodInfo:
    """Copy `mi` into an inheriting species, analysis results included.

    `args` holds only the formals that are not passed as themselves; when
    it is empty the copy shares the parent's trees, and otherwise every
    subtree that mentions no renamed formal (`subst_expr`).
    """
    out = mi.replace(carried=True)  # `_merge` rebinds what it grows
    if not args:
        return out
    type_fn = lambda t: rename_type(t, args)
    out.extra_sigs = [type_fn(t) for t in mi.extra_sigs]
    if mi.ty is not None:
        out.ty = type_fn(mi.ty)
    out.params = [(n, None if t is None else type_fn(t)) for n, t in mi.params]
    if mi.ret is not None:
        out.ret = type_fn(mi.ret)
    if mi.body is not None:
        out.body = subst_expr(mi.body, args, type_fn)
    if mi.statement is not None:
        out.statement = subst_expr(mi.statement, args, type_fn)
    if mi.proof is not None:
        out.proof = subst_proof(mi.proof, args, type_fn)
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
    return list(dict.fromkeys([s for lin in parents for s in lin] + [self_name]))


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
        and same(inc.scheme, cur.scheme)
        and same(inc.ty, cur.ty)
        and same(inc.extra_sigs, cur.extra_sigs)
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
        elif inc.decl_site != cur.decl_site and not same(inc.ty, cur.ty):
            cur.extra_sigs = [*cur.extra_sigs, inc.ty]
            cur.carried = False
    if inc.statement is not None:
        if cur.statement is None:
            cur.statement = inc.statement
        elif inc.decl_site != cur.decl_site and not same(inc.statement, cur.statement):
            raise CompileError(
                TYPE_MISMATCH,
                f"{inc.name} is restated with a different statement "
                f"in {inc.decl_site}",
                inc.pos,
            )
    if not inc.superseded <= cur.superseded:
        cur.superseded = cur.superseded | inc.superseded
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
    cur.superseded = cur.superseded | {cur.origin}
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


def _passed_as_itself(formal: str, actual: Type | Expr) -> bool:
    if isinstance(actual, Var):
        return actual.ref == ENTITY and actual.name == formal
    return actual == TParam(formal)


def _offers_formal_types(
    parent: NFSpecies,
    nf: NFSpecies,
    args: Args,
    species_env: dict[str, NFSpecies],
    collections: dict[str, "CollectionModel"],
) -> bool:
    """Whether each is-argument offers the methods of its formal's interface
    at the formal's types, renamed: the parent's methods were typed against
    those.  Another interface or other interface arguments can differ."""
    for formal in parent.is_params:
        actual = args[formal.name]
        if isinstance(actual, TParam):
            own = next(p for p in nf.is_params if p.name == actual.name)
            have = param_schemes(nf, own, species_env)
        else:
            have = collections[actual.name].iface_schemes
        for m, s in param_schemes(parent, formal, species_env).items():
            if not same(have.get(m), Scheme(s.count, rename_type(s.body, args))):
                return False
    return True


def normalize(
    nf: NFSpecies,
    decl: SpeciesDecl,
    inherit_args: list[Args],
    species_env: dict[str, NFSpecies],
    collections: dict[str, "CollectionModel"],
) -> None:
    """Flatten `decl` into `nf`, which holds its parameters and their
    interfaces' actuals.  `inherit_args` holds the checked actuals of each
    inherit."""
    parent_lineages: list[list[str]] = []
    carries = True
    own_carriers = {p.name: p.carrier for p in decl.params if p.kind == "in"}
    for se, args in zip(decl.inherits, inherit_args):
        parent = species_env[se.name]
        renamed = {f: a for f, a in args.items() if not _passed_as_itself(f, a)}
        type_fn = lambda t: rename_type(t, renamed)
        if parent.rep is not None:
            rep = type_fn(parent.rep)
            if nf.rep is None:
                nf.rep = rep
                nf.rep_origin = parent.rep_origin
            elif nf.rep_origin != parent.rep_origin or not same(nf.rep, rep):
                raise CompileError(
                    REP_REDEFINED,
                    f"{decl.name} inherits two representations "
                    f"(from {nf.rep_origin} and {parent.rep_origin})",
                    se.pos,
                )
        if not nf.methods:  # the first inherit: nothing to merge with yet
            nf.methods = {n: subst_method(mi, renamed) for n, mi in parent.methods.items()}
        else:
            for mi in parent.methods.values():
                _merge(nf, subst_method(mi, renamed))
        # Any entity argument but an own entity parameter over the renamed
        # carrier is an expression to type and scan the methods with.
        carries = carries and all(
            isinstance(arg := args[formal.name], Var)
            and arg.name in own_carriers
            and args[formal.carrier] == TParam(own_carriers[arg.name])
            for formal in parent.entity_params
        )
        carries = carries and _offers_formal_types(
            parent, nf, args, species_env, collections
        )
        parent_lineages.append(parent.lineage)
        # The first inherit that reaches an ancestor fixes its arguments, as
        # `_merge` keeps the first copy of each of its methods.  The parent
        # lists itself with its formals as actuals, which this renaming turns
        # into `args`.  An inherit that passes every formal as itself leaves
        # every entry as it is, and the heir shares the parent's.
        for anc, amap in parent.ancestor_args.items():
            if anc not in nf.ancestor_args:
                nf.ancestor_args[anc] = amap if not renamed else {
                    f: subst_expr(a, renamed, type_fn)
                    if isinstance(a, Expr)
                    else type_fn(a)
                    for f, a in amap.items()
                }
    nf.lineage = merge_lineages(parent_lineages, decl.name)
    nf.ancestor_args[decl.name] = {
        p.name: TParam(p.name) if p.kind == "is" else Var(p.name, ENTITY, pos=p.pos)
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
    if not carries:
        for mi in nf.methods.values():
            mi.carried = False


def invalidate_proofs(
    nf: NFSpecies,
    parent: NFSpecies | None = None,
    scanned: dict[str, MethodDeps] | None = None,
) -> list[RevertedProof]:
    """Erase proofs whose unfolded definitions were later redefined.

    Given the `parent` `nf` extends and its dependency entries `scanned`,
    whose `defs` name what each of its proofs unfolds, a proof the parent
    judged keeps the parent's verdict while it and every definition it
    unfolds keep their origins, which rank alike in a lineage that extends
    the parent's."""
    rank = {s: i for i, s in enumerate(nf.lineage)}
    old: dict[str, MethodInfo] = {}
    if parent is not None:
        assert scanned is not None
        old = parent.methods
        moved = {n for n, mi in nf.methods.items() if n not in old or old[n].origin != mi.origin}
        judged = {rp.method: rp for rp in parent.reverted}
    reverted: list[RevertedProof] = []
    for mi in nf.methods.values():
        if mi.kind != "theorem" or mi.proof is None:
            continue
        was = old.get(mi.name)
        if (
            was is not None
            and was.proof is mi.proof
            and was.proof_origin == mi.proof_origin
            and moved.isdisjoint(scanned[mi.name].defs)
        ):
            if mi.name in judged:
                reverted.append(judged[mi.name])
            continue
        assert mi.proof_origin is not None
        proof_rank = rank.get(mi.proof_origin, len(nf.lineage))
        for def_name in unfolded(mi.proof):
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


class CollectionModel(Record):
    __match_args__ = ("name", "nf", "args", "iface_schemes", "carrier", "pos")

    def __init__(
        self,
        name: str,
        nf: NFSpecies,  # underlying complete species (shared, not copied)
        args: Args | None = None,
        iface_schemes: dict[str, Scheme] | None = None,
        carrier: Type | None = None,  # representation with parameters substituted
        pos: Pos = NOPOS,
    ):
        self.name = name
        self.nf = nf
        # The base's formals in order: an is-formal to `TCollCarrier(c)`, an
        # entity formal to its argument.
        self.args = {} if args is None else args
        self.iface_schemes = {} if iface_schemes is None else iface_schemes
        self.carrier = carrier
        self.pos = pos


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
            model.args[formal.name] = TCollCarrier(arg.name)
        else:
            expr = arg.entity
            assert formal.carrier is not None
            type_entity_arg(expr, model.args[formal.carrier].name)
            model.args[formal.name] = expr
    assert base.rep_resolved is not None
    model.carrier = rename_type(base.rep_resolved, model.args)
    self_ty = TCollCarrier(decl.name)
    for name, mi in base.methods.items():
        if mi.scheme is not None:
            model.iface_schemes[name] = Scheme(
                mi.scheme.count, rename_type(mi.scheme.body, model.args, self_ty)
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
        elif mi.scheme is not None and not same(other.scheme, mi.scheme):
            problems.append(f"{name} has a different type")
        elif mi.statement is not None and not same(other.statement, mi.statement):
            problems.append(f"{name} has a different statement")
    if problems:
        raise CompileError(
            INTERFACE,
            f"{actual.name} does not implement {iface}",
            pos,
            witness=problems,
        )
