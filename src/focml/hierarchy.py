"""Species flattening: inheritance merge, late binding, and collection models.

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
up again.  That check (`driver._check_species_args`) is the same for a
parameter's interface, an inherit and a collection, and it requires each
is-argument to offer its formal's interface at the formal's actuals and
schemes: no argument's interface makes an heir type a method again.  A
collection model is only built here, from its checked base and actuals.  A
method record is a value: once a species holds it, nothing writes to it.
An heir that renames no formal holds its parent's records themselves,
typing and scan results included, and a species that changes a method
stores a new record.  Proof invalidation and collection completeness both
operate on this normal form.
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
    """One flattened method with its full late-binding history.  A value:
    a species that changes a method stores a new record (`replace`), and
    heirs share the records they do not change."""

    def __init__(
        self,
        name: str,
        kind: str,  # 'signature' | 'let' | 'property' | 'theorem'
        decl_site: str,
        first_def: str | None,
        origin: str,
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
        valid_proof: bool = True,
    ):
        self.name = name
        self.kind = kind
        self.decl_site = decl_site
        self.first_def = first_def
        self.origin = origin
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
        # The typing results of the species that analyses the method, which
        # its descendants share, renamed where a formal is.
        self.scheme = scheme
        self.param_types = param_types
        self.ret_type = ret_type
        self.carrier_decl = carrier_decl
        self.carrier_def = carrier_def
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
    def __init__(self, method: str, proof_origin: str, def_name: str, def_origin: str, pos: Pos):
        self.method = method
        self.proof_origin = proof_origin
        self.def_name = def_name
        self.def_origin = def_origin
        self.pos = pos


class NFSpecies(Record):
    def __init__(
        self,
        name: str,
        params: list[SpeciesParam] | None = None,
        lineage: list[str] | None = None,
        rep: Type | None = None,  # resolved where written, renamed
        rep_origin: str | None = None,
        methods: dict[str, MethodInfo] | None = None,
        order: list[str] | None = None,  # filled by deps, as are the two below
        deps: dict[str, MethodDeps] | None = None,
        rec_groups: list[list[str]] | None = None,
        reverted: list[RevertedProof] | None = None,
        iface_args: dict[str, Args] | None = None,
        ancestor_args: dict[str, Args] | None = None,
        analysed: set[str] | None = None,
        pos: Pos = NOPOS,
    ):
        self.name = name
        self.params = [] if params is None else params
        self.lineage = [] if lineage is None else lineage
        self.rep = rep
        self.rep_origin = rep_origin
        self.methods = {} if methods is None else methods
        self.order = [] if order is None else order
        self.deps = {} if deps is None else deps
        self.rec_groups = [] if rec_groups is None else rec_groups
        self.reverted = [] if reverted is None else reverted
        # is-parameter -> the actuals of its interface's formals.
        self.iface_args = {} if iface_args is None else iface_args
        # ancestor -> the actuals of its formals in this species' own terms.
        # Includes the species itself with identity bindings.
        self.ancestor_args = {} if ancestor_args is None else ancestor_args
        # The methods this species types and scans itself: each gets a new
        # record from typing.  Any other method holds an ancestor's analysis,
        # which still holds here.  `normalize` adds a method declared or
        # proved (`proof of`) here, and every method when an entity argument
        # is an expression or when two parents bring one method at
        # different schemes; typing adds a method that declares a dependency
        # on one typed again to another scheme.  An is-argument offers its
        # formal's interface as the parent read it, and names keep their
        # tags in heirs, so neither adds one.
        self.analysed = set() if analysed is None else analysed
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


def param_method_view(
    nf: NFSpecies, p: SpeciesParam, m: str, species_env: dict[str, NFSpecies]
) -> tuple[Type | None, Expr | None]:
    """Method `m` of parameter `p` as seen from inside `nf`: its type, or
    its statement if it is logical, renamed by `p`'s actuals, with `Self`
    put to `TParam(p.name)` and the interface's methods named `p!w`."""
    iface_nf, args = interface_view(nf, p, species_env)
    tyfn = lambda t: rename_type(t, args, TParam(p.name))
    imi = iface_nf.methods[m]
    if imi.is_logical:
        assert imi.statement is not None
        refs = {w: Qual(p.name, w, PARAM) for w in iface_nf.methods}
        return None, subst_expr(imi.statement, args, tyfn, refs)
    assert imi.scheme is not None
    return tyfn(imi.scheme.body), None


def applied_schemes(
    species: NFSpecies, args: Args, self_ty: Type
) -> dict[str, Scheme]:
    """The scheme of each method of `species` applied to the actuals
    `args`, its `Self` put to `self_ty`: the types of `p!m` for a parameter
    `p` whose interface is `species`, or of `C!m` for a collection `C`."""
    return {
        m: Scheme(mi.scheme.count, rename_type(mi.scheme.body, args, self_ty))
        for m, mi in species.methods.items()
        if mi.scheme is not None
    }


# ---------------------------------------------------------------------------
# Substitution of species parameters by effective arguments


def rename_type(t: Type, args: Args, self_ty: Type | None = None) -> Type:
    """Replace each formal's carrier in `t` by its actual, and `Self` by
    `self_ty` if given.  `t` is resolved where it was written, so a name
    that denotes a collection there stays that collection's carrier."""
    if not args and self_ty is None:
        return t

    def step(n: Type) -> Type:
        match n:
            case TSelf() if self_ty is not None:
                return self_ty
            case TParam(name) if name in args:
                return args[name]
            case _:
                return n

    return type_map(t, step)


def rename_args(amap: Args, args: Args) -> Args:
    """The actuals `amap` with each formal replaced by its actual in
    `args`."""
    return {f: rename_actual(a, args) for f, a in amap.items()}


def rename_actual(a: "Type | Expr", args: Args) -> "Type | Expr":
    """A carrier, a method name or an entity's expression phrased in some
    species' formals, with each formal replaced by its actual in `args`:
    `P` becomes the carrier `args[P]`, `P!m` the method of the parameter or
    collection it denotes, and an entity formal its argument."""
    if not args:
        return a
    if isinstance(a, Expr):
        return subst_expr(a, args, lambda t: rename_type(t, args))
    return rename_type(a, args)


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

    out = go(e)
    del go  # a recursive closure is a reference cycle: only a collection frees it
    return out


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

    out = go(proof)
    del go  # as in `subst_expr`
    return out


def subst_method(mi: MethodInfo, args: Args) -> MethodInfo:
    """`mi` as an inheriting species holds it, analysis results included.

    `args` holds only the formals that are not passed as themselves; when
    it is empty the heir holds `mi` itself, and otherwise a copy that
    shares every subtree that mentions no renamed formal (`subst_expr`).
    """
    if not args:
        return mi
    type_fn = lambda t: rename_type(t, args)
    tree_fn = lambda e: subst_expr(e, args, type_fn)
    opt = lambda f, x: None if x is None else f(x)
    return mi.replace(
        ty=opt(type_fn, mi.ty),
        extra_sigs=[type_fn(t) for t in mi.extra_sigs],
        params=[(n, opt(type_fn, t)) for n, t in mi.params],
        ret=opt(type_fn, mi.ret),
        body=opt(tree_fn, mi.body),
        statement=opt(tree_fn, mi.statement),
        proof=opt(lambda p: subst_proof(p, args, type_fn), mi.proof),
        # The scheme also pins the method's type for any redefinition
        # further down.
        scheme=opt(lambda s: Scheme(s.count, type_fn(s.body)), mi.scheme),
        param_types=opt(lambda ts: [type_fn(t) for t in ts], mi.param_types),
        ret_type=opt(type_fn, mi.ret_type),
    )


# ---------------------------------------------------------------------------
# Normalization


def merge_lineages(parents: list[list[str]], self_name: str) -> list[str]:
    return list(dict.fromkeys([s for lin in parents for s in lin] + [self_name]))


def _definition(cur: MethodInfo, inc: MethodInfo) -> dict:
    """The fields `cur` takes from the definition of `inc`, which brings its
    analysis along."""
    changes = dict(
        params=inc.params, ret=inc.ret, body=inc.body, rec=inc.rec, proof=inc.proof,
        origin=inc.origin, kind=inc.kind, pos=inc.pos, param_types=inc.param_types,
        ret_type=inc.ret_type, carrier_decl=inc.carrier_decl,
        carrier_def=inc.carrier_def, valid_proof=inc.valid_proof,
    )
    if cur.first_def is None:
        changes["first_def"] = inc.first_def
    return changes


def _merge(nf: NFSpecies, inc: MethodInfo) -> None:
    """Merge `inc` into the method of its name, storing a new record when
    that changes anything."""
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
    changes: dict = {}
    if inc.ty is not None:
        if cur.ty is None:
            changes["ty"] = inc.ty
        elif inc.decl_site != cur.decl_site and not same(inc.ty, cur.ty):
            changes["extra_sigs"] = [*cur.extra_sigs, inc.ty]
    if inc.statement is not None:
        if cur.statement is None:
            changes["statement"] = inc.statement
        elif inc.decl_site != cur.decl_site and not same(inc.statement, cur.statement):
            raise CompileError(
                TYPE_MISMATCH,
                f"{inc.name} is restated with a different statement "
                f"in {inc.decl_site}",
                inc.pos,
            )
    superseded = cur.superseded
    if not inc.superseded <= superseded:
        changes["superseded"] = superseded = superseded | inc.superseded
    if inc.defined and (
        not cur.defined or (inc.origin != cur.origin and inc.origin not in superseded)
    ):
        if cur.defined and cur.origin not in inc.superseded:
            # Sibling parents both define the method: the later inherit wins.
            changes["superseded"] = superseded | {cur.origin}
        changes.update(_definition(cur, inc))
    if changes:
        nf.methods[inc.name] = cur.replace(**changes)


def _local_info(decl: SpeciesDecl, m: MethodDecl) -> MethodInfo:
    defined = m.kind in ("let", "theorem")
    return MethodInfo(
        name=m.name,
        kind=m.kind,
        decl_site=decl.name,
        first_def=decl.name if defined else None,
        origin=decl.name,
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


def normalize(
    nf: NFSpecies,
    decl: SpeciesDecl,
    inherit_args: list[Args],
    species_env: dict[str, NFSpecies],
) -> None:
    """Flatten `decl` into `nf`, which holds its parameters and their
    interfaces' actuals.  `inherit_args` holds the checked actuals of each
    inherit, whose is-arguments offer their formals' interfaces at the
    schemes the parent typed its methods against.  Every method is analysed
    again only where an entity argument is an expression or two parents
    bring one method at different schemes."""
    parent_lineages: list[list[str]] = []
    carries = True
    own_carriers = {p.name: p.carrier for p in decl.params if p.kind == "in"}
    for se, args in zip(decl.inherits, inherit_args):
        parent = species_env[se.name]
        renamed = {f: a for f, a in args.items() if not _passed_as_itself(f, a)}
        if parent.rep is not None:
            rep = rename_type(parent.rep, renamed)
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
                inc, cur = subst_method(mi, renamed), nf.methods.get(mi.name)
                # Each parent typed its methods against its own scheme of
                # this one, which typing here can hold to only one of them.
                # Where the schemes agree, a declared type or a definition
                # the merge brings in was typed to that scheme, and holds.
                carries = carries and (cur is None or same(cur.scheme, inc.scheme))
                _merge(nf, inc)
        # Any entity argument but an own entity parameter over the renamed
        # carrier is an expression to type and scan the methods with.
        carries = carries and all(
            isinstance(arg := args[formal.name], Var)
            and arg.name in own_carriers
            and args[formal.carrier] == TParam(own_carriers[arg.name])
            for formal in parent.entity_params
        )
        parent_lineages.append(parent.lineage)
        # The first inherit that reaches an ancestor fixes its arguments, as
        # `_merge` keeps the first copy of each of its methods.  The parent
        # lists itself with its formals as actuals, which this renaming turns
        # into `args`.  An inherit that passes every formal as itself leaves
        # every entry as it is, and the heir shares the parent's.
        for anc, amap in parent.ancestor_args.items():
            if anc not in nf.ancestor_args:
                nf.ancestor_args[anc] = amap if not renamed else rename_args(amap, renamed)
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
            nf.methods[m.name] = cur.replace(
                proof=m.proof,
                origin=decl.name,
                kind="theorem",
                valid_proof=True,
                first_def=decl.name if cur.first_def is None else cur.first_def,
            )
        else:
            _merge(nf, _local_info(decl, m))
        nf.analysed.add(m.name)
    if not carries:
        nf.analysed.update(nf.methods)


def invalidate_proofs(nf: NFSpecies, parent: NFSpecies | None = None) -> list[RevertedProof]:
    """Erase proofs whose unfolded definitions were later redefined.

    Given the `parent` `nf` extends, whose dependency entries (`deps`) have
    `defs` naming what each of its proofs unfolds, a theorem whose
    record is the parent's keeps the parent's verdict while every
    definition it unfolds keeps its origin, which ranks alike in a lineage
    that extends the parent's.  A reverted theorem gets a new record."""
    rank = {s: i for i, s in enumerate(nf.lineage)}
    old: dict[str, MethodInfo] = {}
    if parent is not None:
        old = parent.methods
        moved = {n for n, mi in nf.methods.items() if n not in old or old[n].origin != mi.origin}
        judged = {rp.method: rp for rp in parent.reverted}
    reverted: list[RevertedProof] = []
    for name, mi in nf.methods.items():
        if mi.kind != "theorem" or mi.proof is None:
            continue
        if old.get(name) is mi and moved.isdisjoint(parent.deps[name].defs):
            if name in judged:
                reverted.append(judged[name])
            continue
        proof_rank = rank.get(mi.origin, len(nf.lineage))
        for def_name in unfolded(mi.proof):
            target = nf.methods.get(def_name)
            if target is None:
                continue  # reported by the dependency scan
            if rank.get(target.origin, 0) > proof_rank:
                nf.methods[name] = mi.replace(valid_proof=False)
                reverted.append(
                    RevertedProof(
                        name,
                        mi.origin,
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


def make_collection(decl: CollectionDecl, base: NFSpecies, args: Args) -> CollectionModel:
    """The model of `decl`: the complete species `base` applied to the
    checked actuals `args` (`driver._check_species_args`), with its carrier
    and the schemes its methods have from outside, where `Self` is the
    collection's own carrier."""
    assert base.rep is not None
    return CollectionModel(
        name=decl.name,
        nf=base,
        args=args,
        iface_schemes=applied_schemes(base, args, TCollCarrier(decl.name)),
        carrier=rename_type(base.rep, args),
        pos=decl.pos,
    )
