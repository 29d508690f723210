"""Dependency calculus over flattened species.

Two passes.  The syntactic pass scans bodies, statements and proofs for
method references, validates proof facts, and fixes the global method order:
one smallest-key-first topological sort of the decl-dependency graph, keyed
by where each method first received a definition and then by name, which an
heir places from its parent's order, and which looks for mutual `rec` groups
only when a cycle stalls it.  The semantic pass runs
after typing and derives the visible universe, the minimal typing
environment, and per-parameter dependencies for every method.  Both write
to the species record: its entries (`NFSpecies.deps`), its order and its
mutual groups.  Methods an heir holds unchanged from its parent keep the
entries scanned and finished there.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Collection

from .ast import (
    Expr,
    Quant,
    Qual,
    Record,
    TParam,
    Type,
    Var,
    expr_nodes,
    type_walk,
)
from .basics import BUILTIN_PROPERTIES
from .errors import CYCLE, PROOF, UNKNOWN, CompileError
from .hierarchy import MethodInfo, NFSpecies
from .proofs import iter_leaves, iter_steps, unfolded
from .resolve import ENTITY, METHOD, PARAM


# ---------------------------------------------------------------------------
# Reference scans, by the tags `resolve` gave each name


def tagged(e: Expr, ref: str) -> set[str]:
    """Names of the `Var`s in `e` tagged `ref`."""
    return {x.name for x in expr_nodes(e) if type(x) is Var and x.ref == ref}


def param_refs(e: Expr) -> list[tuple[str, str]]:
    """Every (parameter, method) reference to a collection parameter."""
    return [(x.coll, x.name) for x in expr_nodes(e) if type(x) is Qual and x.ref == PARAM]


def _own_exprs(mi: MethodInfo):
    """Everything x states or computes itself."""
    if mi.kind == "let" and mi.body is not None:
        yield mi.body
    if mi.statement is not None:
        yield mi.statement
    if mi.proof is not None:
        for step in iter_steps(mi.proof):
            yield from (stmt for _, stmt in step.hyps)
            if step.goal is not None:
                yield step.goal


# ---------------------------------------------------------------------------
# Per-method dependency data


class MethodDeps(Record):
    def __init__(
        self,
        decl: frozenset[str] = frozenset(),
        defs: frozenset[str] = frozenset(),
        closure: set[str] | None = None,
        universe: set[str] | None = None,
        carrier_keep: str | None = None,  # 'TypeOnly' | 'TypeAndBody' | None
        min_env: list[tuple[str, str]] | None = None,
        param_deps: dict[str, list[str]] | None = None,
        param_carrier: dict[str, bool] | None = None,
        entity_used: list[str] | None = None,
    ):
        self.decl = decl
        self.defs = defs
        self.closure = set() if closure is None else closure
        self.universe = set() if universe is None else universe
        self.carrier_keep = carrier_keep
        self.min_env = [] if min_env is None else min_env
        # is-parameter name -> method names in the parameter's own order
        self.param_deps = {} if param_deps is None else param_deps
        self.param_carrier = {} if param_carrier is None else param_carrier
        self.entity_used = [] if entity_used is None else entity_used


# ---------------------------------------------------------------------------
# Pass 1: scans, fact validation, global order


def decl_deps(mi: MethodInfo, nf: NFSpecies) -> set[str]:
    names: set[str] = set()
    for e in _own_exprs(mi):
        names |= tagged(e, METHOD)
    if mi.proof is not None:
        for leaf in iter_leaves(mi.proof):
            for f in leaf.facts:
                if f.kind == "definition":
                    names |= set(_validated_defs(f.names, nf, f.pos))
                elif f.kind == "property":
                    for n in f.names:
                        if "!" in n:
                            continue  # parameter dependency, handled later
                        names.add(_validated_property(n, nf, f.pos))
                    names.discard("")
    names.discard(mi.name)
    return names


def _validated_defs(targets: list[str], nf: NFSpecies, pos) -> list[str]:
    out = []
    for n in targets:
        mi = nf.methods.get(n)
        if mi is None:
            raise CompileError(
                UNKNOWN, f"unknown method {n} in a definition fact", pos
            )
        if mi.is_logical:
            raise CompileError(
                PROOF, f"cannot unfold {n}: it is not a function", pos
            )
        out.append(n)
    return out


def _validated_property(name: str, nf: NFSpecies, pos) -> str:
    mi = nf.methods.get(name)
    if mi is not None:
        if not mi.is_logical:
            raise CompileError(
                PROOF, f"{name} is a function, not a property", pos
            )
        return name
    if name in BUILTIN_PROPERTIES:
        return ""  # builtin facts are not species methods
    raise CompileError(UNKNOWN, f"unknown property {name}", pos)


def def_deps(mi: MethodInfo, nf: NFSpecies) -> set[str]:
    if mi.kind != "theorem" or mi.proof is None:
        return set()
    return set(_validated_defs(sorted(unfolded(mi.proof)), nf, mi.pos))


def def_closure(entries: dict[str, MethodDeps], x: str) -> set[str]:
    """Every method `x` unfolds, directly or through what it unfolds."""
    seen: set[str] = set()
    frontier = deque(entries[x].defs)
    while frontier:
        y = frontier.popleft()
        if y in seen:
            continue
        seen.add(y)
        frontier.extend(entries[y].defs)
    return seen


def type_level_refs(mi: MethodInfo) -> set[str]:
    """Method names visible in x's type: only statements carry any."""
    if mi.statement is None:
        return set()
    return tagged(mi.statement, METHOD)


def order_methods(
    nf: NFSpecies,
    decl: dict[str, frozenset[str]],
    parent: NFSpecies | None = None,
    dirty: Collection[str] = (),
) -> tuple[list[str], list[list[str]]]:
    """The global method order and the mutual `rec` groups.  The order is
    the smallest-key-first topological sort of the `decl` graph.  A key is
    (rank of the species where the method first got a definition, name);
    a declared-only method ranks by its declaration site.

    Given the `parent` the species extends, when the parent has no mutual
    group, the order is placed from the parent's.  `dirty` lists the
    methods that are new here or have other edges or another key than in
    the parent; a parent method is affected when it is dirty or depends on
    an affected one.  The lineage extends the parent's, so a method ranks
    alike in both, and the others keep their edges and keys.  Without a
    parent every method is affected.

    A cycle stalls the sort.  Only then are the strongly connected
    components found: a group of `rec` methods collapses to one node,
    keyed by its smallest member, and the sort runs again; any other cycle
    is an error carrying a shortest witness.
    """
    methods = nf.methods
    rank = {s: i for i, s in enumerate(nf.lineage)}

    def key(n: str) -> tuple[int, str]:
        return rank.get(methods[n].order_site(), len(rank)), n

    prev: list[str] = []
    affected: Collection[str] = methods
    if parent is not None and not parent.rec_groups:
        prev = parent.order
        affected = set(dirty)
        start = min((prev.index(n) for n in dirty if n in parent.methods), default=len(prev))
        for n in prev[start:]:
            if not affected.isdisjoint(decl[n]):
                affected.add(n)
    order = _sort(prev, affected, decl, key, len(parent.lineage) if prev else 0)
    if len(order) == len(methods):
        return order, []
    names = list(methods)
    users: dict[str, set[str]] = {n: set() for n in names}
    for n in names:
        for d in decl[n]:
            users[d].add(n)
    groups = [sorted(scc) for scc in _tarjan(names, users)]
    for g in groups:
        if len(g) > 1 and not all(methods[n].rec for n in g):
            raise CompileError(
                CYCLE,
                f"methods of {nf.name} depend on each other",
                methods[g[0]].pos,
                witness=_shortest_cycle({n: decl[n] for n in g}),
            )
    members = {ms[0]: ms for ms in (sorted(g, key=key) for g in groups)}
    head = {n: h for h, ms in members.items() for n in ms}
    group_decl = {h: {head[d] for n in ms for d in decl[n]} - {h} for h, ms in members.items()}
    order = [n for h in _sort([], members, group_decl, key, 0) for n in members[h]]
    return order, [g for g in groups if len(g) > 1]


def _sort(
    prev: list[str],
    affected: Collection[str],
    decl: dict[str, Collection[str]],
    key: Callable[[str], tuple[int, str]],
    late: int,
) -> list[str]:
    """The smallest-key-first topological order of the nodes in `prev` and
    `affected`, a node depending on its `decl` names; nodes on a cycle, and
    those that depend on one, are left out.

    `prev` orders the nodes it holds that are not affected, and they depend
    only on each other, so the sort picks them in that relative order
    whatever else it picks in between.  The loop walks `prev` and merges
    the affected nodes into it by key, as they become free.  A free node
    ranked from `late` on comes after every node of `prev`."""
    waiting: dict[str, int] = {}  # affected node -> its deps not yet placed
    users: dict[str, list[str]] = {}
    for a in affected:
        deps = decl[a]
        waiting[a] = len(deps)
        for d in deps:
            users.setdefault(d, []).append(a)
    free: list[tuple[tuple[int, str], str]] = []
    later: list[tuple[tuple[int, str], str]] = []
    order: list[str] = []

    def release(a: str) -> None:
        k = key(a)
        heapq.heappush(free if k[0] < late else later, (k, a))

    def place(n: str) -> None:
        order.append(n)
        for a in users.get(n, ()):
            waiting[a] -= 1
            if not waiting[a]:
                release(a)

    for a, left in waiting.items():
        if not left:
            release(a)
    for n in prev:
        if n in affected:
            continue
        if free:
            k = key(n)
            while free and free[0][0] < k:
                place(heapq.heappop(free)[1])
        if n in users:
            place(n)
        else:
            order.append(n)
    # Every node of `prev` is placed: any free one may come next.
    free += later
    heapq.heapify(free)
    later = free  # every release from here on goes to `free`
    while free:
        place(heapq.heappop(free)[1])
    return order


def _tarjan(names: list[str], edges: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components of the user graph, iteratively."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    counter = iter(range(1 << 30))

    for root in names:
        if root in index:
            continue
        work = [(root, iter(sorted(edges[root])))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(edges[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                out.append(scc)
    return out


def _shortest_cycle(deps: dict[str, frozenset[str]]) -> list[str]:
    """Shortest dependency cycle in `x depends on deps[x]` form, rotated so
    the smallest name comes first.  `deps` holds a strongly connected
    component of two or more methods, so every start lies on a cycle."""
    best: list[str] | None = None
    for start in sorted(deps):
        # BFS over dependency edges back to start.
        prev: dict[str, str] = {}
        q = deque([start])
        seen = {start}
        found = None
        while q and found is None:
            cur = q.popleft()
            for nxt in sorted(deps[cur]):
                if nxt == start:
                    found = cur
                    break
                if nxt in deps and nxt not in seen:
                    seen.add(nxt)
                    prev[nxt] = cur
                    q.append(nxt)
        path = [found]
        while path[-1] != start:
            path.append(prev[path[-1]])
        path.reverse()
        if best is None or len(path) < len(best):
            best = path
    smallest = min(range(len(best)), key=lambda i: best[i])
    return best[smallest:] + best[:smallest]


def _scans_alike(mi: MethodInfo, other: MethodInfo | None) -> bool:
    """A scan reads a record's kind and trees only (a reverted proof's
    record shares its trees)."""
    return other is not None and other.kind == mi.kind and other.body is mi.body \
        and other.statement is mi.statement and other.proof is mi.proof


def scan_species(
    nf: NFSpecies,
    parent: NFSpecies | None = None,
    inherited: tuple[NFSpecies, ...] = (),
) -> None:
    """Syntactic pass: decl/def sets, fact validation, global order.  Sets
    `nf.deps` to the scanned entries, and `nf.order` and `nf.rec_groups`.

    Given the `parent` the species extends (see `driver._extended_parent`),
    a method that holds the parent's record and that the species does not
    analyse itself (`nf.analysed`) keeps the parent's whole entry
    (`finish_deps` decides whether its finish holds too), and
    `order_methods` places the order from the parent's, given the methods
    that are new or ordered by other edges or keys.  Another such method that
    scans alike with a species it `inherited` takes that species' sets.
    Every other method is scanned here.
    """
    parents: dict[str, MethodInfo] = {}
    entries: dict[str, MethodDeps] = {}
    if parent is not None:
        parents = parent.methods
        entries = dict(parent.deps)
    dirty: list[str] = []  # new here, or ordered by other edges or keys
    for name, mi in nf.methods.items():
        old = parents.get(name)
        if mi is old and name not in nf.analysed:
            continue
        alike = () if name in nf.analysed else inherited
        alike = [p for p in alike if _scans_alike(mi, p.methods.get(name))]
        if alike:
            md = alike[0].deps[name]
            md = MethodDeps(decl=md.decl, defs=md.defs)
        else:
            md = MethodDeps(decl=frozenset(decl_deps(mi, nf)), defs=frozenset(def_deps(mi, nf)))
        if (
            old is None
            or old.order_site() != mi.order_site()
            or md.decl != entries[name].decl
        ):
            dirty.append(name)
        entries[name] = md
    nf.deps = entries
    decl = {name: md.decl for name, md in entries.items()}
    nf.order, nf.rec_groups = order_methods(nf, decl, parent, dirty)
    mutual = {m for g in nf.rec_groups for m in g}
    for name, md in entries.items() if mutual else ():
        hit = sorted(md.defs & mutual)
        if hit and nf.methods[name].valid_proof:
            # The member's generator takes its partners as arguments, so
            # binding it inside another generator has no valid order.
            raise CompileError(
                PROOF,
                f"cannot unfold {hit[0]}: it is mutually recursive",
                nf.methods[name].pos,
                witness=hit,
            )


# ---------------------------------------------------------------------------
# Pass 2: universes, minimal environments, parameter dependencies


def finish_deps(
    nf: NFSpecies,
    species_env: dict[str, NFSpecies],
    parent: NFSpecies | None = None,
) -> None:
    """Semantic pass over the entries `scan_species` left in `nf.deps`.
    Given the `parent` the species extends (see
    `driver._extended_parent`), an entry the parent finished holds here
    when neither its method nor a name in its universe changed since the
    parent: a changed method holds another record than the parent's, as
    every method the species analyses gets a new record from typing.  One
    pass finds the changed names, and one set test per parent entry keeps
    the rest, with the parent's `min_env` while this order keeps the
    parent's relative order.  The rest are finished here."""
    entries = nf.deps
    kept: dict[str, MethodDeps] = {}
    index: dict[str, int] = {}
    if parent is not None:
        old = parent.methods
        changed = {y for y, mi in nf.methods.items() if mi is not old.get(y)}
        kept = {
            x: pe
            for x, pe in parent.deps.items()
            if x not in changed and changed.isdisjoint(pe.universe)
        }
        if kept and [n for n in nf.order if n in old] != parent.order:
            index = {m: i for i, m in enumerate(nf.order)}
            kept = {x: pe.replace(min_env=_min_env(pe, index)) for x, pe in kept.items()}
        entries.update(kept)
    if len(kept) == len(entries):
        return
    index = index or {m: i for i, m in enumerate(nf.order)}
    type_refs: dict[str, set[str]] = {}
    for name, scanned in entries.items():
        if name in kept:
            continue
        mi = nf.methods[name]
        entries[name] = md = MethodDeps(decl=scanned.decl, defs=scanned.defs)
        md.closure = def_closure(entries, name)
        u = set(md.decl) | md.closure
        while True:
            grown = set(u)
            for z in md.closure:
                grown |= entries[z].decl
            for y in u:
                if y not in type_refs:
                    type_refs[y] = type_level_refs(nf.methods[y])
                grown |= type_refs[y]
            if grown == u:
                break
            u = grown
        u.discard(name)
        md.universe = u
        md.min_env = _min_env(md, index)
        carrier_def = mi.carrier_def or any(
            nf.methods[z].carrier_def for z in md.closure
        )
        carrier_decl = mi.carrier_decl or any(
            nf.methods[y].carrier_decl or nf.methods[y].carrier_def for y in u
        )
        if carrier_def:
            md.carrier_keep = "TypeAndBody"
        elif carrier_decl:
            md.carrier_keep = "TypeOnly"
        _param_deps(nf, md, mi, species_env)


def _min_env(md: MethodDeps, index: dict[str, int]) -> list[tuple[str, str]]:
    return [
        (y, "TypeAndBody" if y in md.closure else "TypeOnly")
        for y in sorted(md.universe, key=index.__getitem__)
    ]


def _param_deps(
    nf: NFSpecies,
    md: MethodDeps,
    mi: MethodInfo,
    species_env: dict[str, NFSpecies],
) -> None:
    if not nf.params:
        return
    is_params = {p.name: p for p in nf.is_params}
    entity_params = {p.name: p for p in nf.entity_params}

    # Qualified references from the body, statement and proof of x plus the
    # bodies of everything x unfolds, then from types across the universe;
    # entity parameters from the first two; quantifier types from x's own
    # trees and the statements of the universe, for the carriers below.
    # Each tree is walked once.
    quals: dict[str, set[str]] = {p: set() for p in is_params}
    used_entities: set[str] = set()
    quant_types: list[Type] = []
    for e in _own_exprs(mi):
        _uses(e, quals, used_entities, quant_types)
    for z in md.closure:
        for e in _own_exprs(nf.methods[z]):
            _uses(e, quals, used_entities, None)
    for y in md.universe:
        stmt = nf.methods[y].statement
        if stmt is not None:
            _uses(stmt, quals, None, quant_types)
    if mi.proof is not None:  # `by property P!m` facts count as uses
        for leaf in iter_leaves(mi.proof):
            for f in leaf.facts:
                for n, ref in zip(f.names, f.refs):
                    if ref == PARAM:
                        coll, _, m = n.partition("!")
                        quals[coll].add(m)

    for pname, deps in quals.items():
        iface = is_params[pname].interface
        assert iface is not None
        iface_nf = species_env[iface.name]
        for m in sorted(deps):
            if m not in iface_nf.methods:
                raise CompileError(
                    UNKNOWN, f"{pname} has no method {m}", mi.pos
                )
        closed = set(deps)
        for m in deps:  # [Close]: names used by the statements of members
            closed |= type_level_refs(iface_nf.methods[m])
        md.param_deps[pname] = [m for m in iface_nf.order if m in closed]

    # Entity parameters contribute themselves when referenced.
    md.entity_used = [
        p.name for p in nf.entity_params if p.name in used_entities
    ]

    # A parameter's carrier is lifted when any dependency on the parameter
    # survives, or when the carrier type itself occurs in the method's plan.
    plan_types = quant_types
    if mi.scheme is not None:
        plan_types.append(mi.scheme.body)
    if mi.proof is not None:
        for step in iter_steps(mi.proof):
            for _, ty in step.assumes:
                plan_types.append(ty)
    if md.carrier_keep == "TypeAndBody" and nf.rep is not None:
        plan_types.append(nf.rep)
    for y, keep in md.min_env:
        other = nf.methods[y]
        if other.scheme is not None:
            plan_types.append(other.scheme.body)
    for pname in is_params:
        used = bool(md.param_deps.get(pname)) or any(
            entity_params[v].carrier == pname for v in md.entity_used
        )
        if not used:
            used = any(
                _mentions_param(t, pname) for t in plan_types
            )
        md.param_carrier[pname] = used


def _uses(
    e: Expr,
    quals: dict[str, set[str]],
    entities: set[str] | None,
    quant_types: list[Type] | None,
) -> None:
    """Add the parameter methods `e` calls to `quals`, and, where a sink is
    given, the entity parameters it names and its quantifier types."""
    for x in expr_nodes(e):
        kind = type(x)
        if kind is Qual:
            if x.ref == PARAM:
                quals[x.coll].add(x.name)
        elif kind is Var:
            if entities is not None and x.ref == ENTITY:
                entities.add(x.name)
        elif kind is Quant:
            if quant_types is not None:
                quant_types.append(x.ty)


def _mentions_param(t: Type, pname: str) -> bool:
    return any(isinstance(n, TParam) and n.name == pname for n in type_walk(t))
