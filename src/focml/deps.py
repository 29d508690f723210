"""Dependency calculus over flattened species.

Two passes.  The syntactic pass scans bodies, statements and proofs for
method references, validates proof facts, and fixes the global method order
(a topological sort of the decl-dependency graph, tie-broken by where each
method first received a definition and then by name).  The semantic pass runs
after typing and derives the visible universe, the minimal typing
environment, and per-parameter dependencies for every method.  Methods an
heir inherits unchanged keep the sets scanned and finished in the species
that computed them.
"""

from __future__ import annotations

import heapq
from collections import deque

from .ast import (
    Expr,
    Quant,
    Qual,
    Record,
    TCap,
    TParam,
    Type,
    Var,
    expr_walk,
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
    return {x.name for x in expr_walk(e) if isinstance(x, Var) and x.ref == ref}


def param_refs(e: Expr) -> list[tuple[str, str]]:
    """Every (parameter, method) reference to a collection parameter."""
    quals = (x for x in expr_walk(e) if isinstance(x, Qual))
    return [(x.coll, x.name) for x in quals if x.ref == PARAM]


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
    __match_args__ = (
        "decl", "defs", "closure", "universe", "carrier_keep", "min_env", "param_deps",
        "param_carrier", "entity_used",
    )

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


class SpeciesDeps(Record):
    __match_args__ = ("order", "methods", "rec_groups")

    def __init__(
        self,
        order: list[str] | None = None,
        methods: dict[str, MethodDeps] | None = None,
        rec_groups: list[list[str]] | None = None,
    ):
        self.order = [] if order is None else order
        self.methods = {} if methods is None else methods
        self.rec_groups = [] if rec_groups is None else rec_groups


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


def order_methods(nf: NFSpecies, decl: dict[str, frozenset[str]]) -> tuple[list[str], list[list[str]]]:
    """Topological order with deterministic tie-breaking.

    Priority: (rank of the species where the method first got a definition,
    name); declared-only methods rank by their declaration site.  Mutually
    recursive groups marked `rec` collapse to one node; any other cycle is an
    error carrying a shortest witness.
    """
    rank = {s: i for i, s in enumerate(nf.lineage)}
    names = list(nf.methods)

    def key(n: str) -> tuple[int, str]:
        return rank.get(nf.methods[n].order_site(), len(rank)), n

    edges: dict[str, set[str]] = {n: set() for n in names}  # y -> users
    for n in names:
        for d in decl[n]:
            if d == n:
                if not nf.methods[n].rec:
                    raise CompileError(
                        CYCLE,
                        f"{n} depends on itself",
                        nf.methods[n].pos,
                        witness=[n],
                    )
                continue
            edges[d].add(n)

    groups = _collapse_rec_groups(nf, edges, names)
    group_of = {n: g for g in groups for n in g}
    g_key = {id(g): min(key(n) for n in g) for g in groups}
    g_edges: dict[int, set[int]] = {id(g): set() for g in groups}
    indeg: dict[int, int] = {id(g): 0 for g in groups}
    for y, users in edges.items():
        for x in users:
            gy, gx = group_of[y], group_of[x]
            if gy is not gx and id(gx) not in g_edges[id(gy)]:
                g_edges[id(gy)].add(id(gx))
                indeg[id(gx)] += 1
    by_id = {id(g): g for g in groups}
    heap = [(g_key[i], i) for i, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        _, i = heapq.heappop(heap)
        order.extend(sorted(by_id[i], key=key))
        for j in g_edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (g_key[j], j))
    if len(order) != len(names):
        cycle = _shortest_cycle(
            {n: decl[n] & set(names) for n in names if n not in order}
        )
        raise CompileError(
            CYCLE,
            f"methods of {nf.name} depend on each other",
            nf.pos,
            witness=cycle,
        )
    return order, [g for g in groups if len(g) > 1]


def _placed_order(
    nf: NFSpecies,
    entries: dict[str, MethodDeps],
    parent: NFSpecies,
    dirty: list[str],
) -> list[str] | None:
    """The order `order_methods` gives `nf` when its methods have no cycle,
    placed from the order of the `parent` it extends, which has no cycle
    either; None when a cycle leaves methods out, for `order_methods` to
    report.  The lineage extends the parent's, so a method ranks alike in
    both.

    `dirty` lists the methods that are new here or have other edges or
    another key than in the parent.  A parent method is affected when it
    is dirty or depends on an affected one.  The others keep their edges
    and keys, and they depend only on each other, so the smallest-key-first
    topological sort picks them in the parent's relative order whatever
    else it picks in between.  What is left is to merge the affected ones
    into that sequence by key, as they become free."""
    methods = nf.methods
    rank = {s: i for i, s in enumerate(nf.lineage)}

    def key(n: str) -> tuple[int, str]:
        return rank.get(methods[n].order_site(), len(rank)), n

    prev = parent.order
    affected = set(dirty)
    start = min((prev.index(n) for n in dirty if n in parent.methods), default=len(prev))
    for n in prev[start:]:
        if not affected.isdisjoint(entries[n].decl):
            affected.add(n)
    waiting: dict[str, int] = {}  # affected method -> its deps not yet placed
    users: dict[str, list[str]] = {}
    for a in affected:
        deps = entries[a].decl
        waiting[a] = len(deps)
        for d in deps:
            users.setdefault(d, []).append(a)
    # A free method ranked from `late` on comes after every unaffected
    # one, which all rank by a species of the parent's lineage.
    late = len(parent.lineage)
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
    # Every unaffected method is placed: any free one may come next.
    free += later
    heapq.heapify(free)
    late = len(rank) + 1
    while free:
        place(heapq.heappop(free)[1])
    return order if len(order) == len(methods) else None


def _collapse_rec_groups(
    nf: NFSpecies, edges: dict[str, set[str]], names: list[str]
) -> list[list[str]]:
    sccs = _tarjan(names, edges)
    groups: list[list[str]] = []
    for scc in sccs:
        if len(scc) > 1:
            if not all(nf.methods[n].rec for n in scc):
                cycle = _shortest_cycle(
                    {n: {d for d in edges if n in edges[d]} for n in scc}
                )
                raise CompileError(
                    CYCLE,
                    f"methods of {nf.name} depend on each other",
                    nf.methods[sorted(scc)[0]].pos,
                    witness=cycle,
                )
        groups.append(sorted(scc))
    return groups


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


def _shortest_cycle(deps: dict[str, set[str]]) -> list[str]:
    """Shortest dependency cycle in `x depends on deps[x]` form, rotated so
    the smallest name comes first."""
    best: list[str] | None = None
    for start in sorted(deps):
        # BFS over dependency edges back to start.
        prev: dict[str, str] = {}
        q = deque([start])
        seen = {start}
        found = None
        while q and found is None:
            cur = q.popleft()
            for nxt in sorted(deps.get(cur, ())):
                if nxt == start:
                    found = cur
                    break
                if nxt in deps and nxt not in seen:
                    seen.add(nxt)
                    prev[nxt] = cur
                    q.append(nxt)
        if found is None:
            continue
        path = [found]
        while path[-1] != start:
            path.append(prev[path[-1]])
        path.reverse()
        if best is None or len(path) < len(best):
            best = path
    if best is None:
        return sorted(deps)[:1]
    smallest = min(range(len(best)), key=lambda i: best[i])
    return best[smallest:] + best[:smallest]


def scan_species(
    nf: NFSpecies,
    deps_env: dict[str, SpeciesDeps],
    parent: NFSpecies | None = None,
) -> SpeciesDeps:
    """Syntactic pass: decl/def sets, fact validation, global order.

    Methods carried from an ancestor keep the sets scanned there.  Given
    the `parent` the species extends (see `driver._extended_parent`), a
    method the parent had, with the same scan and the same first
    definition, keeps the parent's whole entry (`finish_deps` decides
    whether its finish holds too), and the order is placed from the
    parent's (`_placed_order`).
    """
    sd = SpeciesDeps()
    parents: dict[str, MethodInfo] = {}
    if parent is not None:
        parents = parent.methods
        sd.methods = dict(deps_env[parent.name].methods)
    dirty: list[str] = []  # new here, or ordered by other edges or keys
    for name, mi in nf.methods.items():
        old = parents.get(name)
        if (
            mi.carried
            and old is not None
            and old.scanned_in == mi.scanned_in
            and old.first_def == mi.first_def
        ):
            continue
        if mi.carried:
            assert mi.scanned_in is not None
            scanned = deps_env[mi.scanned_in].methods[name]
            md = MethodDeps(decl=scanned.decl, defs=scanned.defs)
        else:
            md = MethodDeps(
                decl=frozenset(decl_deps(mi, nf)), defs=frozenset(def_deps(mi, nf))
            )
            mi.scanned_in = nf.name
        if (
            old is None
            or old.order_site() != mi.order_site()
            or md.decl != sd.methods[name].decl
        ):
            dirty.append(name)
        sd.methods[name] = md
    placed = None
    if parent is not None and not deps_env[parent.name].rec_groups:
        placed = _placed_order(nf, sd.methods, parent, dirty)
    if placed is not None:
        sd.order = placed
    else:
        decl = {name: md.decl for name, md in sd.methods.items()}
        sd.order, sd.rec_groups = order_methods(nf, decl)
    nf.order = sd.order
    mutual = {m for g in sd.rec_groups for m in g}
    for name, md in sd.methods.items() if mutual else ():
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
    return sd


# ---------------------------------------------------------------------------
# Pass 2: universes, minimal environments, parameter dependencies


def finish_deps(
    nf: NFSpecies,
    sd: SpeciesDeps,
    species_env: dict[str, NFSpecies],
    deps_env: dict[str, SpeciesDeps],
    parent: NFSpecies | None = None,
) -> None:
    """Semantic pass.  Given the `parent` the species extends (see
    `driver._extended_parent`), an entry the parent finished holds here
    when neither its method nor a name in its universe changed since the
    parent (`_same_analysis`): one pass finds the changed names, and one
    set test per parent entry keeps the rest, with the parent's `min_env`
    while this order keeps the parent's relative order.  The rest are
    finished here."""
    kept: dict[str, MethodDeps] = {}
    index: dict[str, int] = {}
    if parent is not None:
        old = parent.methods
        changed = {y for y, a in nf.methods.items() if not _same_analysis(a, old.get(y))}
        kept = {
            x: pe
            for x, pe in deps_env[parent.name].methods.items()
            if x not in changed and changed.isdisjoint(pe.universe)
        }
        if kept and [n for n in sd.order if n in old] != parent.order:
            index = {m: i for i, m in enumerate(sd.order)}
            kept = {x: pe.replace(min_env=_min_env(pe, index)) for x, pe in kept.items()}
        sd.methods.update(kept)
    if len(kept) == len(sd.methods):
        return
    index = index or {m: i for i, m in enumerate(sd.order)}
    type_refs: dict[str, set[str]] = {}
    for name, scanned in sd.methods.items():
        if name in kept:
            continue
        mi = nf.methods[name]
        sd.methods[name] = md = MethodDeps(decl=scanned.decl, defs=scanned.defs)
        md.closure = def_closure(sd.methods, name)
        u = set(md.decl) | md.closure
        while True:
            grown = set(u)
            for z in md.closure:
                grown |= sd.methods[z].decl
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
        _param_deps(nf, md, mi, species_env, deps_env)


def _min_env(md: MethodDeps, index: dict[str, int]) -> list[tuple[str, str]]:
    return [
        (y, "TypeAndBody" if y in md.closure else "TypeOnly")
        for y in sorted(md.universe, key=index.__getitem__)
    ]


def _same_analysis(a: MethodInfo, b: MethodInfo | None) -> bool:
    """Whether `a` holds the analysis of `b`, its parent's copy: carried,
    from the same scan, with the same scheme (lets, signatures) or
    statement (properties, theorems).  A method typed again is not
    carried, and a definition from another parent comes from another scan.
    The rest of what the finish reads (bodies, proofs, carrier flags) comes
    with the scan or the typing."""
    return (
        b is not None
        and a.carried
        and a.scanned_in == b.scanned_in
        and a.scheme is b.scheme
        and a.statement is b.statement
    )


def _param_deps(
    nf: NFSpecies,
    md: MethodDeps,
    mi: MethodInfo,
    species_env: dict[str, NFSpecies],
    deps_env: dict[str, SpeciesDeps],
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
        iface_sd = deps_env[iface.name]
        for m in sorted(deps):
            if m not in iface_nf.methods:
                raise CompileError(
                    UNKNOWN, f"{pname} has no method {m}", mi.pos
                )
        closed = set(deps)
        for m in deps:  # [Close]: names used by the statements of members
            closed |= type_level_refs(iface_nf.methods[m])
        md.param_deps[pname] = [m for m in iface_sd.order if m in closed]

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
    if md.carrier_keep == "TypeAndBody" and nf.rep_resolved is not None:
        plan_types.append(nf.rep_resolved)
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
    for x in expr_walk(e):
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
    return any(
        (isinstance(n, TParam) and n.name == pname)
        or (isinstance(n, TCap) and n.name == pname)
        for n in type_walk(t)
    )
