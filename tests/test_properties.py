"""Randomized invariants, cross-checked against the brute-force oracles.

A seeded generator builds small well-formed units (species of at most six
methods over at most two parameters, chains, diamonds, redefinitions,
recursion) and every suite below checks one law over at least a thousand
generated cases.
"""

from __future__ import annotations

import copy
import random
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

from focml import compile_source, driver
from focml.deps import scan_species, type_level_refs
from focml.emit import emit_comp, emit_logical
from focml.errors import CompileError
from focml.pretty import expr_to_source, type_to_source

import oracles

SEED = 271828
N_GENERAL = 240
N_COMPLETE = 240

PRELUDE = """
species Base =
  signature mk : int -> Self ;
  signature leq : Self -> Self -> bool ;
  property refl : all x : Self, leq (x, x) ;
end ;;

species BaseImpl =
  inherit Base ;
  representation = int ;
  let mk (x) : Self = x ;
  let leq (x, y) = x <0x y ;
  proof of refl = admitted ;
end ;;

collection BColl = implement BaseImpl ; end ;;
"""


# ---------------------------------------------------------------------------
# Random unit generator


@dataclass
class Pools:
    """What a species under construction may refer to."""

    counter: int = 0
    callable: list[str] = field(default_factory=list)  # int -> int
    defined: list[str] = field(default_factory=list)  # lets with bodies
    logical: list[str] = field(default_factory=list)
    sigs: list[str] = field(default_factory=list)  # declared, undefined
    unfolded: set[str] = field(default_factory=set)

    def clone(self) -> "Pools":
        return Pools(
            self.counter,
            list(self.callable),
            list(self.defined),
            list(self.logical),
            list(self.sigs),
            set(self.unfolded),
        )


def merged(a: Pools, b: Pools) -> Pools:
    cat = lambda xs, ys: list(dict.fromkeys(xs + ys))
    return Pools(
        max(a.counter, b.counter),
        cat(a.callable, b.callable),
        cat(a.defined, b.defined),
        cat(a.logical, b.logical),
        cat(a.sigs, b.sigs),
        a.unfolded | b.unfolded,
    )


def iexpr(rng, calls, depth=0) -> str:
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        return rng.choice(["x", f"x + {rng.randint(0, 9)}", str(rng.randint(0, 9))])
    if roll < 0.75 and calls:
        return f"{rng.choice(calls)} ({iexpr(rng, calls, depth + 1)})"
    return f"{iexpr(rng, calls, depth + 1)} - {rng.randint(0, 9)}"


def _mint_index(name: str) -> int:
    """Creation order of a generated method, recovered from its name."""
    return int(name[1:].rstrip("x"))


def make_stmt(rng, st: Pools, param: bool) -> str:
    if param and rng.random() < 0.4:
        return f"all y : P0, P0!leq (y, {rng.choice(['y', 'v0'])})"
    if st.callable and rng.random() < 0.8:
        f, g = rng.choice(st.callable), rng.choice(st.callable)
        return f"all x : int, {f} (x) = {g} (x)"
    return "all x : int, x = x"


def make_proof(rng, st: Pools, param: bool) -> tuple[str, list[str]]:
    if rng.random() < 0.3 or not st.defined:
        return "admitted", []
    d = rng.choice(st.defined)
    text = f"by definition of {d}"
    if st.logical and rng.random() < 0.5:
        text += f" property {rng.choice(st.logical)}"
    if param and rng.random() < 0.4:
        text += " property P0!refl"
    return text, [d]


def gen_species(
    rng,
    name: str,
    st: Pools,
    *,
    param: bool,
    complete: bool,
    parents: list[str] | None = None,
    prepend: list[tuple[str, str]] | None = None,
) -> str:
    head = f"species {name}"
    if param:
        head += " (P0 is Base, v0 in P0)"
    lines = [head + " ="]
    if parents:
        args = " (P0, v0)" if param else ""
        lines.append("  inherit " + ", ".join(p + args for p in parents) + " ;")
    else:
        lines.append("  representation = int ;")
    budget = 6
    local: set[str] = set()  # one declaration per name per species body
    for mname, text in prepend or []:
        lines.append(text)
        local.add(mname)
        budget -= 1
    for _ in range(rng.randint(1, budget)):
        lines.append(_method(rng, st, local, param, complete))
    lines.append("end ;;")
    return "\n".join(lines)


def _method(rng, st: Pools, local: set[str], param: bool, complete: bool) -> str:
    def fresh() -> str:
        st.counter += 1
        local.add(f"m{st.counter}")
        return f"m{st.counter}"

    def body_for(m: str) -> str:
        # a body supplied after the declaration may only call older
        # methods, or it could close a dependency cycle through a newer
        # one that already refers to m
        cut = _mint_index(m)
        return iexpr(rng, [c for c in st.callable if _mint_index(c) < cut])

    # settle pending signatures first now and then
    pending = [m for m in st.sigs if m not in local]
    if pending and rng.random() < 0.4:
        m = rng.choice(pending)
        st.sigs.remove(m)
        st.defined.append(m)
        local.add(m)
        return f"  let {m} (x : int) : int = {body_for(m)} ;"

    redefinable = [
        d
        for d in st.defined
        if d in st.callable  # int -> int; parameter-typed lets keep their pin
        and d not in local
        and (not complete or d not in st.unfolded)
    ]
    roll = rng.random()
    if roll < 0.12 and redefinable:
        m = rng.choice(redefinable)
        local.add(m)
        if not complete:
            st.unfolded.discard(m)  # reverts any proof unfolding m
        return f"  let {m} (x : int) : int = {body_for(m)} ;"
    if not complete and roll < 0.24:
        m = fresh()
        st.callable.append(m)
        st.sigs.append(m)
        return f"  signature {m} : int -> int ;"
    if roll < 0.36:
        m = fresh()
        base = rng.randint(0, 9)
        st.callable.append(m)
        st.defined.append(m)
        return (
            f"  let rec {m} (n : int) : int ="
            f" if n =0x 0 then {base} else {m} (n - 1) ;"
        )
    if param and roll < 0.5:
        m = fresh()
        st.defined.append(m)
        arg = rng.choice(["y", "v0"])
        return f"  let {m} (y : P0) : bool = P0!leq (y, {arg}) ;"
    if not complete and roll < 0.64:
        m = fresh()
        st.logical.append(m)
        return f"  property {m} : {make_stmt(rng, st, param)} ;"
    if roll < 0.78:
        m = fresh()
        stmt = make_stmt(rng, st, param)
        proof, unfolds = make_proof(rng, st, param)
        st.logical.append(m)
        st.unfolded.update(unfolds)
        return f"  theorem {m} : {stmt}\n  proof = {proof} ;"
    m = fresh()
    body = iexpr(rng, st.callable)  # built before m becomes callable
    st.callable.append(m)
    st.defined.append(m)
    return f"  let {m} (x : int) : int = {body} ;"


@dataclass
class Unit:
    source: str
    cu: object
    species: list[str]
    collections: list[str]


def gen_unit(rng, uid: int, complete: bool) -> Unit:
    param = rng.random() < 0.5
    shape = rng.random()
    blocks, names = [], []
    s = lambda i: f"S{uid}_{i}"

    def add(name, st, parents=None, prepend=None):
        blocks.append(
            gen_species(
                rng, name, st,
                param=param, complete=complete,
                parents=parents, prepend=prepend,
            )
        )
        names.append(name)

    root = Pools()
    if shape < 0.35:  # single species
        add(s(0), root)
        last_st = root
    elif shape < 0.75:  # chain, sometimes with a recursive pair split over it
        mutual = not complete and rng.random() < 0.3
        prepend = None
        if mutual:
            a, b = f"m{root.counter + 1}x", f"m{root.counter + 2}x"
            root.counter += 2
            root.callable += [a, b]
            add(s(0), root, prepend=[
                (a, f"  signature {a} : int -> int ;"),
                (b, f"  signature {b} : int -> int ;"),
            ])
            # callable but never in defined: proofs cannot unfold a
            # mutual member, and redefining one would break the group
            prepend = [
                (a, f"  let rec {a} (n : int) : int ="
                    f" if n =0x 0 then 0 else {b} (n - 1) ;"),
                (b, f"  let rec {b} (n : int) : int = {a} (n) ;"),
            ]
        else:
            add(s(0), root)
        add(s(1), root, parents=[s(0)], prepend=prepend)
        last_st = root
    else:  # diamond
        add(s(0), root)
        left, right = root.clone(), root.clone()
        right.counter += 100  # keep sibling branches from reusing names
        if complete:
            # one branch redefining what the other unfolds would revert
            # the proof in the merged species
            right.unfolded = left.unfolded
        add(s(1), left, parents=[s(0)])
        add(s(2), right, parents=[s(0)])
        last_st = merged(left, right)
        add(s(3), last_st, parents=[s(1), s(2)])

    colls = []
    if complete:
        cname = f"C{uid}"
        target = names[-1]
        args = f" (BColl, BColl!mk ({rng.randint(0, 9)}))" if param else ""
        blocks.append(f"collection {cname} = implement {target}{args} ; end ;;")
        colls.append(cname)

    source = PRELUDE + "\n" + "\n\n".join(blocks) + "\n"
    return Unit(source, compile_source(source), names, colls)


@pytest.fixture(scope="module")
def general_units():
    rng = random.Random(SEED)
    return [gen_unit(rng, i, complete=False) for i in range(N_GENERAL)]


@pytest.fixture(scope="module")
def complete_units():
    rng = random.Random(SEED + 1)
    return [gen_unit(rng, i, complete=True) for i in range(N_COMPLETE)]


def oracle_inputs(cu, sname):
    nf = cu.species[sname]
    sd = cu.deps[sname]
    decl = {n: set(md.decl) for n, md in sd.methods.items()}
    defs = {n: set(md.defs) for n, md in sd.methods.items()}
    tdep = {n: type_level_refs(nf.methods[n], nf) for n in nf.methods}
    return nf, sd, decl, defs, tdep


# ---------------------------------------------------------------------------
# Suites.  Each returns its case count so the acceptance run can report it.


def run_universe_suite(units) -> int:
    cases = 0
    for u in units:
        for sname in u.species:
            _, sd, decl, defs, tdep = oracle_inputs(u.cu, sname)
            for x, md in sd.methods.items():
                assert md.universe == oracles.universe(decl, defs, tdep, x), (
                    u.source, sname, x,
                )
                cases += 1
    return cases


def run_min_env_suite(units) -> int:
    cases = 0
    for u in units:
        for sname in u.species:
            _, sd, decl, defs, tdep = oracle_inputs(u.cu, sname)
            for x, md in sd.methods.items():
                want = oracles.min_env(sd.order, decl, defs, tdep, x)
                got = [(y, k == "TypeAndBody") for y, k in md.min_env]
                assert got == want, (u.source, sname, x)
                # partition law: the environment covers the universe and
                # keeps a definition exactly for the unfolded part
                assert {y for y, _ in md.min_env} == md.universe
                for y, keep in md.min_env:
                    assert (keep == "TypeAndBody") == (y in md.closure)
                cases += 1
    return cases


def run_close_suite(units) -> int:
    cases = 0
    for u in units:
        iface = u.cu.species["Base"]
        tdeps = {
            n: type_level_refs(mi, iface) for n, mi in iface.methods.items()
        }
        for sname in u.species:
            sd = u.cu.deps[sname]
            if not u.cu.species[sname].is_params:
                continue
            for md in sd.methods.values():
                for p, deps in md.param_deps.items():
                    assert oracles.close_param_deps(set(deps), tdeps) == set(
                        deps
                    ), (u.source, sname, p)
                    cases += 1
    return cases


def run_topo_suite(units) -> int:
    cases = 0
    for u in units:
        for sname in u.species:
            nf, sd, decl, _, _ = oracle_inputs(u.cu, sname)
            group_of = {}
            for g in sd.rec_groups:
                for m in g:
                    group_of[m] = id(g)
            edges = {
                (d, x)
                for x, ds in decl.items()
                for d in ds
                if d != x and group_of.get(d) != group_of.get(x, object())
            }
            assert oracles.is_topological(sd.order, edges), (u.source, sname)
            assert sorted(sd.order) == sorted(nf.methods)
            cases += len(sd.order)
    return cases


def _required(atom):
    return ("param_entity", atom[1].name) if atom[0] == "entity_expr" else atom


def run_scoping_suite(units) -> int:
    cases = 0
    for u in units:
        for sname in u.species:
            plan = u.cu.plans[sname]
            for gen in plan.generators.values():
                seen = set()
                for l in gen.lifts:
                    if l.bind_gen is not None:
                        for a in l.bind_gen.args:
                            assert _required(a) in seen, (u.source, gen.method)
                    seen.add(l.tag)
                cases += 1
            if plan.create is None:
                continue
            outer = {l.tag for l in plan.create.outer}
            seen = set()
            for d in plan.create.locals:
                if d.gen is not None:
                    for a in d.gen.args:
                        need = _required(a)
                        if need[0].startswith("param_"):
                            assert need in outer, (u.source, sname, a)
                        elif need == ("self_carrier",):
                            assert "rep" in seen
                        else:
                            assert need[1] in seen, (u.source, sname, a)
                seen.add(d.name if d.gen is None else d.name)
            cases += 1
    return cases


def run_erasure_suite(units) -> int:
    cases = 0
    for u in units:
        logical, comp = emit_logical(u.cu), emit_comp(u.cu)
        for cname in u.collections:
            ep = u.cu.extractions[cname]
            for m, is_logical in ep.methods:
                assert f"rf_{m}" in logical, (u.source, cname, m)
                present = re.search(rf"\brf_{m}\b", comp) is not None
                assert present == (not is_logical), (u.source, cname, m)
                cases += 1
    return cases


def logical_kinds(nf) -> dict[str, bool]:
    return {m: mi.kind in ("property", "theorem") for m, mi in nf.methods.items()}


def run_recorded_erasure_suite(cus) -> int:
    """Each lift's logical flag and each application's computational
    arguments, as the plans record them, against the per-use content rule
    of `oracles.atom_is_logical`; and each application passes as many
    computational arguments as its callee has computational parameters."""
    cases = 0
    for cu in cus:
        colls = {c: logical_kinds(m.nf) for c, m in cu.collections.items()}
        for sname, plan in cu.plans.items():
            nf = cu.species[sname]
            own = logical_kinds(nf)
            params = {
                p.name: logical_kinds(cu.species[p.interface.name])
                for p in nf.is_params
            }
            judge = lambda a: oracles.atom_is_logical(a, own, params, colls)
            lifts = [l for g in plan.generators.values() for l in g.lifts]
            apps = [l.bind_gen for l in lifts if l.bind_gen is not None]
            if plan.record is not None:
                lifts += plan.record.abstractions
            if plan.create is not None:
                lifts += plan.create.outer
                apps += [d.gen for d in plan.create.locals if d.gen is not None]
            for l in lifts:
                assert l.logical == (l.statement is not None or judge(l.tag))
            for app in apps:
                assert app.comp_args == [a for a in app.args if not judge(a)]
                callee = cu.plans[app.species].generators[app.method]
                want = [l for l in callee.lifts if l.abstract and not l.logical]
                assert len(app.comp_args) == len(want), (sname, app)
            cases += len(lifts) + len(apps)
        for ext in cu.extractions.values():
            judge = lambda a: oracles.atom_is_logical(a, {}, {}, colls)
            assert ext.comp_args == [a for a in ext.create_args if not judge(a)]
            create = cu.plans[ext.species].create
            want = [l for l in create.outer if not l.logical]
            assert len(ext.comp_args) == len(want), ext.name
            cases += 1
    return cases


def data_units() -> list:
    """The example files that compile, alone or after the running example."""
    data = Path(__file__).parent / "data"
    example = (data / "example.fcl").read_text()
    cus = []
    for path in sorted(data.glob("*.fcl")):
        for prefix in ("", example):
            if prefix and path.name == "example.fcl":
                continue
            try:
                cus.append(compile_source(prefix + path.read_text()))
            except CompileError:
                pass
    return cus


def method_signature(nf, name):
    mi = nf.methods[name]
    return (
        mi.kind,
        mi.origin,
        mi.first_def,
        None if mi.scheme is None else type_to_source(mi.scheme.body),
        None if mi.statement is None else expr_to_source(mi.statement),
        mi.carrier_decl,
        mi.carrier_def,
        mi.valid_proof,
    )


def run_normalize_suite(units) -> int:
    cases = 0
    for u in units:
        target = u.species[-1]
        again = f"{target}A"
        nf = u.cu.species[target]
        extra = f"species {again}"
        if nf.is_params:
            extra += " (P0 is Base, v0 in P0)"
            extra += f" = inherit {target} (P0, v0) ; end ;;"
        else:
            extra += f" = inherit {target} ; end ;;"
        cu2 = compile_source(u.source + "\n" + extra)
        base, re_nf = cu2.species[target], cu2.species[again]
        assert re_nf.order == base.order, u.source
        assert re_nf.rep == base.rep and re_nf.rep_origin == base.rep_origin
        assert set(re_nf.methods) == set(base.methods)
        for m in base.methods:
            assert method_signature(re_nf, m) == method_signature(base, m), (
                u.source, m,
            )
            cases += 1
    return cases


def analysis(mi, md):
    """What typing and the dependency scan compute for one method."""
    return (
        mi.scheme,
        mi.param_types,
        mi.ret_type,
        mi.carrier_decl,
        mi.carrier_def,
        mi.statement,
        mi.proof,
        md.decl,
        md.defs,
    )


def run_carry_suite(units) -> int:
    """Carried results against a full retype and rescan of every species,
    made by the driver's own typing and scan steps with nothing carried."""
    cases = 0
    for u in units:
        for sname, nf in u.cu.species.items():
            full = copy.copy(nf)
            full.methods = {
                n: replace(mi, carried=False)
                for n, mi in nf.methods.items()
            }
            sd = scan_species(full, u.cu.deps)
            driver._type_species(full, sd, driver._species_env(u.cu, full))
            for name, mi in nf.methods.items():
                got = analysis(mi, u.cu.deps[sname].methods[name])
                want = analysis(full.methods[name], sd.methods[name])
                assert got == want, (u.source, sname, name)
                cases += mi.carried
    return cases


# ---------------------------------------------------------------------------
# The tests themselves


def test_universe_is_the_visibility_fixpoint(general_units, complete_units):
    assert run_universe_suite(general_units + complete_units) >= 1000


def test_min_env_partitions_the_universe(general_units, complete_units):
    assert run_min_env_suite(general_units + complete_units) >= 1000


def test_param_deps_are_closed(general_units, complete_units):
    assert run_close_suite(general_units + complete_units) >= 1000


def test_order_is_a_valid_topological_sort(general_units, complete_units):
    assert run_topo_suite(general_units + complete_units) >= 1000


def test_generator_plans_are_well_scoped(general_units, complete_units):
    assert run_scoping_suite(general_units + complete_units) >= 1000


def test_erasure_keeps_exactly_the_computational_methods(complete_units):
    assert run_erasure_suite(complete_units) >= 1000


def test_flattening_is_idempotent(general_units, complete_units):
    assert run_normalize_suite(general_units + complete_units) >= 1000


def test_plans_record_erasure_by_content(general_units, complete_units):
    data = data_units()
    assert len(data) >= 3
    units = [u.cu for u in general_units + complete_units]
    assert run_recorded_erasure_suite(units + data) >= 1000


def test_carried_analysis_equals_a_full_retype(general_units, complete_units):
    assert run_carry_suite(general_units + complete_units) >= 1000
