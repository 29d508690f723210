"""Randomized invariants, cross-checked against the brute-force oracles.

A seeded generator builds small well-formed units (species of at most six
methods over at most two parameters, chains, diamonds, redefinitions,
recursion) and every suite below checks one law over at least a thousand
generated cases.  A third set of units adds polymorphic lets and an heir
that signs one of its inherited lets, keeping or narrowing its type, which
a unit may rightly fail to compile on.
"""

from __future__ import annotations

import copy
import importlib.util
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from focml import compile_source, compile_unit, deps, driver, evaluator
from focml.ast import (
    BinOp, BoolLit, Call, ConRef, Connective, Eq, Expr, If, IntLit, Match, Not, PCon,
    PTuple, PVar, PWild, ProofLeaf, Qual, Quant, StrLit, TCon, TTuple,
    TupleExpr, UnOp, Var, expr_children,
)
from focml.deps import (
    MethodDeps, SpeciesDeps, finish_deps, order_methods, scan_species, type_level_refs,
)
from focml.emit import emit_comp, emit_logical
from focml.generators import build_species_plan
from focml.hierarchy import invalidate_proofs
from focml.errors import CompileError, EvalFailure
from focml.evaluator import Interpreter, Scope, format_value
from focml.lexer import tokenize
from focml.parser import parse_expr_text, parse_source
from focml.pretty import expr_to_source, type_to_source
from focml.proofs import iter_leaves

import oracles
from test_evaluator import COUNTER
from test_generators import CROSS
from test_typecheck import CAPTURE_SHAPES

SEED = 271828
N_GENERAL = 240
N_COMPLETE = 240
N_NARROW = 240

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
    poly: list[str] = field(default_factory=list)  # `(z) = z`, also callable

    def clone(self) -> "Pools":
        return Pools(
            self.counter,
            list(self.callable),
            list(self.defined),
            list(self.logical),
            list(self.sigs),
            set(self.unfolded),
            list(self.poly),
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
        cat(a.poly, b.poly),
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
    narrow: bool = False,
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
        lines.append(_method(rng, st, local, param, complete, narrow))
    lines.append("end ;;")
    return "\n".join(lines)


def _method(
    rng, st: Pools, local: set[str], param: bool, complete: bool, narrow: bool
) -> str:
    def fresh() -> str:
        st.counter += 1
        local.add(f"m{st.counter}")
        return f"m{st.counter}"

    if narrow and rng.random() < 0.15:
        # callable at int, never redefined or unfolded: an heir may sign it
        m = fresh()
        st.callable.append(m)
        st.poly.append(m)
        return f"  let {m} (z) = z ;"

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
    source, names, colls = gen_source(rng, uid, complete)
    return Unit(source, compile_source(source), names, colls)


def gen_source(
    rng, uid: int, complete: bool, narrow: bool = False
) -> tuple[str, list[str], list[str]]:
    """A unit's source, its species and its collections.  With `narrow`,
    lets may be polymorphic, and the unit ends in an heir that adds a
    signature below an inherited definition (`signature_heir`)."""
    param = rng.random() < 0.5
    shape = rng.random()
    blocks, names = [], []
    s = lambda i: f"S{uid}_{i}"

    def add(name, st, parents=None, prepend=None):
        blocks.append(
            gen_species(
                rng, name, st,
                param=param, complete=complete,
                parents=parents, prepend=prepend, narrow=narrow,
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

    if narrow:
        heir = signature_heir(rng, names[-1], last_st, param)
        if heir is not None:
            blocks.append(heir)
            names.append(f"{names[-1]}N")

    source = PRELUDE + "\n" + "\n\n".join(blocks) + "\n"
    return source, names, colls


def signature_heir(rng, parent: str, st: Pools, param: bool) -> str | None:
    """An heir of `parent` that declares the type of a let it inherits
    defined: an `int -> int` let keeps its type, and a polymorphic one is
    narrowed, to `int -> int`, which its callers at int still fit, or to
    `bool -> bool` or the parameter's carrier, which they do not."""
    mono = [d for d in st.defined if d in st.callable]
    if st.poly and (not mono or rng.random() < 0.6):
        m = rng.choice(st.poly)
        ty = rng.choice(["int -> int", "bool -> bool"] + ["P0 -> P0"] * param)
    elif mono:
        m, ty = rng.choice(mono), "int -> int"
    else:
        return None
    head, args = f"species {parent}N", ""
    if param:
        head, args = head + " (P0 is Base, v0 in P0)", " (P0, v0)"
    return f"{head} =\n  inherit {parent}{args} ;\n  signature {m} : {ty} ;\nend ;;"


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
    tdep = {n: type_level_refs(nf.methods[n]) for n in nf.methods}
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
            n: type_level_refs(mi) for n, mi in iface.methods.items()
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


def data_pairs() -> list:
    """(source, unit) for the example files that compile, alone or after
    the running example."""
    data = Path(__file__).parent / "data"
    example = (data / "example.fcl").read_text()
    pairs = []
    for path in sorted(data.glob("*.fcl")):
        for prefix in ("", example):
            if prefix and path.name == "example.fcl":
                continue
            try:
                pairs.append(compiled(prefix + path.read_text()))
            except CompileError:
                pass
    return pairs


def data_units() -> list:
    return [cu for _, cu in data_pairs()]


def compiled(source: str) -> tuple:
    return source, compile_source(source)


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
            full.methods = {n: mi.replace(carried=False) for n, mi in nf.methods.items()}
            sd = scan_species(full, u.cu.deps)
            driver._type_species(full, sd, driver._species_env(u.cu, full))
            for name, mi in nf.methods.items():
                got = analysis(mi, u.cu.deps[sname].methods[name])
                want = analysis(full.methods[name], sd.methods[name])
                assert got == want, (u.source, sname, name)
                cases += mi.carried
    return cases


# Heirs that keep every inherited method carried but change what the finish
# of its dependencies reads: the interface, the set or the order of the
# parameters, the renaming a diamond brings the methods in with (`Cross`),
# the definition of a declared method (`Merged` takes `y` from `Def`, whose
# body unfolds the representation), or the order of the lineage (`Late`
# ranks `z` before `y`).  Two more change what an heir can keep from its
# parent: `Moved` redefines `a` to call a method it adds, which moves `a`
# and `p` after `q` and reorders `z`'s environment; `Swap` swaps the
# parameters its parent has, so `t` keeps its statement but its fact and
# `u`'s statement name the other parameter; `Signed` narrows `idf` to the
# carrier, so `k`, typed again, keeps its scheme but now unfolds the
# representation, which `c`, calling `k`, must keep the carrier for.
FINISH_EDGES = """
species Ord =
  signature lt : Self -> Self -> bool ;
  signature eq : Self -> Self -> bool ;
end ;;

species OrdEq =
  inherit Ord ;
  let eq (x, y) = true ;
end ;;

species Src (P is Ord, a in P, b in P) =
  let near (x : P) : bool = P!eq (x, a) && P!lt (x, b) ;
  let far (x : P) : bool = ~~ (near (x)) ;
end ;;

species Iface (P is OrdEq, a in P, b in P) = inherit Src (P, a, b) ; end ;;
species Added (P is Ord, a in P, b in P, Q is Ord) = inherit Src (P, a, b) ; end ;;
species Swapped (P is Ord, b in P, a in P) = inherit Src (P, a, b) ; end ;;

species Two (P is Ord, Q is Ord) =
  let onP (x : P) : bool = P!lt (x, x) ;
  let onQ (y : Q) : bool = Q!eq (y, y) ;
  let both (x : P) : bool = onP (x) ;
  property irrefl : all x : P, ~ (P!lt (x, x) = true) ;
end ;;

species Left (P is Ord, Q is Ord) = inherit Two (P, Q) ; end ;;
species Right (P is Ord, Q is Ord) = inherit Two (P, Q) ; end ;;
species Cross (P is Ord, Q is Ord) = inherit Right (Q, P), Left (P, Q) ; end ;;

species Decl =
  representation = int ;
  signature g : Self -> int ;
  signature y : int -> int ;
  let x (n : int) : int = y (n) ;
end ;;
species Def = inherit Decl ; let y (n : int) : int = g (n) ; end ;;
species Merged = inherit Decl, Def ; end ;;

species Ys = let y (n : int) : int = n ; end ;;
species Zs = let z (n : int) : int = n ; end ;;
species Both = inherit Ys, Zs ; let x (n : int) : int = y (n) + z (n) ; end ;;
species Zs2 = inherit Zs ; end ;;
species Late = inherit Zs2, Both ; end ;;

species Moves =
  representation = int ;
  let a (n : int) : int = n ;
  let p (n : int) : int = a (n) ;
  let q (n : int) : int = n ;
  let z (n : int) : int = p (n) + q (n) ;
end ;;
species Moved = inherit Moves ; let a (n : int) : int = c (n) ; let c (n : int) : int = n ; end ;;

species SwapSrc (P is Base, Q is Base) =
  representation = int ;
  let k (x : P) : bool = P!leq (x, x) ;
  theorem t : all n : int, n = n
    proof = by property P!refl ;
  theorem u : all x : P, P!leq (x, x)
    proof = by property P!refl ;
end ;;
species Swap (P is Base, Q is Base) = inherit SwapSrc (Q, P) ; end ;;

species Unsigned =
  representation = int ;
  let idf (z) = z ;
  let k (n : int) : int = idf (n) ;
  let c (n : int) : int = k (n) ;
end ;;
species Signed = inherit Unsigned ; signature idf : Self -> Self ; end ;;
"""


# Heirs with a parameter named like the collection `BColl` that an ancestor's
# arguments name: in a qualified call, an entity argument, a declared type
# and a cited fact (`ShC`, then renamed again in `ShD`), and in an interface
# argument (`ShI`).  Each heir is passed `BColl` in an inherit and in a
# collection.
SHADOWS = PRELUDE + """
species ShA (Q is Base, v in Q) =
  representation = int ;
  let k (n : int) : Q = Q!mk (n) ;
  let f (n : int) : int = if Q!leq (k (n), v) then 10 else n ;
  theorem t : all x : Q, Q!leq (x, x)
    proof = by property Q!refl, BColl!refl ;
end ;;
species ShB (Q is Base) = inherit ShA (BColl, BColl!mk (5)) ; end ;;
species ShC (BColl is Base) = inherit ShB (BColl) ; end ;;
species ShD (R is Base) = inherit ShC (R) ; end ;;
species ShE (BColl is Base, w in BColl) = inherit ShA (BColl, w) ; end ;;
species ShI (BColl is Base, H is ShB (BColl)) =
  inherit ShB (BColl) ;
  let g (n : int) : int = H!f (n) + f (n) ;
end ;;
collection ShBC = implement ShB (BColl) ;;
collection ShCC = implement ShC (BColl) ;;
collection ShDC = implement ShD (BColl) ;;
collection ShEC = implement ShE (BColl, BColl!mk (2)) ;;
collection ShIC = implement ShI (BColl, ShCC) ;;
"""


ROOT = Path(__file__).parent.parent


def benchmark_workloads():
    """The benchmark's `workloads` module, which holds its generators."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    spec.loader.exec_module(workloads)
    return workloads


def workload_sources() -> list:
    """The benchmark's chain, wide and recurse units for seeds 1 to 3, built
    by its own generators, as the (file, text) lists `compile_unit` takes."""
    units = []
    for generate in benchmark_workloads().GENERATORS.values():
        for seed in (1, 2, 3):
            wl = generate(seed)
            sources = [(f, (ROOT / f).read_text()) for f in wl.fixed]
            units.append(sources + list(wl.files.items()))
    return units


def workload_units() -> list:
    return [compile_unit(sources) for sources in workload_sources()]


# ---------------------------------------------------------------------------
# Lexer: the master-regex tokenizer against the character-by-character one

# Pieces a mutation inserts: nested and unterminated comments, strings with
# escapes and unterminated ones, bullets next to `<0x`, line breaks with a
# carriage return, and characters the language does not have.
LEX_PIECES = [
    "(* a (* nested *) comment *)", "(*(**)*)", "(* open", "(*)", "*)", "(**)",
    '"a \\" b"', '"\\"\\""', '"esc \\n \\\\ \\"', '"open', '"', "\\",
    "<1>2", "<0x", "<0>x", "<12>ab3", "<1>", "<", ">", "<0x1", "=0x",
    "\r\n", "\r", "\t", "\x0c", "@", "#", "é", "\u0663",
    "Self", "Selfish", "_x1", "x'", ";;", ";", "/\\", "\\/", "->", "~~", "&&", "12ab",
]


def lex_outcome(text: str):
    """Both tokenizers on `text`: each token's kind, value, position and
    bullet, or the error's kind, message and position."""
    try:
        got = [(t.kind, t.value, t.pos.line, t.pos.col, t.bullet) for t in tokenize(text)]
    except CompileError as err:
        got = (err.kind, err.message, err.pos.line, err.pos.col)
    try:
        want = oracles.tokenize(text)
    except oracles.LexFailure as err:
        want = ("SyntaxError", err.message, err.line, err.col)
    return got, want


def mutate(rng: random.Random, text: str) -> str:
    """A window of `text` changed one to four times, a token or a line at
    a time."""
    start = rng.randrange(max(1, len(text) - 1500))
    text = text[start:start + rng.randrange(1, 3000)]
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            parts = re.findall(r"\s+|\w+|.", text, re.DOTALL) or [""]
        else:
            parts = text.splitlines(keepends=True) or [""]
        i = rng.randrange(len(parts))
        match rng.randrange(5):
            case 0:
                parts.insert(i, rng.choice(LEX_PIECES))
            case 1:
                del parts[i]
            case 2:
                parts.insert(i, parts[i])
            case 3:
                j = rng.randrange(len(parts))
                parts[i], parts[j] = parts[j], parts[i]
            case 4:
                parts[i] = parts[i].replace("\n", "\r\n")
        text = "".join(parts)
    return text


def run_lexer_suite(texts: list[str], mutants_each: int) -> Counter:
    """Every text and its mutants; counts what the tokens and errors were."""
    rng = random.Random(SEED + 3)
    seen: Counter = Counter()
    for text in texts:
        for case in [text] + [mutate(rng, text) for _ in range(mutants_each)]:
            got, want = lex_outcome(case)
            assert got == want, case
            if isinstance(got, tuple):
                seen[" ".join(got[1].split()[:2])] += 1  # the error, without its character
            else:
                seen["tokens"] += 1
                seen["bullet"] += any(t[0] == "bullet" for t in got)
                seen["<0x"] += any(t[0] == "<0x" for t in got)
                seen["escape"] += any(t[0] == "string" and '"' in t[1] for t in got)
                seen["crlf"] += "\r\n" in case
                seen["nested comment"] += "(* nested *)" in case or "(*(**)*)" in case
    return seen


def run_finish_suite(cus) -> int:
    """Every carried finished entry against `finish_deps` run again on the
    same species with nothing carried, field by field, `min_env` order
    included."""
    cases = 0
    for cu in cus:
        for sname, nf in cu.species.items():
            sd = cu.deps[sname]
            full = copy.copy(nf)
            full.methods = {n: mi.replace(carried=False) for n, mi in nf.methods.items()}
            fresh = SpeciesDeps(
                order=sd.order,
                methods={
                    n: MethodDeps(decl=md.decl, defs=md.defs)
                    for n, md in sd.methods.items()
                },
                rec_groups=sd.rec_groups,
            )
            finish_deps(full, fresh, cu.species, cu.deps)
            for name, md in sd.methods.items():
                assert md == fresh.methods[name], (sname, name)
                cases += nf.methods[name].carried
    return cases


def run_placed_order_suite(cus) -> int:
    """The order and mutual groups of every species, placed from its
    parent's where it has one, against `order_methods` run from scratch;
    and its reverted proofs, kept from the parent's verdicts where nothing
    they unfold moved, against `invalidate_proofs` run from scratch."""
    cases = 0
    for cu in cus:
        for sname, nf in cu.species.items():
            sd = cu.deps[sname]
            decl = {n: md.decl for n, md in sd.methods.items()}
            assert (sd.order, sd.rec_groups) == order_methods(nf, decl), sname
            again = copy.copy(nf)
            again.methods = {n: mi.replace() for n, mi in nf.methods.items()}
            assert invalidate_proofs(again) == nf.reverted, sname
            cases += len(sd.order)
    return cases


def run_plan_suite(cus) -> int:
    """Every species' plan, extended from its parent's where it has one,
    against `build_species_plan` run from scratch."""
    cases = 0
    for cu in cus:
        for sname, nf in cu.species.items():
            fresh = build_species_plan(nf, cu.deps[sname], cu.species, cu.deps, cu.plans)
            assert fresh == cu.plans[sname], sname
            cases += len(nf.methods)
    return cases


def check_outcome(sources) -> str:
    try:
        compile_unit(sources)
    except CompileError as err:
        return err.kind
    return "accepted"


def run_acceptance_suite(units, carried: list[str], monkeypatch) -> Counter:
    """`check` with the carry, whose outcomes are `carried`, against `check`
    with every method typed, scanned and finished again in every species:
    both accept, or both reject with the same kind of error."""
    normalize = driver.normalize

    def nothing_carried(nf, *args):
        normalize(nf, *args)
        for mi in nf.methods.values():
            mi.carried = False

    with monkeypatch.context() as m:
        m.setattr(driver, "normalize", nothing_carried)
        full = [check_outcome(sources) for sources in units]
    for sources, got, want in zip(units, carried, full):
        assert got == want, sources
    return Counter(carried)


# Sharing with a parent: `T` renames both formals, `U` passes them as
# themselves, and `V` inherits `U` as it is.  `f` and `t` mention neither
# formal; `g` mentions both.  `W` redefines `f`, which reverts the proof of
# `t`, and `X` inherits `W` as it is.
SHARING = PRELUDE + """
species S (P is Base, v in P) =
  representation = int ;
  let f (x : int) : int = x + 1 ;
  let g (y : P) : bool = P!leq (y, v) ;
  theorem t : all x : int, f (x) = f (x)
    proof = by definition of f ;
end ;;
species T (Q is Base, w in Q) = inherit S (Q, w) ; end ;;
species U (P is Base, v in P) = inherit S (P, v) ; end ;;
species V (P is Base, v in P) = inherit U (P, v) ; let h (x : int) : int = f (x) ; end ;;
species W (P is Base, v in P) = inherit V (P, v) ; let f (x : int) : int = x + 2 ; end ;;
species X (P is Base, v in P) = inherit W (P, v) ; end ;;
"""


# The four shapes in which an heir brings in a name an inherited body leaves
# free, in one unit.
CAPTURES = PRELUDE + "".join(src for src, *_ in CAPTURE_SHAPES.values())


def bound_by(p) -> list[str]:
    match p:
        case PVar(name):
            return [name]
        case PCon(_, items) | PTuple(items):
            return [n for i in items for n in bound_by(i)]
    return []


def scope_tree(e, refs: list) -> tuple:
    """An expression as the plain tree `oracles.scope_tags` walks; appends
    the (name, tag) of each name to `refs` in the same order."""
    t = lambda x: scope_tree(x, refs)
    match e:
        case Var(name, ref):
            refs.append((name, ref))
            return ("var", name)
        case Qual(coll, _, ref):
            refs.append((coll, ref))
            return ("qual", coll)
        case Quant(_, names, _, body):
            return ("bind", list(names), [t(body)])
        case Match(scrutinee, arms):
            s = t(scrutinee)
            return ("node", [s] + [("bind", bound_by(p), [t(b)]) for p, b in arms])
        case ConRef(_, items) | TupleExpr(items):
            return ("node", [t(i) for i in items])
        case Call(callee, args):
            f = t(callee)
            return ("node", [f] + [t(a) for a in args])
        case BinOp(_, left, right) | Connective(_, left, right) | Eq(left, right):
            lt = t(left)
            return ("node", [lt, t(right)])
        case UnOp(_, x) | Not(x):
            return ("node", [t(x)])
        case If(c, a, b):
            ct, at = t(c), t(a)
            return ("node", [ct, at, t(b)])
    return ("node", [])


def proof_tree(p, refs: list) -> tuple:
    if isinstance(p, ProofLeaf):
        assert all(len(f.refs) == len(f.names) for f in p.facts)
        cited = [
            (n.partition("!")[0], ref)
            for f in p.facts
            for n, ref in zip(f.names, f.refs)
            if "!" in n
        ]
        refs += cited
        return ("node", [("qual", coll) for coll, _ in cited])
    steps = []
    for s in p.steps:
        kids = [scope_tree(h, refs) for _, h in s.hyps]
        if s.goal is not None:
            kids.append(scope_tree(s.goal, refs))
        if s.sub is not None:
            kids.append(proof_tree(s.sub, refs))
        steps.append(("bind", [v for vs, _ in s.assumes for v in vs], kids))
    return ("node", steps)


def proof_exprs(p) -> list:
    if isinstance(p, ProofLeaf):
        return []
    out = []
    for s in p.steps:
        out += [h for _, h in s.hyps] + ([] if s.goal is None else [s.goal])
        out += [] if s.sub is None else proof_exprs(s.sub)
    return out


def written_trees(mi):
    """(where written, plain tree, tags, expressions) for each tree of mi."""
    if mi.kind == "let" and mi.body is not None:
        refs = []
        own = [n for n, _ in mi.params] + ([mi.name] if mi.rec else [])
        tree = ("bind", own, [scope_tree(mi.body, refs)])
        yield mi.origin, "body", tree, refs, [mi.body]
    if mi.statement is not None:
        refs = []
        tree = scope_tree(mi.statement, refs)
        yield mi.decl_site, "statement", tree, refs, [mi.statement]
    if mi.proof is not None:
        refs = []
        tree = proof_tree(mi.proof, refs)
        yield mi.proof_origin, "proof", tree, refs, proof_exprs(mi.proof)


def denoted(decls, lineage, heir: str, writer: str) -> dict:
    """The (name, tag) that each is-formal of `writer` denotes in `heir`,
    from the source: along the first inherit that reaches `writer`, an
    argument is a parameter of the species that passes it if that species
    has a parameter of its name, and a collection otherwise."""
    if heir == writer:
        return {p.name: (p.name, "param") for p in decls[heir].params if p.kind == "is"}
    own = {p.name for p in decls[heir].params if p.kind == "is"}
    se = next(se for se in decls[heir].inherits if writer in lineage(se.name))
    passed = {f.name: a.name for f, a in zip(decls[se.name].params, se.args)}
    return {
        f: (name, tag) if tag == "collection"
        else (passed[name], "param" if passed[name] in own else "collection")
        for f, (name, tag) in denoted(decls, lineage, se.name, writer).items()
    }


def check_kept(origin, heir, actuals: dict) -> None:
    """Renaming kept every tag of `origin` in its copy `heir`, except where
    an entity parameter was replaced by an argument, and a parameter-tagged
    collection became what `actuals` says its argument denotes."""
    if isinstance(origin, Var) and origin.ref == "entity":
        if not isinstance(heir, Var) or (heir.name, heir.ref) != (origin.name, "entity"):
            return
    assert type(heir) is type(origin)
    if isinstance(origin, Var):
        assert (heir.name, heir.ref) == (origin.name, origin.ref)
    elif isinstance(origin, Qual):
        assert heir.name == origin.name
        if origin.ref == "collection":
            assert (heir.coll, heir.ref) == (origin.coll, origin.ref)
        else:
            assert (heir.coll, heir.ref) == actuals[origin.coll]
    kids = expr_children(origin), expr_children(heir)
    assert len(kids[0]) == len(kids[1])
    for a, b in zip(*kids):
        check_kept(a, b, actuals)


def check_kept_facts(origin, heir, actuals: dict) -> None:
    """The same for the `P!m` facts two copies of a proof cite."""
    facts = [[f for leaf in iter_leaves(p) for f in leaf.facts] for p in (origin, heir)]
    assert len(facts[0]) == len(facts[1])
    for a, b in zip(*facts):
        assert len(a.names) == len(b.names) == len(b.refs)
        for name, ref, got in zip(a.names, a.refs, zip(b.names, b.refs)):
            coll, bang, m = name.partition("!")
            if ref == "param":
                coll, ref = actuals[coll]
            assert got == ((f"{coll}!{m}" if bang else name), ref)


def fact_names(mi, methods) -> set[str]:
    out = set()
    if mi.proof is None:
        return out
    for leaf in iter_leaves(mi.proof):
        for f in leaf.facts:
            if f.kind == "definition" or f.kind == "property":
                out |= {n for n in f.names if n in methods}
    return out


def check_tags(expr, scope: dict, where) -> None:
    refs: list = []
    tree = scope_tree(expr, refs)
    assert refs == oracles.scope_tags(tree, scope), where


def run_scope_suite(units) -> int:
    """Every tag against the reference scoping, in the species that wrote
    the tree; every inherited copy against the tree it copies; every decl
    set against the method-tagged names and the cited facts.  `units`
    holds (source, unit) pairs."""
    cases = 0
    for source_text, cu in units:
        decls = parse_source(source_text).species
        lineage = lambda s: cu.species[s].lineage
        for sname, nf in cu.species.items():
            scope = {
                "entities": {p.name for p in nf.entity_params},
                "methods": set(nf.methods),
                "params": {p.name for p in nf.is_params},
            }
            seen: list = []
            for p in nf.params:  # interface arguments see the parameters before
                for arg in [] if p.interface is None else p.interface.args:
                    if arg.expr is not None:
                        head = {
                            "entities": {q.name for q in seen if q.kind == "in"},
                            "methods": set(),
                            "params": {q.name for q in seen if q.kind == "is"},
                        }
                        check_tags(arg.expr, head, (sname, p.name))
                seen.append(p)
            for name, mi in nf.methods.items():
                method_refs = set()
                for writer, field, tree, refs, exprs in written_trees(mi):
                    method_refs |= {n for n, ref in refs if ref == "method"}
                    if writer == sname:
                        assert refs == oracles.scope_tags(tree, scope), (sname, name)
                    else:
                        source = cu.species[writer].methods[name]
                        written = list(written_trees(source))
                        theirs = next(w[4] for w in written if w[1] == field)
                        assert len(theirs) == len(exprs)
                        actuals = denoted(decls, lineage, sname, writer)
                        for a, b in zip(theirs, exprs):
                            check_kept(a, b, actuals)
                        if field == "proof":
                            check_kept_facts(source.proof, mi.proof, actuals)
                    cases += 1
                want = (method_refs | fact_names(mi, nf.methods)) - {name}
                assert cu.deps[sname].methods[name].decl == want, (sname, name)
        empty = {"entities": set(), "methods": set(), "params": set()}
        for model in cu.collections.values():
            for expr in (a for a in model.args.values() if isinstance(a, Expr)):
                check_tags(expr, empty, model.name)
    return cases


def plain_expr(e) -> tuple:
    """An expression as the tagged tuples `oracles.Evaluator` walks."""
    match e:
        case IntLit(v) | BoolLit(v) | StrLit(v):
            return ("lit", v)
        case Var(name):
            return ("var", name)
        case Qual(coll, name):
            return ("qual", coll, name)
        case ConRef(name, args):
            return ("con", name, [plain_expr(a) for a in args])
        case Call(callee, args):
            return ("call", plain_expr(callee), [plain_expr(a) for a in args])
        case TupleExpr(items):
            return ("tuple", [plain_expr(i) for i in items])
        case UnOp(op, x):
            return ("unop", op, plain_expr(x))
        case BinOp(op, left, right):
            return ("binop", op, plain_expr(left), plain_expr(right))
        case Eq(left, right):
            return ("binop", "=", plain_expr(left), plain_expr(right))
        case If(c, t, o):
            return ("if", plain_expr(c), plain_expr(t), plain_expr(o))
        case Match(scrutinee, arms):
            return (
                "match",
                plain_expr(scrutinee),
                [(plain_pattern(p), plain_expr(b)) for p, b in arms],
            )
    return ("other", type(e).__name__)


def plain_pattern(p) -> tuple:
    match p:
        case PWild():
            return ("wild",)
        case PVar(name):
            return ("pvar", name)
        case PCon(name, args):
            return ("pcon", name, [plain_pattern(a) for a in args])
        case PTuple(items):
            return ("ptuple", [plain_pattern(i) for i in items])
    return ("other",)


def plain_atoms(atoms) -> list[tuple]:
    return [
        ("entity_expr", plain_expr(a[1])) if a[0] == "entity_expr" else a
        for a in atoms
    ]


def plain_unit(cu) -> dict:
    """What the evaluator reads of a compiled unit, as plain data."""
    creators, generators = {}, {}
    for sname, plan in cu.plans.items():
        for m, gp in plan.generators.items():
            if gp.kind != "let":
                continue
            generators[sname, m] = {
                "lifts": [(l.tag, l.abstract, l.logical) for l in gp.lifts],
                "params": [n for n, _ in gp.value_params],
                "rec": gp.rec,
                "method": gp.method,
                "body": plain_expr(gp.body),
            }
        if plan.create is None:
            continue
        nf = cu.species[sname]
        creators[sname] = {
            "outer": [(l.tag, l.logical) for l in plan.create.outer],
            "locals": [
                (
                    d.name,
                    None if d.gen is None else (
                        d.gen.species, d.gen.method, plain_atoms(d.gen.comp_args)
                    ),
                    d.gen is not None and nf.methods[d.name].is_logical,
                )
                for d in plan.create.locals
            ],
        }
    return {
        "collections": [n for k, n in cu.decl_order if k == "collection"],
        "extractions": {
            n: {
                "species": ext.species,
                "comp_args": plain_atoms(ext.comp_args),
                "methods": list(ext.methods),
            }
            for n, ext in cu.extractions.items()
        },
        "creators": creators,
        "generators": generators,
    }


EVAL_STEPS = 150  # small enough that a share of the calls runs out


def arg_text(rng, ty, cu, depth: int = 0) -> str:
    """A literal of type ty where it is a base type, a tuple or a union;
    any literal otherwise."""
    match ty:
        case TCon("int"):
            return int_text(rng)
        case TCon("bool"):
            return rng.choice(["true", "false"])
        case TCon("string"):
            return '"s"'
        case TTuple(items):
            return "(" + ", ".join(arg_text(rng, t, cu, depth) for t in items) + ")"
        case TCon(name):
            cons = [(c, args) for c, (u, args) in cu.constructors.items() if u == name]
            if cons:
                inner = [c for c in cons if c[1]]
                if depth < 6 and inner and rng.random() < 0.75:
                    con, args = rng.choice(inner)
                    items = [arg_text(rng, t, cu, depth + 1) for t in args]
                    return f"{con} ({', '.join(items)})"
                return rng.choice([c for c, args in cons if not args] or [int_text(rng)])
    return rng.choice([int_text(rng), "true", "(3, 4)"])


def int_text(rng) -> str:
    n = rng.randint(-2, 12)
    return str(n) if n >= 0 else f"0 - {-n}"  # no negative literals


def calls_of(rng, cu, per_method: int) -> list[str]:
    """Seeded calls of every computational method of every collection."""
    out = []
    for cname in cu.collections:
        gens = {
            d.name: d.gen
            for d in cu.plans[cu.extractions[cname].species].create.locals
            if d.gen is not None
        }
        for m, logical in cu.extractions[cname].methods:
            if logical:
                continue
            gen = gens[m]
            gp = cu.plans[gen.species].generators[gen.method]
            for _ in range(per_method if gp.value_params else 1):
                args = [arg_text(rng, t, cu) for _, t in gp.value_params]
                out.append(f"{cname}!{m}" + (f" ({', '.join(args)})" if args else ""))
    return out


def outcome(run, steps):
    """("value", text, steps) or (kind, message, steps) for one run."""
    try:
        text = run()
    except (EvalFailure, oracles.Failure) as err:
        return (err.kind, err.message, steps())
    return ("value", text, steps())


PEANO = """
type nat_t = | Zero | Succ (nat_t) ;;
type tree_t = | Leaf | Node (tree_t, int, tree_t) ;;

species Peano =
  representation = int ;
  let rec build (n : int, acc : nat_t) : nat_t =
    if n <0x 1 then acc else build (n - 1, Succ (acc)) ;
  let rec count (v : nat_t, acc : int) : int =
    match v with | Zero -> acc | Succ (p) -> count (p, acc + 1) ;
  let rec height (v : nat_t) : int =
    match v with | Zero -> 0 | Succ (p) -> 1 + height (p) ;
  let size (n : int) : int = count (build (n, Zero), 0) ;
  let rec total (t : tree_t) : int =
    match t with
    | Leaf -> 0
    | Node (Leaf, x, r) -> x + total (r)
    | Node (l, x, _) -> total (l) - x ;
  let swap (p : int * bool) : bool * int = match p with | (x, y) -> (y, x) ;
  let one (v : nat_t) : bool = match v with | Succ (Zero) -> true | _ -> false ;
  let add (x : int, y : int) : int = x + y ;
  let inc (x : int) : int -> int = add (x) ;
  let twice (x : int) : int = inc (x, x) ;
  let thrice (x : int) : int = x + inc (x, x) ;
  let same (x : int) : bool = inc (x) = add (x) ;
  let two : int = match Succ (Succ (Zero)) with | Succ (p) -> 1 + height (p) | _ -> 0 ;
end ;;

collection Pe = implement Peano ;;
collection Pe2 = implement Peano ;;
"""


def run_eval_suite(cus, per_method: int, depth_limit: int) -> Counter:
    """Each call's value or failure, and its step count, against the
    reference evaluator; counts the outcomes by kind."""
    rng = random.Random(SEED + 2)
    kinds: Counter = Counter()
    for cu in cus:
        plain = plain_unit(cu)
        interp = Interpreter.__new__(Interpreter)  # steps stay readable if
        oracle = oracles.Evaluator.__new__(oracles.Evaluator)  # a build fails
        got = outcome(lambda: Interpreter.__init__(interp, cu, EVAL_STEPS), lambda: interp.steps)
        want = outcome(
            lambda: oracles.Evaluator.__init__(oracle, plain, EVAL_STEPS, depth_limit),
            lambda: oracle.steps,
        )
        assert got == want, plain["collections"]
        if got[0] != "value":
            continue
        built = interp.steps
        for call in calls_of(rng, cu, per_method):
            expr = parse_expr_text(call)
            interp.steps = oracle.steps = built
            got = outcome(
                lambda: format_value(interp.eval(expr, Scope())), lambda: interp.steps
            )
            want = outcome(
                lambda: oracles.show(oracle.eval(plain_expr(expr), {}, {})),
                lambda: oracle.steps,
            )
            assert got == want, call
            assert interp.depth == 0
            kinds[got[0]] += 1
    return kinds


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
    shadows = Unit(SHADOWS, compile_source(SHADOWS), [], [])
    assert run_carry_suite([shadows]) >= 10


def test_placed_order_equals_a_full_order(general_units, complete_units):
    units = [u.cu for u in general_units + complete_units]
    assert run_placed_order_suite(units) >= 1000
    extra = [compile_source(PRELUDE + FINISH_EDGES), compile_source(SHADOWS)]
    assert run_placed_order_suite(extra + data_units()) >= 50
    assert run_placed_order_suite(workload_units()) >= 5000


def test_extended_plans_equal_full_plans(general_units, complete_units):
    units = [u.cu for u in general_units + complete_units]
    assert run_plan_suite(units) >= 1000
    extra = [compile_source(PRELUDE + FINISH_EDGES), compile_source(SHADOWS)]
    extra += [compile_source(CROSS)]
    assert run_plan_suite(extra + data_units()) >= 50
    assert run_plan_suite(workload_units()) >= 5000


def test_an_heir_orders_only_what_it_changes(monkeypatch):
    calls = Counter()
    full = deps.order_methods

    def counted(nf, decl):
        calls[nf.name] += 1
        return full(nf, decl)

    monkeypatch.setattr(deps, "order_methods", counted)
    cu = compile_unit(workload_sources()[0])
    # only the species that inherit nothing are ordered from scratch
    assert set(calls) == {"Base", "L0"}
    assert len(cu.species) > 40


def test_an_heir_shares_what_it_does_not_change():
    cu = compile_source(SHARING)
    s, t, u, v = (cu.species[n] for n in "STUV")
    # renamed: a tree that mentions no renamed formal is shared
    assert t.methods["f"].body is s.methods["f"].body
    assert t.methods["t"].statement is s.methods["t"].statement
    assert t.methods["t"].proof is s.methods["t"].proof
    assert t.methods["g"].body is not s.methods["g"].body
    assert expr_to_source(t.methods["g"].body) == "Q!leq (y, w)"
    assert t.ancestor_args["S"] is not s.ancestor_args["S"]
    # passed as themselves: every ancestor entry is the parent's
    assert u.ancestor_args["S"] is s.ancestor_args["S"]
    assert v.ancestor_args["S"] is u.ancestor_args["S"]
    assert v.ancestor_args["U"] is u.ancestor_args["U"]
    # the parent's finished entries, and its creator's locals
    for m in ("f", "g", "t"):
        assert cu.deps["V"].methods[m] is cu.deps["U"].methods[m], m
    new = {ld.name: ld for ld in cu.plans["V"].create.locals}
    for ld in cu.plans["U"].create.locals[1:]:
        assert new[ld.name] is ld, ld.name
    assert cu.plans["V"].record.abstractions is cu.plans["U"].record.abstractions
    assert cu.plans["V"].create.outer is cu.plans["U"].create.outer
    # the parent's verdict on a proof nothing moved under
    w, x = cu.species["W"], cu.species["X"]
    assert [rp.method for rp in w.reverted] == ["t"]
    assert x.reverted[0] is w.reverted[0]


def test_checking_with_the_carry_agrees_with_a_full_retype(
    general_units, complete_units, monkeypatch
):
    generated = general_units + complete_units  # each compiled as it was made
    units = [[("<unit>", u.source)] for u in generated]
    carried = ["accepted"] * len(units)
    rng = random.Random(SEED + 2)
    narrow = [gen_source(rng, i, complete=False, narrow=True)[0] for i in range(N_NARROW)]
    others = [[("<unit>", src)] for src in narrow]
    others += [[("<unit>", PRELUDE + FINISH_EDGES)], [("<unit>", SHADOWS)]]
    others += workload_sources()
    units += others
    carried += [check_outcome(sources) for sources in others]
    kinds = run_acceptance_suite(units, carried, monkeypatch)
    assert kinds.total() >= 700
    # the heirs that sign an inherited let reach both verdicts
    assert kinds["accepted"] >= 500 and kinds["TypeMismatch"] >= 10, kinds
    signed = [src for src in narrow if "signature" in src.rsplit("species", 1)[1]]
    assert len(signed) >= 0.9 * N_NARROW


def test_carried_finish_equals_a_full_finish(general_units, complete_units):
    units = [u.cu for u in general_units + complete_units]
    assert run_finish_suite(units) >= 1000
    edges = compile_source(PRELUDE + FINISH_EDGES)
    assert run_finish_suite([edges]) >= 20
    assert run_finish_suite([compile_source(SHADOWS)]) >= 10
    assert run_finish_suite(data_units()) >= 10
    assert run_finish_suite(workload_units()) >= 5000


def test_the_lexer_agrees_with_the_reference():
    texts = [path.read_text() for path in sorted((ROOT / "tests" / "data").glob("*.fcl"))]
    for generate in benchmark_workloads().GENERATORS.values():
        texts += generate(1).files.values()
    seen = run_lexer_suite(texts, 100)
    assert seen["tokens"] + seen["unterminated comment"] >= 500
    for what in ("bullet", "<0x", "escape", "crlf", "nested comment",
                 "unterminated comment", "unterminated string", "unexpected character"):
        assert seen[what] >= 5, what


def test_names_are_tagged_where_they_are_written(general_units, complete_units):
    units = [(u.source, u.cu) for u in general_units + complete_units]
    assert run_scope_suite(units) >= 1000
    units = data_pairs() + [compiled(PRELUDE + FINISH_EDGES)]
    assert run_scope_suite(units) >= 50
    assert run_scope_suite([compiled(CAPTURES)]) >= 15
    assert run_scope_suite([compiled(SHADOWS)]) >= 15


def test_evaluator_agrees_with_the_reference(complete_units, monkeypatch):
    cus = [u.cu for u in complete_units] + data_units()
    cus += [compile_source(src) for src in (COUNTER, PEANO, CAPTURES, CROSS, SHADOWS)]
    kinds = run_eval_suite(cus, 3, evaluator.MAX_DEPTH)
    assert kinds.total() >= 1000
    assert kinds["value"] and kinds["StepLimit"] and kinds["EvalError"]
    # a depth limit this low fails every nested call past the second, so
    # any disagreement about which calls are in tail position shows
    monkeypatch.setattr(evaluator, "MAX_DEPTH", 2)
    kinds = run_eval_suite(cus, 3, 2)
    assert kinds["value"] and kinds["DepthLimit"]
