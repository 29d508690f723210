"""Dependency calculus: decl/def sets, universes, minimal environments."""

import pytest

from conftest import data

from focml import compile_files, compile_source
from focml.deps import type_level_refs
from focml.errors import CYCLE, PROOF, UNKNOWN, CompileError

import oracles


def raw_sets(cu, sname):
    """Syntactic inputs in oracle form: decl, def and type-level deps."""
    nf = cu.species[sname]
    decl = {n: set(md.decl) for n, md in nf.deps.items()}
    defs = {n: set(md.defs) for n, md in nf.deps.items()}
    tdep = {n: type_level_refs(nf.methods[n]) for n in nf.methods}
    return nf, decl, defs, tdep


# ---------------------------------------------------------------------------
# Global order


def test_global_orders(example_cu):
    assert example_cu.species["TheInt"].order == [
        "id", "eq", "fromInt", "lt", "gt", "ltNotGt",
    ]
    assert example_cu.species["IsIn"].order == [
        "filter", "getStatus", "getValue", "lowMin",
    ]


@pytest.mark.parametrize("sname", ["Data", "OrdData", "TheInt", "IsIn"])
def test_order_is_topological_on_decl_deps(example_cu, sname):
    nf, decl, _, _ = raw_sets(example_cu, sname)
    edges = {(y, x) for x, ys in decl.items() for y in ys}
    assert oracles.is_topological(nf.order, edges)
    assert sorted(nf.order) == sorted(nf.methods)


def test_redefinition_keeps_slot_first_definition_moves(example_cu):
    # id was redefined by TheInt yet keeps Data's early slot; fromInt got
    # its first body only in TheInt, so it sorts with TheInt's own methods
    assert example_cu.species["Data"].order == ["fromInt", "id"]
    ti = example_cu.species["TheInt"].order
    assert ti.index("id") == 0
    assert ti.index("fromInt") > ti.index("eq")


# ---------------------------------------------------------------------------
# Decl and def sets on the running example


def test_decl_sets(example_cu):
    _, decl, _, _ = raw_sets(example_cu, "TheInt")
    assert decl["gt"] == {"lt", "eq"}
    assert decl["ltNotGt"] == {"lt", "gt"}
    assert decl["id"] == set()


def test_def_sets(example_cu):
    _, _, defs, _ = raw_sets(example_cu, "TheInt")
    assert defs["ltNotGt"] == {"gt"}
    assert defs["gt"] == set()  # only proofs carry definition deps
    _, _, defs, _ = raw_sets(example_cu, "IsIn")
    assert defs["lowMin"] == {"filter", "getStatus"}


def test_def_closure_matches_oracle(example_cu):
    for sname in example_cu.species:
        nf, _, defs, _ = raw_sets(example_cu, sname)
        for x, md in nf.deps.items():
            assert md.closure == oracles.def_closure(defs, x), (sname, x)


# ---------------------------------------------------------------------------
# Universe and minimal environment


def test_universe_values(example_cu):
    nf = example_cu.species["TheInt"]
    assert nf.deps["ltNotGt"].universe == {"eq", "lt", "gt"}
    assert nf.deps["gt"].universe == {"lt", "eq"}
    assert nf.deps["id"].universe == set()


def test_universe_matches_oracle(example_cu):
    for sname in example_cu.species:
        nf, decl, defs, tdep = raw_sets(example_cu, sname)
        for x, md in nf.deps.items():
            want = oracles.universe(decl, defs, tdep, x)
            assert md.universe == want, (sname, x)


def test_min_env_values(example_cu):
    nf = example_cu.species["TheInt"]
    assert nf.deps["ltNotGt"].min_env == [
        ("eq", "TypeOnly"), ("lt", "TypeOnly"), ("gt", "TypeAndBody"),
    ]
    nf = example_cu.species["IsIn"]
    assert nf.deps["lowMin"].min_env == [
        ("filter", "TypeAndBody"), ("getStatus", "TypeAndBody"),
    ]


def test_min_env_matches_oracle(example_cu):
    for sname in example_cu.species:
        nf, decl, defs, tdep = raw_sets(example_cu, sname)
        for x, md in nf.deps.items():
            want = oracles.min_env(nf.order, decl, defs, tdep, x)
            got = [(y, keep == "TypeAndBody") for y, keep in md.min_env]
            assert got == want, (sname, x)


def test_min_env_partitions_universe(example_cu):
    for sname, nf in example_cu.species.items():
        for x, md in nf.deps.items():
            names = [y for y, _ in md.min_env]
            assert set(names) == md.universe
            for y, keep in md.min_env:
                assert (keep == "TypeAndBody") == (y in md.closure)


# ---------------------------------------------------------------------------
# Carrier


def test_carrier_keep(example_cu):
    ti = example_cu.species["TheInt"]
    assert ti.deps["lt"].carrier_keep == "TypeAndBody"  # unifies Self=int
    assert ti.deps["gt"].carrier_keep == "TypeOnly"
    assert ti.deps["ltNotGt"].carrier_keep == "TypeOnly"
    ii = example_cu.species["IsIn"]
    assert ii.deps["filter"].carrier_keep == "TypeAndBody"
    assert ii.deps["lowMin"].carrier_keep == "TypeAndBody"


def test_abstract_species_methods_stay_abstract(example_cu):
    od = example_cu.species["OrdData"]
    assert od.deps["gt"].carrier_keep == "TypeOnly"
    assert od.deps["id"].carrier_keep is None


# ---------------------------------------------------------------------------
# Parameter dependencies


def test_param_deps_values(example_cu):
    nf = example_cu.species["IsIn"]
    assert nf.deps["filter"].param_deps["V"] == ["lt", "gt"]
    assert nf.deps["lowMin"].param_deps["V"] == ["lt", "gt", "ltNotGt"]
    assert nf.deps["getValue"].param_deps["V"] == []


def test_param_deps_are_closed(example_cu):
    """A second [Close] pass adds nothing."""
    iface = example_cu.species["OrdData"]
    tdeps = {n: type_level_refs(mi) for n, mi in iface.methods.items()}
    nf = example_cu.species["IsIn"]
    for md in nf.deps.values():
        got = set(md.param_deps.get("V", []))
        assert oracles.close_param_deps(got, tdeps) == got


def test_param_carrier(example_cu):
    nf = example_cu.species["IsIn"]
    assert nf.deps["filter"].param_carrier["V"]
    assert nf.deps["getValue"].param_carrier["V"]  # Self -> V
    assert nf.deps["lowMin"].param_carrier["V"]
    # getStatus never names V, but its body opens the representation,
    # whose type V * statut_t does
    assert nf.deps["getStatus"].param_carrier["V"]


def test_param_carrier_not_lifted_when_unused():
    src = """
species A = signature one : Self ; end ;;
species P (V is A) =
  representation = int ;
  let f (x : int) : int = x ;
  let g (x : Self) : V = V!one ;
end ;;
"""
    cu = compile_source(src)
    nf = cu.species["P"]
    assert not nf.deps["f"].param_carrier["V"]
    assert nf.deps["g"].param_carrier["V"]


def test_entity_params_used(example_cu):
    nf = example_cu.species["IsIn"]
    assert nf.deps["filter"].entity_used == ["minv", "maxv"]
    # lowMin reaches maxv through the unfolding of filter
    assert nf.deps["lowMin"].entity_used == ["minv", "maxv"]
    assert nf.deps["getValue"].entity_used == []


# ---------------------------------------------------------------------------
# Rejections


def test_mutual_recursion_without_signatures_is_cyclic():
    with pytest.raises(CompileError) as ei:
        compile_files(data("evenodd.fcl"))
    assert ei.value.kind == CYCLE
    assert len(ei.value.witness) == 2
    assert set(ei.value.witness) == {"even", "odd"}


def test_cycle_witness_agrees_with_oracle():
    deps = {"even": {"odd"}, "odd": {"even"}}
    cyc = oracles.find_cycle(deps)
    assert cyc is not None and len(cyc) == 2


def test_unfolding_unknown_method_fails():
    src = """
species A =
  representation = int ;
  let f (x : int) : int = x ;
  property p : all x : int, f (x) = f (x) ;
  proof of p = by definition of g ;
end ;;
"""
    with pytest.raises(CompileError) as ei:
        compile_source(src)
    assert ei.value.kind == UNKNOWN


def test_unfolding_a_property_fails():
    src = """
species A =
  representation = int ;
  let f (x : int) : int = x ;
  property q : all x : int, f (x) = f (x) ;
  property p : all x : int, f (x) = f (x) ;
  proof of p = by definition of q ;
end ;;
"""
    with pytest.raises(CompileError) as ei:
        compile_source(src)
    assert ei.value.kind == PROOF


def test_citing_a_function_as_property_fails():
    src = """
species A =
  representation = int ;
  let f (x : int) : int = x ;
  property p : all x : int, f (x) = f (x) ;
  proof of p = by property f ;
end ;;
"""
    with pytest.raises(CompileError) as ei:
        compile_source(src)
    assert ei.value.kind == PROOF


def test_builtin_facts_are_not_method_deps(example_cu):
    # TheInt's proof cites the ambient int_ltNotGt fact; it must not leak
    # into the dependency sets
    nf = example_cu.species["TheInt"]
    assert "int_ltNotGt" not in nf.deps["ltNotGt"].decl
    assert nf.deps["ltNotGt"].universe == {"eq", "lt", "gt"}


@pytest.mark.parametrize(
    "fact, message",
    [
        ("Zzz!refl", "unknown collection Zzz"),
        ("P!nosuch", "P has no method nosuch"),
        ("P!refl, Zzz!refl", "unknown collection Zzz"),
    ],
)
def test_a_collection_fact_names_a_collection_and_its_method(fact, message):
    src = f"""
species Base =
  representation = int ;
  property refl : all n : int, n = n ;
  proof of refl = admitted ;
end ;;
collection P = implement Base ;;
species B =
  representation = int ;
  theorem t : all n : int, n = n
  proof = by property {fact} ;
end ;;
"""
    with pytest.raises(CompileError) as ei:
        compile_source(src)
    assert (ei.value.kind, ei.value.message) == (UNKNOWN, message)
    assert (ei.value.pos.line, ei.value.pos.col) == (11, 14)
    compile_source(src.replace(fact, "P!refl"))  # a property of the collection


@pytest.mark.parametrize(
    "src, message, line, col",
    [
        pytest.param(  # a fact's property (`deps._validated_property`)
            "species A = representation = int ; "
            "theorem t : all n : int, n = n proof = by property nosuch ; end ;;",
            "unknown property nosuch", 1, 78, id="property"),
        pytest.param(  # a fact's parameter method (`deps._param_deps`)
            "species B = representation = int ; property refl : all n : int, n = n ; end ;;\n"
            "species A (P is B) = representation = int ; "
            "theorem t : all n : int, n = n proof = by property P!nosuch ; end ;;",
            "P has no method nosuch", 2, 53, id="parameter method"),
        pytest.param(  # a body's collection (`resolve.resolve`)
            "species A = representation = int ; let f (x : int) : int = Zz!g (x) ; end ;;",
            "unknown collection Zz", 1, 60, id="collection"),
        pytest.param(  # a pattern's constructor (`typecheck.type_pattern`)
            "type u = | A ;;\n"
            "species S = representation = int ; let f (x : u) : int = match x with | B -> 1 ; end ;;",
            "unknown constructor B", 2, 73, id="constructor"),
        pytest.param(  # an entity parameter's carrier (`driver._species_env`)
            "species S (v in Q) = representation = int ; end ;;",
            "entity parameter v needs a preceding collection parameter, got Q", 1, 12,
            id="entity carrier"),
    ],
)
def test_an_unknown_name_is_a_diagnostic_where_it_is_used(src, message, line, col):
    with pytest.raises(CompileError) as ei:
        compile_source(src)
    assert (ei.value.kind, ei.value.message) == (UNKNOWN, message)
    assert (ei.value.pos.line, ei.value.pos.col) == (line, col)
