"""Emission plans: generator lifts, record types, creators, extractions."""

import sys

import pytest

from conftest import data
from oracles import plain_arg

from focml import compile_files, compile_source, emit_comp, emit_logical, eval_call
from focml.driver import plan_unit
from focml.ast import Qual
from focml.errors import on_deep_stack
from focml.hierarchy import MethodInfo
from focml.pretty import type_to_source


def lift_shape(l):
    tag = plain_arg(l.tag)
    if l.bind_gen is not None:
        return (tag, "bind_gen")
    if l.bind_type is not None:
        return (tag, f":= {type_to_source(l.bind_type)}")
    if l.is_set:
        return (tag, "Set")
    if l.statement is not None:
        return (tag, "statement")
    return (tag, type_to_source(l.ty))


# ---------------------------------------------------------------------------
# Plans on demand


def test_an_unplanned_unit_has_no_plans_to_read(example_cu):
    # `check` never plans: reading plans it has not built fails, and can
    # never be an empty dict an emitter would write as a unit of no species
    cu = compile_files(data("example.fcl"))
    for name in ("plans", "extractions"):
        with pytest.raises(AttributeError, match=name):
            getattr(cu, name)
    assert emit_logical(cu) == emit_logical(example_cu)  # the emitter plans it
    plans, extractions = cu.plans, cu.extractions
    assert set(plans) == set(cu.species) and set(extractions) == set(cu.collections)
    assert plan_unit(cu) is cu and (cu.plans, cu.extractions) == (plans, extractions)
    assert cu.plans is plans  # planned once


# ---------------------------------------------------------------------------
# Method generators


def test_fully_concrete_method_needs_no_lifts(example_cu):
    gen = example_cu.plans["TheInt"].generators["id"]
    assert gen.lifts == []
    assert gen.kind == "let"


def test_body_that_opens_rep_binds_the_carrier(example_cu):
    gen = example_cu.plans["TheInt"].generators["lt"]
    assert [lift_shape(l) for l in gen.lifts] == [(("self_carrier",), ":= int")]


def test_theorem_generator_abstracts_its_minimal_environment(example_cu):
    gen = example_cu.plans["TheInt"].generators["ltNotGt"]
    assert [lift_shape(l) for l in gen.lifts] == [
        (("self_carrier",), "Set"),
        (("self_method", "eq"), "Self -> Self -> bool"),
        (("self_method", "lt"), "Self -> Self -> bool"),
        (("self_method", "gt"), "bind_gen"),
    ]
    bound = gen.lifts[-1].bind_gen
    # gt was never redefined, so its generator lives in OrdData
    assert (bound.species, bound.method) == ("OrdData", "gt")
    assert [plain_arg(a) for a in bound.args] == [
        ("self_carrier",), ("self_method", "eq"), ("self_method", "lt"),
    ]


def test_parameterised_generator_lifts_param_deps_then_entities(example_cu):
    gen = example_cu.plans["IsIn"].generators["lowMin"]
    assert [lift_shape(l) for l in gen.lifts] == [
        (("param_carrier", "V"), "Set"),
        (("param_method", "V", "lt"), "V -> V -> bool"),
        (("param_method", "V", "gt"), "V -> V -> bool"),
        (("param_method", "V", "ltNotGt"), "statement"),
        (("param_entity", "minv"), "V"),
        (("param_entity", "maxv"), "V"),
        (("self_carrier",), ":= V * statut_t"),
        (("self_method", "filter"), "bind_gen"),
        (("self_method", "getStatus"), "bind_gen"),
    ]


def test_unneeded_dependencies_are_not_lifted(example_cu):
    gen = example_cu.plans["IsIn"].generators["getStatus"]
    assert [plain_arg(l.tag) for l in gen.lifts] == [("param_carrier", "V"), ("self_carrier",)]


def test_generator_lifts_are_well_scoped(example_cu):
    """Every bound generator argument names an earlier lift."""
    for plan in example_cu.plans.values():
        for gen in plan.generators.values():
            seen = set()
            for l in gen.lifts:
                if l.bind_gen is not None:
                    for a in l.bind_gen.args:
                        assert plain_arg(a) in seen, (gen.method, a)
                seen.add(plain_arg(l.tag))


def test_admitted_proof_is_flagged(extended_cu):
    gen = extended_cu.plans["IsInE"].generators["lowMin"]
    assert gen.kind == "theorem"
    assert gen.admitted


# ---------------------------------------------------------------------------
# Record types


def test_record_packs_interface_in_order(example_cu):
    rec = example_cu.plans["TheInt"].record
    assert rec is not None
    assert rec.abstractions == []
    assert rec.fields == ["id", "eq", "fromInt", "lt", "gt", "ltNotGt"]


def test_record_abstracts_what_statements_mention(example_cu):
    rec = example_cu.plans["IsIn"].record
    assert [lift_shape(l) for l in rec.abstractions] == [
        (("param_carrier", "V"), "Set"),
        (("param_entity", "minv"), "V"),
        (("param_entity", "maxv"), "V"),
        (("param_method", "V", "gt"), "V -> V -> bool"),
    ]


def test_incomplete_species_gets_no_record_or_creator(example_cu):
    plan = example_cu.plans["OrdData"]
    assert plan.record is None
    assert plan.create is None
    # only gt is defined here; id already has a generator in Data
    assert set(plan.generators) == {"gt"}
    assert set(example_cu.plans["Data"].generators) == {"id"}


# ---------------------------------------------------------------------------
# Creators


def test_creator_instantiates_generators_in_order(example_cu):
    create = example_cu.plans["TheInt"].create
    assert create is not None
    assert create.outer == []
    assert [d.name for d in create.locals] == [
        "rep", "id", "eq", "fromInt", "lt", "gt", "ltNotGt",
    ]
    assert create.locals[0].gen is None  # rep is bound directly


def test_creator_uses_the_generator_of_each_origin(example_cu):
    create = example_cu.plans["TheInt"].create
    origin = {d.name: d.gen.species for d in create.locals if d.gen}
    assert origin["gt"] == "OrdData"
    assert origin["lt"] == "TheInt"
    assert origin["ltNotGt"] == "TheInt"


# `Cross` inherits `Two` twice, through heirs that pass the parameters in
# opposite orders; its `onP` is the first inherit's copy, which reads `Q`.
CROSS = """
species Ord = signature get : Self -> int ; signature mk : int -> Self ; end ;;
species Id = inherit Ord ; representation = int ;
  let get (x : Self) : int = x ; let mk (x : int) : Self = x ; end ;;
species Shift = inherit Ord ; representation = int ;
  let get (x : Self) : int = x + 100 ; let mk (x : int) : Self = x ; end ;;
species Two (P is Ord, Q is Ord) =
  representation = int ;
  let onP (x : int) : int = P!get (P!mk (x)) ;
end ;;
species Right (P is Ord, Q is Ord) = inherit Two (P, Q) ; end ;;
species Left (P is Ord, Q is Ord) = inherit Two (P, Q) ; end ;;
species Cross (P is Ord, Q is Ord) = inherit Right (Q, P), Left (P, Q) ; end ;;
collection I = implement Id ;;
collection S = implement Shift ;;
collection X = implement Cross (I, S) ;;
"""


def test_a_diamond_creator_passes_the_arguments_of_the_copy_it_keeps():
    cu = compile_source(CROSS)
    assert cu.species["Cross"].deps["onP"].param_deps == {"P": [], "Q": ["get", "mk"]}
    assert "    let local_onP = Two.onP _p_Q_get _p_Q_mk in" in emit_comp(cu).splitlines()
    assert eval_call(cu, "X!onP (3)") == "103"


def test_creator_outer_params_cover_all_param_deps(example_cu):
    create = example_cu.plans["IsIn"].create
    assert [plain_arg(l.tag) for l in create.outer] == [
        ("param_carrier", "V"), ("param_entity", "minv"), ("param_entity", "maxv"),
        ("param_method", "V", "lt"), ("param_method", "V", "gt"),
        ("param_method", "V", "ltNotGt"),
    ]


# ---------------------------------------------------------------------------
# Collection extractions


def test_extraction_without_params(example_cu):
    ep = example_cu.extractions["IntC"]
    assert (ep.species, ep.create.species, ep.create.method) == (
        "TheInt", "TheInt", "collection_create",
    )
    assert ep.create.args == []
    assert type_to_source(ep.carrier) == "int"
    record = example_cu.plans[ep.species].record  # what the collection projects
    assert record.abstractions == []
    assert record.fields == ["id", "eq", "fromInt", "lt", "gt", "ltNotGt"]
    assert record.comp_fields == ["id", "eq", "fromInt", "lt", "gt"]


def test_extraction_resolves_params_to_collections(example_cu):
    ep = example_cu.extractions["In_5_10"]
    assert ep.species == "IsIn"
    assert type_to_source(ep.carrier) == "IntC * statut_t"
    assert len(example_cu.plans[ep.species].record.abstractions) == 4
    outer = example_cu.plans["IsIn"].create.outer
    args = [plain_arg(a, l) for a, l in zip(ep.create.args, outer, strict=True)]
    assert [a[0] for a in args] == [
        "coll_carrier", "entity_expr", "entity_expr",
        "coll_method", "coll_method", "coll_method",
    ]
    assert args[0] == ("coll_carrier", "IntC")
    assert [a[2] for a in args[3:]] == ["lt", "gt", "ltNotGt"]


def test_two_collections_of_one_species_share_the_plan(example_cu):
    a = example_cu.extractions["In_5_10"]
    b = example_cu.extractions["In_1_8"]
    assert a.species == b.species == "IsIn"
    assert a.create.args[0] == b.create.args[0]
    # only the entity arguments differ
    assert a.create.args[1] != b.create.args[1]


# ---------------------------------------------------------------------------
# Logical / computational split


def test_atoms_classify_by_content(example_cu):
    # TheInt's creator applies OrdData's gt to the carrier, eq and lt
    gt = next(
        d.gen for d in example_cu.plans["TheInt"].create.locals if d.name == "gt"
    )
    assert ("self_carrier",) in [plain_arg(a) for a in gt.args]
    assert ("self_carrier",) not in [plain_arg(a) for a in gt.comp_args]
    assert ("self_method", "lt") in [plain_arg(a) for a in gt.comp_args]
    # In_5_10 receives the methods of IntC, a collection of TheInt
    app = example_cu.extractions["In_5_10"].create
    args = [plain_arg(a) for a in app.args if isinstance(a, Qual)]
    comp_args = [plain_arg(a) for a in app.comp_args if isinstance(a, Qual)]
    assert ("coll_method", "IntC", "ltNotGt") in args
    assert ("coll_method", "IntC", "ltNotGt") not in comp_args
    assert ("coll_method", "IntC", "lt") in comp_args


def test_record_fields_and_creator_locals_classify_by_kind(example_cu):
    plan = example_cu.plans["IsIn"]
    assert plan.record.comp_fields == ["filter", "getStatus", "getValue"]
    logical = [(d.name, d.logical) for d in plan.create.locals]
    assert logical == [
        ("rep", False), ("filter", False), ("getStatus", False),
        ("getValue", False), ("lowMin", True),
    ]


def test_the_back_ends_read_erasure_from_the_plans():
    # counted calls, not time: once a unit is planned, the computational
    # target and the evaluator ask no method record whether it is logical
    from test_properties import benchmark_workloads

    chain = benchmark_workloads().chain(1)
    units = [(compile_source(chain.files["chain.fcl"]), *chain.calls[0])]
    units.append((compile_files(data("example.fcl")), "In_5_10!filter (12)", "(10, Too_high)"))
    is_logical = MethodInfo.is_logical.fget.__code__
    for cu, call, value in units:
        plan_unit(cu)
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is is_logical

        def run() -> str:
            sys.setprofile(profile)  # for this thread, the deep stack's
            try:
                emit_comp(cu)
                return eval_call(cu, call)
            finally:
                sys.setprofile(None)

        assert on_deep_stack(run, AssertionError()) == value
        assert calls == 0, call


def test_lifts_classify_by_content(example_cu):
    gen = example_cu.plans["IsIn"].generators["lowMin"]
    logical = [plain_arg(l.tag) for l in gen.lifts if l.logical]
    assert logical == [
        ("param_carrier", "V"), ("param_method", "V", "ltNotGt"), ("self_carrier",),
    ]
