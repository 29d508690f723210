"""Emission plans: generator lifts, record types, creators, extractions."""

from focml.pretty import type_to_source


def lift_shape(l):
    if l.bind_gen is not None:
        return (l.name, "bind_gen")
    if l.bind_type is not None:
        return (l.name, f":= {type_to_source(l.bind_type)}")
    if l.is_set:
        return (l.name, "Set")
    if l.statement is not None:
        return (l.name, "statement")
    return (l.name, type_to_source(l.ty))


# ---------------------------------------------------------------------------
# Method generators


def test_fully_concrete_method_needs_no_lifts(example_cu):
    gen = example_cu.plans["TheInt"].generators["id"]
    assert gen.lifts == []
    assert gen.kind == "let"


def test_body_that_opens_rep_binds_the_carrier(example_cu):
    gen = example_cu.plans["TheInt"].generators["lt"]
    assert [lift_shape(l) for l in gen.lifts] == [("abst_T", ":= int")]


def test_theorem_generator_abstracts_its_minimal_environment(example_cu):
    gen = example_cu.plans["TheInt"].generators["ltNotGt"]
    assert [lift_shape(l) for l in gen.lifts] == [
        ("abst_T", "Set"),
        ("abst_eq", "Self -> Self -> bool"),
        ("abst_lt", "Self -> Self -> bool"),
        ("abst_gt", "bind_gen"),
    ]
    bound = gen.lifts[-1].bind_gen
    # gt was never redefined, so its generator lives in OrdData
    assert (bound.species, bound.method) == ("OrdData", "gt")
    assert bound.args == [
        ("self_carrier",), ("self_method", "eq"), ("self_method", "lt"),
    ]


def test_parameterised_generator_lifts_param_deps_then_entities(example_cu):
    gen = example_cu.plans["IsIn"].generators["lowMin"]
    assert [lift_shape(l) for l in gen.lifts] == [
        ("_p_V_T", "Set"),
        ("_p_V_lt", "V -> V -> bool"),
        ("_p_V_gt", "V -> V -> bool"),
        ("_p_V_ltNotGt", "statement"),
        ("_p_minv_minv", "V"),
        ("_p_maxv_maxv", "V"),
        ("abst_T", ":= V * statut_t"),
        ("abst_filter", "bind_gen"),
        ("abst_getStatus", "bind_gen"),
    ]


def test_unneeded_dependencies_are_not_lifted(example_cu):
    gen = example_cu.plans["IsIn"].generators["getStatus"]
    assert [l.name for l in gen.lifts] == ["_p_V_T", "abst_T"]


def required_tag(atom):
    kind = atom[0]
    if kind == "entity_expr":
        return ("param_entity", atom[1].name)
    return atom


def test_generator_lifts_are_well_scoped(example_cu):
    """Every bound generator argument names an earlier lift."""
    for plan in example_cu.plans.values():
        for gen in plan.generators.values():
            seen = set()
            for l in gen.lifts:
                if l.bind_gen is not None:
                    for a in l.bind_gen.args:
                        assert required_tag(a) in seen, (gen.method, a)
                seen.add(l.tag)


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
        ("V_T", "Set"),
        ("_p_minv_minv", "V"),
        ("_p_maxv_maxv", "V"),
        ("_p_V_gt", "V -> V -> bool"),
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


def test_creator_outer_params_cover_all_param_deps(example_cu):
    create = example_cu.plans["IsIn"].create
    assert [l.name for l in create.outer] == [
        "_p_V_T", "_p_minv_minv", "_p_maxv_maxv",
        "_p_V_lt", "_p_V_gt", "_p_V_ltNotGt",
    ]


def test_creator_record_args_follow_the_record(example_cu):
    plan = example_cu.plans["IsIn"]
    want = [l.tag for l in plan.record.abstractions]
    want += [("self_carrier",)]
    want += [("self_method", m) for m in plan.record.fields]
    assert plan.create.record_args == want


# ---------------------------------------------------------------------------
# Collection extractions


def test_extraction_without_params(example_cu):
    ep = example_cu.extractions["IntC"]
    assert (ep.species, ep.create_args, ep.record_params) == ("TheInt", [], 0)
    assert type_to_source(ep.carrier) == "int"
    assert ep.methods == [
        ("id", False), ("eq", False), ("fromInt", False),
        ("lt", False), ("gt", False), ("ltNotGt", True),
    ]


def test_extraction_resolves_params_to_collections(example_cu):
    ep = example_cu.extractions["In_5_10"]
    assert ep.species == "IsIn"
    assert type_to_source(ep.carrier) == "IntC * statut_t"
    assert ep.record_params == 4
    kinds = [a[0] for a in ep.create_args]
    assert kinds == [
        "coll_carrier", "entity_expr", "entity_expr",
        "coll_method", "coll_method", "coll_method",
    ]
    assert ep.create_args[0] == ("coll_carrier", "IntC")
    assert [a[2] for a in ep.create_args[3:]] == ["lt", "gt", "ltNotGt"]


def test_two_collections_of_one_species_share_the_plan(example_cu):
    a = example_cu.extractions["In_5_10"]
    b = example_cu.extractions["In_1_8"]
    assert a.species == b.species == "IsIn"
    assert a.methods == b.methods
    assert a.create_args[0] == b.create_args[0]
    # only the entity arguments differ
    assert a.create_args[1] != b.create_args[1]


# ---------------------------------------------------------------------------
# Logical / computational split


def test_atoms_classify_by_content(example_cu):
    # TheInt's creator applies OrdData's gt to the carrier, eq and lt
    gt = next(
        d.gen for d in example_cu.plans["TheInt"].create.locals if d.name == "gt"
    )
    assert ("self_carrier",) in gt.args
    assert ("self_carrier",) not in gt.comp_args
    assert ("self_method", "lt") in gt.comp_args
    # In_5_10 receives the methods of IntC, a collection of TheInt
    ep = example_cu.extractions["In_5_10"]
    assert ("coll_method", "IntC", "ltNotGt") in ep.create_args
    assert ("coll_method", "IntC", "ltNotGt") not in ep.comp_args
    assert ("coll_method", "IntC", "lt") in ep.comp_args


def test_lifts_classify_by_content(example_cu):
    gen = example_cu.plans["IsIn"].generators["lowMin"]
    logical = [l.name for l in gen.lifts if l.logical]
    assert logical == ["_p_V_T", "_p_V_ltNotGt", "abst_T"]
