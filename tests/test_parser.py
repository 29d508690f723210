"""Surface syntax: parsing, printing round-trips, and parse-time checks."""

from __future__ import annotations

import pytest

from focml import compile_source, eval_call
from focml.ast import CollectionDecl, SpeciesDecl, UnionTypeDecl
from focml.driver import doc_text, render_deps_report
from focml.emit import emit_comp, emit_logical
from focml.errors import CompileError
from focml.parser import parse_expr_text, parse_source, parse_type_text
from focml.pretty import expr_to_source, type_to_source

from conftest import DATA
from oracles import unit_to_source


def parse_file(name: str):
    path = DATA / name
    return parse_source(path.read_text(), str(path))


def test_example_parses_into_expected_decls():
    unit = parse_file("example.fcl")
    kinds = [type(d).__name__ for d in unit.decls]
    assert kinds == [
        "SpeciesDecl",
        "SpeciesDecl",
        "SpeciesDecl",
        "UnionTypeDecl",
        "SpeciesDecl",
        "CollectionDecl",
        "CollectionDecl",
        "CollectionDecl",
    ]
    names = [d.name for d in unit.decls]
    assert names == [
        "Data", "OrdData", "TheInt", "statut_t", "IsIn",
        "IntC", "In_5_10", "In_1_8",
    ]


def test_species_params_and_inherits():
    unit = parse_file("example.fcl")
    isin = unit.species["IsIn"]
    assert [(p.name, p.kind) for p in isin.params] == [
        ("V", "is"), ("minv", "in"), ("maxv", "in"),
    ]
    assert isin.params[0].interface.name == "OrdData"
    assert isin.params[1].carrier == "V"
    theint = unit.species["TheInt"]
    assert [se.name for se in theint.inherits] == ["OrdData"]
    assert type_to_source(theint.representation) == "int"


def test_union_constructors():
    unit = parse_file("example.fcl")
    statut = unit.union_types["statut_t"]
    assert statut.constructors == [
        ("In_range", []), ("Too_low", []), ("Too_high", []),
    ]


@pytest.mark.parametrize(
    "name", ["example.fcl", "evenodd.fcl", "wrong.fcl", "isine.fcl", "isine_admitted.fcl"]
)
def test_print_parse_round_trip(name):
    # Positions are excluded from equality, so reparsing the printed form
    # must reproduce the same tree.
    unit = parse_file(name)
    printed = unit_to_source(unit)
    again = parse_source(printed, f"printed:{name}")
    assert again.decls == unit.decls


@pytest.mark.parametrize(
    "src",
    [
        "f (x, g (y))",
        "x + 1 - 2",
        "~~ (lt (x, y)) && ~~ (eq (x, y))",
        "if V!lt (x, minv) then (minv, Too_low) else (x, In_range)",
        'all x y : Self, lt (x, y) -> ~ gt (x, y)',
        "ex x : int, p (x) /\\ q (x)",
        "match s with | In_range -> 0 | Too_low -> 1 | Too_high -> 2",
        '"quoted \\"text\\""',
        "fst ((1, true))",
    ],
)
def test_expr_round_trip(src):
    e = parse_expr_text(src)
    assert parse_expr_text(expr_to_source(e)) == e


@pytest.mark.parametrize(
    "src",
    ["int", "Self", "int -> Self", "(V * statut_t)", "int -> int -> bool", "(int -> bool) -> V"],
)
def test_type_round_trip(src):
    t = parse_type_text(src)
    assert parse_type_text(type_to_source(t)) == t


def test_arrow_is_right_associative():
    t = parse_type_text("int -> int -> bool")
    assert type_to_source(t.res) == "int -> bool"


def test_quantifier_body_is_rejected_in_let():
    src = "species X = let f (x) = all y : int, y = y ; end ;;"
    with pytest.raises(CompileError) as e:
        parse_source(src)
    assert e.value.kind == "SyntaxError"
    assert "quantifier" in e.value.message


def test_formula_negation_is_rejected_in_let():
    src = "species X = let f (x) = ~ x ; end ;;"
    with pytest.raises(CompileError) as e:
        parse_source(src)
    assert "~~" in e.value.message


def test_equality_is_fine_in_let_bodies():
    # Boolean equality lives in both strata.
    src = "species X = let f (n) = if n = 0 then true else false ; end ;;"
    parse_source(src)


def test_duplicate_method_name_in_species():
    src = "species X = let f = 1 ; let f = 2 ; end ;;"
    with pytest.raises(CompileError) as e:
        parse_source(src)
    assert e.value.kind == "DuplicateName"


def test_duplicate_step_label():
    src = """
species X =
  property p : all x : int, x = x ;
  theorem t : all x : int, x = x
  proof =
    <1>1 prove true by property p
    <1>1 qed by property p ;
end ;;
"""
    with pytest.raises(CompileError) as e:
        parse_source(src)
    assert "duplicate step label" in e.value.message


def test_step_fact_must_name_closed_sibling():
    src = """
species X =
  theorem t : all x : int, x = x
  proof =
    <1>1 qed by step <1>9 ;
end ;;
"""
    with pytest.raises(CompileError) as e:
        parse_source(src)
    assert "sibling" in e.value.message


def test_step_list_must_end_in_qed():
    src = """
species X =
  property p : all x : int, x = x ;
  theorem t : all x : int, x = x
  proof =
    <1>1 prove true by property p ;
end ;;
"""
    with pytest.raises(CompileError) as e:
        parse_source(src)
    assert "qed" in e.value.message


def test_definition_fact_on_parameter_method_is_rejected():
    src = """
species A = signature f : Self -> Self ; end ;;
species X (P is A) =
  theorem t : all x : int, x = x
  proof = by definition of P!f ;
end ;;
"""
    with pytest.raises(CompileError) as e:
        parse_source(src)
    assert e.value.kind == "ProofError"


def test_proof_of_unknown_property():
    src = "species X = let f = 1 ; proof of g = admitted ; end ;;"
    with pytest.raises(CompileError) as e:
        compile_source(src)
    assert "unknown property" in e.value.message


def test_capitalized_hypothesis_names():
    unit = parse_file("example.fcl")
    lowmin = next(
        m for m in unit.species["IsIn"].methods if m.name == "lowMin"
    )
    step = lowmin.proof.steps[0]
    assert [h for h, _ in step.hyps] == ["H"]
