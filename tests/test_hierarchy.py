"""Inheritance flattening: late binding, lineage merge, proof invalidation."""

import pytest

from conftest import data

from focml import compile_files, compile_source
from focml.errors import (
    DUPLICATE,
    INTERFACE,
    REP_REDEFINED,
    TYPE_MISMATCH,
    UNKNOWN,
    CompileError,
)
from focml.evaluator import eval_call
from focml.hierarchy import merge_lineages
from focml.pretty import type_to_source

import oracles


def scheme_src(mi):
    assert mi.scheme is not None
    return type_to_source(mi.scheme.body)


# ---------------------------------------------------------------------------
# Flattening the running example


def test_lineages(example_cu):
    sp = example_cu.species
    assert sp["Data"].lineage == ["Data"]
    assert sp["OrdData"].lineage == ["Data", "OrdData"]
    assert sp["TheInt"].lineage == ["Data", "OrdData", "TheInt"]
    assert sp["IsIn"].lineage == ["IsIn"]


def test_method_origins_after_flattening(example_cu):
    ti = example_cu.species["TheInt"]
    assert set(ti.methods) == {"id", "fromInt", "lt", "eq", "gt", "ltNotGt"}
    # id was defined in Data and redefined here
    mid = ti.methods["id"]
    assert mid.origin == "TheInt"
    assert mid.first_def == "Data"
    assert "Data" in mid.superseded
    # gt keeps its single definition from OrdData
    assert ti.methods["gt"].origin == "OrdData"
    assert ti.methods["gt"].first_def == "OrdData"
    # lt was only a signature until TheInt supplied a body
    assert ti.methods["lt"].decl_site == "OrdData"
    assert ti.methods["lt"].first_def == "TheInt"


def test_proof_of_upgrades_property(example_cu):
    lng = example_cu.species["TheInt"].methods["ltNotGt"]
    assert lng.kind == "theorem"
    assert lng.decl_site == "OrdData"
    assert lng.origin == "TheInt"
    assert lng.valid_proof
    # the statement survives from the property declaration
    assert lng.statement is not None


def test_representation_is_inherited(example_cu):
    ti = example_cu.species["TheInt"]
    assert ti.rep_origin == "TheInt"
    assert type_to_source(ti.rep) == "int"
    ii = example_cu.species["IsIn"]
    assert ii.rep_origin == "IsIn"
    assert type_to_source(ii.rep) == "V * statut_t"


def test_parameter_rename_through_inheritance(extended_cu):
    """IsInE (X is OrdData, ...) inherits IsIn (V is OrdData, ...)."""
    ie = extended_cu.species["IsInE"]
    assert ie.lineage == ["IsIn", "IsInE"]
    assert scheme_src(ie.methods["filter"]) == "X -> Self"
    assert scheme_src(ie.methods["getValue"]) == "Self -> X"
    # the redefinition of filter supersedes the IsIn body
    assert ie.methods["filter"].origin == "IsInE"
    assert "IsIn" in ie.methods["filter"].superseded


# ---------------------------------------------------------------------------
# Lineage merge


def test_merge_lineages_diamond():
    got = merge_lineages([["A", "B"], ["A", "C"]], "D")
    assert got == ["A", "B", "C", "D"]


def test_merge_lineages_keeps_first_occurrence():
    got = merge_lineages([["A"], ["B", "A", "C"]], "X")
    assert got == ["A", "B", "C", "X"]


@pytest.mark.parametrize(
    "parents,self_name",
    [
        ([], "S"),
        ([["P"]], "S"),
        ([["A", "B"], ["B", "C"], ["A", "D"]], "E"),
    ],
)
def test_merge_lineages_matches_oracle(parents, self_name):
    assert merge_lineages(parents, self_name) == oracles.merge_lineages(
        parents, self_name
    )


# ---------------------------------------------------------------------------
# Late binding across sibling parents


DIAMOND = """
species A =
  representation = int ;
  let f (x : int) : int = x ;
  let g (x : int) : int = f (x) ;
end ;;

species B =
  inherit A ;
  let f (x : int) : int = x + 1 ;
end ;;

species C =
  inherit A ;
  let f (x : int) : int = x + 2 ;
end ;;

species D =
  inherit B, C ;
end ;;
"""


def test_sibling_redefinitions_later_parent_wins():
    cu = compile_source(DIAMOND)
    d = cu.species["D"]
    assert d.lineage == ["A", "B", "C", "D"]
    assert d.methods["f"].origin == "C"
    assert d.methods["f"].superseded >= {"A", "B"}
    # g is untouched and still calls whatever f is in scope
    assert d.methods["g"].origin == "A"


def test_unredefined_diamond_method_merges_quietly():
    cu = compile_source(DIAMOND)
    assert cu.species["D"].methods["g"].first_def == "A"


def test_child_redefinition_beats_both_parents():
    cu = compile_source(
        DIAMOND + "species E = inherit B, C ; let f (x : int) : int = x ; end ;;"
    )
    assert cu.species["E"].methods["f"].origin == "E"


# ---------------------------------------------------------------------------
# Representation conflicts


def test_rep_cannot_be_redefined_by_child():
    src = """
species A = representation = int ; end ;;
species B = inherit A ; representation = bool ; end ;;
"""
    with pytest.raises(CompileError) as ei:
        compile_source(src)
    assert ei.value.kind == REP_REDEFINED


def test_two_parents_with_different_reps_conflict():
    src = """
species A = representation = int ; end ;;
species B = representation = bool ; end ;;
species C = inherit A, B ; end ;;
"""
    with pytest.raises(CompileError) as ei:
        compile_source(src)
    assert ei.value.kind == REP_REDEFINED


def test_same_rep_through_diamond_is_fine():
    src = """
species A = representation = int ; end ;;
species B = inherit A ; end ;;
species C = inherit A ; end ;;
species D = inherit B, C ; end ;;
"""
    cu = compile_source(src)
    assert cu.species["D"].rep_origin == "A"


def test_rep_may_not_mention_self():
    with pytest.raises(CompileError) as ei:
        compile_source("species A = representation = Self * int ; end ;;")
    assert ei.value.kind == TYPE_MISMATCH


# ---------------------------------------------------------------------------
# Species arguments


# `J` offers `I`'s `f` but does not inherit `I`.  `SB` calls `P!f` at
# `B2`'s carrier: `JB`'s `f` takes `B1`'s and does not come from `IB`, and
# `KB`'s comes from `IB`, but at `B1`'s.  `SX` wraps its `C` with `P`, which
# must be a `Box (C)`.  `SN` calls `P!id` at `P`'s carrier, and `Narrow`
# narrows `Poly`'s `id` to `int`, its representation.  `SW` is compiled
# against `Q`'s `w` being `v`.
ARGS_PRELUDE = """species I = signature f : Self -> int ; end ;;
species S (P is I) = representation = int ; let g (x : int) : int = x ; end ;;
species K = representation = int ; let h (x : int) : int = x ; end ;;
collection CK = implement K ;;
species J = representation = int ; let f (x : Self) : int = 1 ; end ;;
collection CJ = implement J ;;
species Base = representation = int ; let mk (x : int) : Self = x ; end ;;
collection B1 = implement Base ;;
collection B2 = implement Base ;;
species IB (R is Base) = signature f : R -> int ; end ;;
species SB (P is IB (B2)) = representation = int ;
  let g (x : int) : int = P!f (B2!mk (x)) ; end ;;
species JB (R is Base) = representation = int ; let f (y : R) : int = 1 ; end ;;
collection CJB = implement JB (B1) ;;
species KB (R is Base) = inherit IB (R) ; representation = int ;
  let f (y : R) : int = 1 ; end ;;
collection CKB = implement KB (B1) ;;
species Box (X is Base) = signature wrap : X -> Self ; end ;;
species SX (C is Base, D is Base, P is Box (C)) = representation = int ;
  let h (x : C) : P = P!wrap (x) ; end ;;
species BoxImpl (X is Base) = inherit Box (X) ; representation = int ;
  let wrap (x : X) : Self = 0 ; end ;;
collection BoxC = implement BoxImpl (B2) ;;
species Poly = representation = int ; let id (x : Self) : Self = x ; end ;;
species Narrow = inherit Poly ; signature id : int -> int ; end ;;
species SN (P is Poly) = representation = int ;
  let h (x : P) : P = P!id (x) ; end ;;
collection CN = implement Narrow ;;
species JW (R is Base, w in R) = representation = int ;
  let f (y : R) : bool = true ; end ;;
collection CW = implement JW (B1, B1!mk (3)) ;;
species SW (P is Base, v in P, Q is JW (P, v)) = representation = int ;
  let g (x : int) : bool = Q!f (v) ; end ;;
"""

# The three positions that apply a species, each with where a wrong arity
# is placed: at the species, or at the parameter whose interface it is.
# `{params}` and `{own}` declare the parameters of the applying species.
APPLIED_IN = [
    ("collection C = implement {applied} ;;", None),
    ("species H{params} = inherit {applied} ; end ;;", None),
    ("species U ({own}R is {applied}) = end ;;", "R is"),
]

# A faulty application, the parameters it passes of the applying species
# (a row with some is not a collection's), the argument its diagnostic is
# placed at (`None` for a wrong arity), and the diagnostic, the same in
# every position.
FAULTY_APPLICATIONS = [
    ("", "S (CK)", "CK", INTERFACE, "CK does not implement I"),
    ("", "S (CJ)", "CJ", INTERFACE, "CJ does not implement I"),
    ("Q is K", "S (Q)", "Q", INTERFACE, "Q does not implement I"),
    ("", "SB (CJB)", "CJB", INTERFACE, "CJB does not implement IB"),
    ("", "SB (CKB)", "CKB", INTERFACE,
     "CKB implements IB at other arguments than parameter P of SB"),
    ("", "S (Nope)", "Nope", UNKNOWN, "unknown collection Nope"),
    ("", "S (5)", "5", INTERFACE, "parameter P of S needs a collection argument"),
    ("", "S", None, INTERFACE, "S takes 1 argument(s), got 0"),
    ("", "S (CK, CK)", None, INTERFACE, "S takes 1 argument(s), got 2"),
    # An own parameter of the formal's name, one renamed and a collection,
    # each a `Box` of `D` where `SX` needs one of `C`.
    ("C is Base, D is Base, P is Box (D)", "SX (C, D, P)", "P", INTERFACE,
     "P implements Box at other arguments than parameter P of SX"),
    ("C is Base, D is Base, Q is Box (D)", "SX (C, D, Q)", "Q", INTERFACE,
     "Q implements Box at other arguments than parameter P of SX"),
    ("", "SX (B1, B1, BoxC)", "BoxC", INTERFACE,
     "BoxC implements Box at other arguments than parameter P of SX"),
    # An interface below the formal's narrows `id`, as a parameter and as a
    # collection.
    ("Q is Narrow", "SN (Q)", "Q", INTERFACE,
     "Q offers the methods of Poly at other types than parameter P of SN"),
    ("", "SN (CN)", "CN", INTERFACE,
     "CN offers the methods of Poly at other types than parameter P of SN"),
    # `Q`'s `w` is another entity than `v`: `B1!mk (3)` is not `B1!mk (4)`,
    # and `u2` is not `v2`.
    ("", "SW (B1, B1!mk (4), CW)", "CW", INTERFACE,
     "CW implements JW at other arguments than parameter Q of SW"),
    ("P2 is Base, v2 in P2, u2 in P2, Q2 is JW (P2, u2)", "SW (P2, v2, Q2)", "Q2",
     INTERFACE, "Q2 implements JW at other arguments than parameter Q of SW"),
]


def faulty_arguments():
    for own, applied, at, kind, message in FAULTY_APPLICATIONS:
        for position, arity_at in APPLIED_IN:
            if own and position.startswith("collection"):
                continue
            line = position.format(
                applied=applied,
                params=f" ({own})" if own else "",
                own=f"{own}, " if own else "",
            )
            if at is None:
                col = line.index(arity_at or applied) + 1
            else:
                col = line.index(applied) + applied.index(at) + 1
            yield line, col, kind, message


@pytest.mark.parametrize("line, col, kind, message", list(faulty_arguments()))
def test_a_species_argument_is_checked_against_its_parameter(line, col, kind, message):
    with pytest.raises(CompileError) as ei:
        compile_source(ARGS_PRELUDE + line)
    diag = ei.value.to_diagnostic()
    row = ARGS_PRELUDE.count("\n") + 1
    assert diag.format() == f"<input>:{row}:{col}: error: {kind}: {message}"


# ---------------------------------------------------------------------------
# Merge conflicts


def test_method_cannot_change_species_of_kind():
    src = """
species A = let f (x : int) : int = x ; end ;;
species B = inherit A ; property f : all x : int, x = x ; end ;;
"""
    with pytest.raises(CompileError) as ei:
        compile_source(src)
    assert ei.value.kind == DUPLICATE


def test_property_cannot_be_restated_differently():
    src = """
species A = property p : all x : int, x = x ; end ;;
species B = property p : all x : bool, x = x ; end ;;
species C = inherit A, B ; end ;;
"""
    with pytest.raises(CompileError) as ei:
        compile_source(src)
    assert ei.value.kind == TYPE_MISMATCH


# ---------------------------------------------------------------------------
# Proof invalidation


def test_redefining_an_unfolded_method_reverts_the_proof():
    cu = compile_files(data("example.fcl", "isine.fcl"))
    ie = cu.species["IsInE"]
    assert not ie.methods["lowMin"].valid_proof
    (rp,) = ie.reverted
    assert (rp.method, rp.proof_origin) == ("lowMin", "IsIn")
    assert (rp.def_name, rp.def_origin) == ("filter", "IsInE")


def test_reverted_proof_is_reported_as_warning():
    cu = compile_files(data("example.fcl", "isine.fcl"))
    warn = [w for w in cu.warnings if w.severity == "warning"]
    assert len(warn) == 1
    assert "proof of lowMin (from IsIn) is reverted" in warn[0].message
    assert "redefined by IsInE" in warn[0].message
    assert warn[0].file.endswith("isine.fcl")


def test_proof_in_same_species_as_redefinition_is_kept():
    src = """
species A =
  representation = int ;
  let f (x : int) : int = x ;
  property p : all x : int, f (x) = f (x) ;
end ;;

species B =
  inherit A ;
  let f (x : int) : int = x + 1 ;
  proof of p = by definition of f ;
end ;;
"""
    cu = compile_source(src)
    assert cu.species["B"].methods["p"].valid_proof
    assert cu.species["B"].reverted == []


def test_proof_of_in_a_descendant_restores_a_reverted_theorem():
    src = """
species A =
  representation = int ;
  let f (x : int) : int = x ;
  theorem t : all x : int, f (x) = f (x)
  proof = by definition of f ;
end ;;

species B =
  inherit A ;
  let f (x : int) : int = x + 1 ;
end ;;

species C =
  inherit B ;
  proof of t = by definition of f ;
end ;;

collection CC = implement C ; end ;;
"""
    cu = compile_source(src)
    (warning,) = cu.warnings
    assert "proof of t (from A) is reverted" in warning.message
    assert not cu.species["B"].methods["t"].valid_proof
    assert cu.species["C"].methods["t"].valid_proof
    assert cu.species["C"].reverted == []
    assert eval_call(cu, "CC!f (2)") == "3"


def test_reverted_proof_stays_reverted_when_a_descendant_reorders_siblings():
    # D's lineage puts S2 before S1, so ranks alone would call t valid.
    src = """
species S1 =
  representation = int ;
  let f (x : int) : int = x ;
  theorem t : all x : int, f (x) = x
  proof = by definition of f ;
end ;;

species S2 = let f (x : int) : int = x + 1 ; end ;;
species P = inherit S1, S2 ; end ;;
species D = inherit S2, P ; end ;;
"""
    cu = compile_source(src)
    assert cu.species["D"].lineage == ["S2", "S1", "P", "D"]
    assert not cu.species["P"].methods["t"].valid_proof
    assert not cu.species["D"].methods["t"].valid_proof
    with pytest.raises(CompileError) as e:
        compile_source(src + "collection DC = implement D ; end ;;")
    assert e.value.kind == "IncompleteSpecies"


def test_a_reverted_proof_adopted_from_a_sibling_stays_reverted():
    # D takes t from P, where it is reverted, over Q's admitted proof.
    src = """
species S1 =
  representation = int ;
  let f (x : int) : int = x ;
  theorem t : all x : int, f (x) = x
  proof = by definition of f ;
end ;;

species S2 = let f (x : int) : int = x + 1 ; end ;;
species P = inherit S1, S2 ; end ;;

species Q =
  signature f : int -> int ;
  theorem t : all x : int, f (x) = x
  proof = admitted ;
end ;;

species D = inherit S2, Q, P ; end ;;
"""
    cu = compile_source(src)
    assert cu.species["D"].methods["t"].origin == "S1"
    assert not cu.species["D"].methods["t"].valid_proof
    with pytest.raises(CompileError) as e:
        compile_source(src + "collection DC = implement D ; end ;;")
    assert e.value.kind == "IncompleteSpecies"


def test_unrelated_redefinition_keeps_proof(extended_cu):
    # the admitted IsInE proof in the fixture is valid by construction
    assert extended_cu.species["IsInE"].methods["lowMin"].valid_proof


# ---------------------------------------------------------------------------
# Determinism of flattening


def test_flattening_is_reproducible():
    one = compile_source(DIAMOND).species["D"]
    two = compile_source(DIAMOND).species["D"]
    assert one.lineage == two.lineage
    assert list(one.methods) == list(two.methods)
    assert one.order == two.order
    for name in one.methods:
        a, b = one.methods[name], two.methods[name]
        assert (a.origin, a.first_def, a.kind) == (b.origin, b.first_def, b.kind)
