"""Method typing: inference results, the two Self modes, and type stability."""

from __future__ import annotations

import pytest

from focml import CompileError, compile_source
from focml.ast import TArrow, TCollCarrier
from focml.pretty import type_to_source

from conftest import data
from focml import compile_files


def scheme_src(cu, species: str, method: str) -> str:
    mi = cu.species[species].methods[method]
    assert mi.scheme is not None
    return type_to_source(mi.scheme.body)


def test_inferred_types_of_the_example(example_cu):
    assert scheme_src(example_cu, "Data", "id") == "string"
    assert scheme_src(example_cu, "OrdData", "gt") == "Self -> Self -> bool"
    assert scheme_src(example_cu, "TheInt", "fromInt") == "int -> Self"
    assert scheme_src(example_cu, "IsIn", "getValue") == "Self -> V"
    assert scheme_src(example_cu, "IsIn", "getStatus") == "Self -> statut_t"
    assert scheme_src(example_cu, "IsIn", "filter") == "V -> Self"


def test_type_inference_through_declared_signature():
    # even's type comes out of odd's declared signature.
    cu = compile_source(
        """
species S =
  signature odd : int -> bool ;
  let even (n) = if n = 0 then true else odd (n - 1) ;
end ;;
"""
    )
    assert scheme_src(cu, "S", "even") == "int -> bool"


def test_inherited_type_is_pinned(example_cu):
    # Redefinitions keep the type of the first declaration.
    assert scheme_src(example_cu, "TheInt", "lt") == "Self -> Self -> bool"
    assert scheme_src(example_cu, "TheInt", "id") == "string"


def test_body_mode_lets_use_the_representation(example_cu):
    lt = example_cu.species["TheInt"].methods["lt"]
    assert lt.carrier_def  # x <0x y forces Self = int
    gt = example_cu.species["OrdData"].methods["gt"]
    assert gt.carrier_decl and not gt.carrier_def


def test_statement_mode_keeps_self_rigid():
    with pytest.raises(CompileError) as e:
        compile_files(data("wrong.fcl"))
    assert e.value.kind == "WrongCarrierLeak"
    assert e.value.witness == ["incr (x) = x + 1"]


def test_statement_over_self_alone_is_fine():
    compile_source(
        """
species X =
  representation = int ;
  property refl : all x : Self, x = x ;
end ;;
"""
    )


def test_redefinition_changing_type_is_rejected():
    with pytest.raises(CompileError) as e:
        compile_source(
            """
species A = let f (x) : int = x ; end ;;
species B = inherit A ; let f (x) : bool = x ; end ;;
"""
        )
    assert e.value.kind == "TypeMismatch"
    assert "changes its type" in e.value.message


def test_conflicting_signatures_from_two_parents():
    with pytest.raises(CompileError) as e:
        compile_source(
            """
species A = signature f : int -> int ; end ;;
species B = signature f : bool -> bool ; end ;;
species C = inherit A, B ; end ;;
"""
        )
    assert e.value.kind == "TypeMismatch"


def test_body_must_match_declared_signature():
    with pytest.raises(CompileError) as e:
        compile_source('species X = let f (x) : int = "s" ; end ;;')
    assert e.value.kind == "TypeMismatch"


def test_polymorphic_let_generalizes():
    cu = compile_source("species X = let pick (x, y) = x ; end ;;")
    mi = cu.species["X"].methods["pick"]
    assert mi.scheme.count == 2
    assert type_to_source(mi.scheme.body) == "'a -> 'b -> 'a"


def test_unknown_name_in_body():
    with pytest.raises(CompileError) as e:
        compile_source("species X = let f = mystery ; end ;;")
    assert e.value.kind == "UnknownName"


def test_constructor_arity(example_cu):
    with pytest.raises(CompileError) as e:
        compile_source(
            """
type t = | C (int) ;;
species X = let f = C ; end ;;
"""
        )
    assert "argument" in e.value.message


def test_match_arms_must_agree():
    with pytest.raises(CompileError) as e:
        compile_source(
            """
type t = | A | B ;;
species X =
  let f (s : t) = match s with | A -> 1 | B -> true ;
end ;;
"""
        )
    assert e.value.kind == "TypeMismatch"


def test_if_condition_must_be_bool():
    with pytest.raises(CompileError) as e:
        compile_source("species X = let f (x) = if x + 1 then 1 else 2 ; end ;;")
    assert e.value.kind == "TypeMismatch"


def test_entity_parameter_has_carrier_type():
    cu = compile_source(
        """
species A = signature cmp : Self -> Self -> bool ; end ;;
species X (P is A, v in P) =
  let probe (x) = P!cmp (x, v) ;
end ;;
"""
    )
    assert scheme_src(cu, "X", "probe") == "P -> bool"


def test_qualified_call_on_unknown_method():
    with pytest.raises(CompileError) as e:
        compile_source(
            """
species A = signature f : Self -> Self ; end ;;
species X (P is A) = let g (x) = P!missing (x) ; end ;;
"""
        )
    assert e.value.kind == "UnknownName"


def test_proof_hypothesis_references_are_checked():
    with pytest.raises(CompileError) as e:
        compile_source(
            """
species X =
  property p : all x : int, x = x ;
  theorem t : all x : int, x = x
  proof = by hypothesis Huh ;
end ;;
"""
        )
    assert e.value.kind == "ProofError"
    assert "unknown hypothesis" in e.value.message


# ---------------------------------------------------------------------------
# Typing results carried through inheritance

CARRY_PRELUDE = """
species Base = signature mk : int -> Self ; end ;;
species BaseImpl =
  inherit Base ;
  representation = int ;
  let mk (x) : Self = x ;
end ;;
collection BColl = implement BaseImpl ; end ;;
species S (P is Base) =
  let same (x : P) : P = x ;
end ;;
"""


def test_non_identity_inheritance_carries_renamed_types():
    cu = compile_source(CARRY_PRELUDE + "species T = inherit S (BColl) ; end ;;")
    parent = cu.species["S"].methods["same"]
    mi = cu.species["T"].methods["same"]
    assert mi.carried and not parent.carried
    assert type_to_source(parent.scheme.body) == "P -> P"
    assert [type_to_source(t) for t in parent.param_types] == ["P"]
    assert mi.scheme.body == TArrow(TCollCarrier("BColl"), TCollCarrier("BColl"))
    assert mi.param_types == [TCollCarrier("BColl")]
    assert mi.ret_type == TCollCarrier("BColl")


def test_identity_inheritance_shares_the_parents_trees():
    cu = compile_source(
        CARRY_PRELUDE + "species T (Q is Base) = inherit S (Q) ; end ;;"
        "species U (P is Base) = inherit S (P) ; end ;;"
    )
    parent = cu.species["S"].methods["same"]
    renamed = cu.species["T"].methods["same"]
    same = cu.species["U"].methods["same"]
    assert same is not parent and same.carried
    assert same.body is parent.body
    assert same.scheme is parent.scheme
    assert renamed.body is not parent.body
    assert type_to_source(renamed.scheme.body) == "Q -> Q"


BOX_PRELUDE = CARRY_PRELUDE + """
species Box (X is Base) = signature wrap : X -> Self ; end ;;
species SB (C is Base, D is Base, P is Box (C)) =
  let h (x : C) : P = P!wrap (x) ;
end ;;
"""


@pytest.mark.parametrize(
    "src",
    [
        # a signature added below the definition
        """
species A = let f (x : int) : int = x ; end ;;
species B = inherit A ; signature f : int -> bool ; end ;;
""",
        # sibling definitions of different types
        """
species A = let f (x : int) : int = x ; end ;;
species B = let f (x : int) : bool = true ; end ;;
species C = inherit A, B ; end ;;
""",
        # a sibling signature of another type
        """
species A = let f (x : int) : int = x ; end ;;
species B = signature f : int -> bool ; end ;;
species C = inherit A, B ; end ;;
""",
        # a method that captures a builtin the inherited body calls
        """
species A = let g (x : int) : int = fst ((x, x)) ; end ;;
species B = inherit A ; let fst (p : int * int) : bool = true ; end ;;
""",
        # an entity argument of the wrong type
        CARRY_PRELUDE
        + """
species E (P0 is Base, v0 in P0) = let g (x : int) : P0 = v0 ; end ;;
species F = inherit E (BColl, 3) ; end ;;
""",
        # an entity parameter over another collection parameter
        CARRY_PRELUDE
        + """
species E (P0 is Base, v0 in P0) = let g (x : int) : P0 = v0 ; end ;;
species F (P0 is Base, P1 is Base, v0 in P1) = inherit E (P0, v0) ; end ;;
""",
        # an entity parameter that captures a builtin the inherited body calls
        CARRY_PRELUDE
        + """
species A = let g (x : int) : int = fst ((x, x)) ; end ;;
species B (P is Base, fst in P) = inherit A ; end ;;
""",
        # the heir's parameter of the same name has other interface arguments
        BOX_PRELUDE
        + """
species T (C is Base, D is Base, P is Box (D)) = inherit SB (C, D, P) ; end ;;
""",
        # a renamed parameter with other interface arguments
        BOX_PRELUDE
        + """
species T (C is Base, D is Base, Q is Box (D)) = inherit SB (C, D, Q) ; end ;;
""",
        # a collection argument whose interface arguments differ
        BOX_PRELUDE
        + """
collection B2 = implement BaseImpl ; end ;;
species BoxImpl (X is Base) =
  inherit Box (X) ;
  representation = int ;
  let wrap (x : X) : Self = 0 ;
end ;;
collection BoxC = implement BoxImpl (B2) ; end ;;
species T = inherit SB (BColl, BColl, BoxC) ; end ;;
""",
        # an interface below the formal's that narrows a method's type
        """
species Poly = let id (x) = x ; end ;;
species Narrow = inherit Poly ; signature id : int -> int ; end ;;
species S (P is Poly) = let h (x : int) : bool = P!id (true) ; end ;;
species T (P is Narrow) = inherit S (P) ; end ;;
""",
        # a collection parameter that hides the collection a body calls
        CARRY_PRELUDE
        + """
species Other = signature mk : bool -> Self ; end ;;
species R (P is Base) = let h (x : int) : BColl = BColl!mk (x) ; end ;;
species T (P is Base, BColl is Other) = inherit R (P) ; end ;;
""",
    ],
    ids=[
        "local_signature",
        "sibling_definitions",
        "sibling_signature",
        "captured_builtin",
        "entity_expression",
        "entity_carrier",
        "entity_captures_builtin",
        "same_name_other_interface_args",
        "renamed_other_interface_args",
        "collection_other_interface_args",
        "narrower_interface",
        "parameter_hides_collection",
    ],
)
def test_inherited_method_is_typed_again_when_the_heir_changes_its_inputs(src):
    with pytest.raises(CompileError) as e:
        compile_source(src)
    assert e.value.kind == "TypeMismatch"


def test_entity_argument_naming_a_method_is_scanned_again():
    cu = compile_source(
        CARRY_PRELUDE
        + """
species E (P0 is Base, v0 in P0) = let g (x : int) : P0 = v0 ; end ;;
species F (P0 is Base, w in P0) = inherit E (P0, h) ; let h : P0 = w ; end ;;
"""
    )
    assert cu.deps["E"].methods["g"].decl == set()
    assert cu.deps["F"].methods["g"].decl == {"h"}


# ---------------------------------------------------------------------------
# Arguments of a species expression: one check for interfaces and inherits

ARGS_PRELUDE = CARRY_PRELUDE + """
species A (P0 is Base, v0 in P0) = let g (x : int) : int = x ; end ;;
"""


def test_inherit_types_its_entity_arguments_like_an_interface():
    # No method of A uses v0, so only the argument check itself sees 3.
    bad = "species B = inherit A (BColl, 3) ; end ;;"
    source = ARGS_PRELUDE + bad
    with pytest.raises(CompileError) as e:
        compile_source(source)
    assert e.value.kind == "TypeMismatch"
    assert e.value.message == "cannot unify int with BColl"
    line = source.count("\n") + 1
    assert (e.value.pos.line, e.value.pos.col) == (line, bad.index("3") + 1)
    with pytest.raises(CompileError) as same:
        compile_source(ARGS_PRELUDE + "species U (R is A (BColl, 3)) = end ;;")
    assert (same.value.kind, same.value.message) == (e.value.kind, e.value.message)
    cu = compile_source(
        ARGS_PRELUDE + "species B = inherit A (BColl, BColl!mk (3)) ; end ;;"
    )
    assert cu.species["B"].methods["g"].origin == "A"
