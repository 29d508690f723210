"""Method typing: inference results, the two Self modes, and type stability."""

from __future__ import annotations

import pytest

from focml import CompileError, compile_source
from focml.ast import TArrow, TCollCarrier
from focml.pretty import type_to_source

from conftest import data
from focml import compile_files, deps_report, emit_comp, eval_call


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
    # the body `x` mentions no renamed name, so a renaming shares it too;
    # the type names `P` and is renamed
    assert renamed.body is parent.body
    assert renamed.scheme is not parent.scheme
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
        # a signature below a definition narrows the type its callers use
        """
species Ord = signature lt : Self -> Self -> bool ; end ;;
species Src2 (P is Ord) =
  let idf (z) = z ;
  let k (n : int) : int = idf (n) ;
end ;;
species H2 (P is Ord) = inherit Src2 (P) ; signature idf : P -> P ; end ;;
""",
    ],
    ids=[
        "local_signature",
        "sibling_definitions",
        "sibling_signature",
        "entity_expression",
        "entity_carrier",
        "same_name_other_interface_args",
        "renamed_other_interface_args",
        "collection_other_interface_args",
        "narrower_interface",
        "narrowed_callee",
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


def test_a_narrowed_callee_fails_at_its_callers_body():
    source = """
species Ord = signature lt : Self -> Self -> bool ; end ;;
species Src2 (P is Ord) =
  let idf (z) = z ;
  let k (n : int) : int = idf (n) ;
end ;;
species H2 (P is Ord) = inherit Src2 (P) ; signature idf : P -> P ; end ;;
"""
    with pytest.raises(CompileError) as e:
        compile_source(source)
    assert (e.value.kind, e.value.message) == ("TypeMismatch", "cannot unify P with int")
    assert (e.value.pos.line, e.value.pos.col) == (5, 27)


def test_carriers_that_print_alike_are_told_apart():
    # `Q` is both a collection and a parameter of `S`; `P!hold` takes the
    # collection's carrier, as `Holder (Q)` says, and gets the parameter's.
    source = """
species Base = signature mk : int -> Self ; end ;;
species BaseImpl = inherit Base ; representation = int ; let mk (x) : Self = x ; end ;;
collection Q = implement BaseImpl ;;
species Holder (C is Base) = signature hold : C -> Self ; end ;;
species S (P is Holder (Q), Q is Base) =
  let h (n : int) : P = P!hold (Q!mk (n)) ;
end ;;
"""
    with pytest.raises(CompileError) as e:
        compile_source(source)
    assert (e.value.kind, e.value.message) == (
        "TypeMismatch",
        "cannot unify Q with Q (collection Q's carrier against parameter Q's carrier)",
    )
    assert (e.value.pos.line, e.value.pos.col) == (7, 25)


# ---------------------------------------------------------------------------
# Names keep the meaning they have where they are written

# Heirs that bring in a name an inherited body leaves free: a method named
# like a builtin, an entity parameter named like a builtin or like a method,
# and a collection parameter named like a collection.  Each entry is
# (source, heir, method, the origin's computational line, call, value).
CAPTURE_SHAPES = {
    "captured_builtin": (
        """
species Fst = representation = int ; let g (x : int) : int = fst ((x, x)) ; end ;;
species FstHeir = inherit Fst ; let fst (p : int * int) : bool = true ; end ;;
collection FstC = implement FstHeir ;;
""",
        "FstHeir", "g", "  let g (x) = (basics.fst (x, x))", "FstC!g (3)", "3",
    ),
    "entity_captures_builtin": (
        """
species Snd = representation = int ; let g (x : int) : int = snd ((x, x + 1)) ; end ;;
species SndHeir (P is Base, snd in P) = inherit Snd ; end ;;
collection SndC = implement SndHeir (BColl, BColl!mk (5)) ;;
""",
        "SndHeir", "g", "  let g (x) = (basics.snd (x, x + 1))", "SndC!g (3)", "4",
    ),
    "entity_hides_method": (
        """
species Inc =
  representation = int ;
  let inc (x : int) : int = x + 1 ;
  let twice (x : int) : int = inc (inc (x)) ;
end ;;
species IncHeir (P is Base, inc in P) = inherit Inc ; end ;;
collection IncC = implement IncHeir (BColl, BColl!mk (5)) ;;
""",
        "IncHeir", "twice", "  let twice (abst_inc) (x) = (abst_inc (abst_inc x))",
        "IncC!twice (3)", "5",
    ),
    "parameter_hides_collection": (
        """
species Other = signature mk : bool -> Self ; end ;;
species OtherImpl =
  inherit Other ; representation = bool ; let mk (b) : Self = b ;
end ;;
collection OC = implement OtherImpl ;;
species Mk (P is Base) =
  representation = int ;
  let h (x : int) : BColl = BColl!mk (x) ;
  let k (x : int) : P = P!mk (x) ;
end ;;
species MkHeir (P is Base, BColl is Other) = inherit Mk (P) ; end ;;
species MkColl = inherit Mk (BColl) ; end ;;
collection MkC = implement MkHeir (BColl, OC) ;;
""",
        "MkHeir", "h", "  let h (x) = (BColl.mk x)", "MkC!h (3)", "3",
    ),
}


@pytest.mark.parametrize(
    "src, heir, method, line, call, value",
    CAPTURE_SHAPES.values(),
    ids=CAPTURE_SHAPES.keys(),
)
def test_a_name_keeps_its_meaning_in_every_heir(src, heir, method, line, call, value):
    cu = compile_source(CARRY_PRELUDE + src)
    mi = cu.species[heir].methods[method]
    assert mi.carried
    origin = mi.origin
    # typing and deps read the name as the origin did
    assert scheme_src(cu, heir, method) == scheme_src(cu, origin, method)
    report = deps_report(cu)["species"]
    heir_md, origin_md = (report[s]["methods"][method] for s in (heir, origin))
    assert heir_md["decl"] == origin_md["decl"]
    # the parameters it uses: methods of `is` parameters, carriers, entities
    assert heir_md["params"] == origin_md["params"]
    # and so do the generator the heir reuses and the evaluator running it
    assert line in emit_comp(cu).splitlines()
    assert eval_call(cu, call) == value


def test_a_parameter_shadows_the_name_of_its_recursive_let():
    cu = compile_source(
        """
species S = representation = int ; let rec f (f : int) : int = f ; end ;;
collection C = implement S ;;
"""
    )
    assert scheme_src(cu, "S", "f") == "int -> int"
    assert eval_call(cu, "C!f (3)") == "3"


def test_a_method_named_like_a_builtin_leaves_inherited_calls_alone():
    source = """
species A =
  representation = int ;
  let g (x : int) : int = fst ((x, x)) ;
end ;;
species B = inherit A ; let fst (p : int * int) : int = 7 ; end ;;
collection BC = implement B ;;
"""
    cu = compile_source(source)
    assert cu.deps["B"].methods["g"].decl == set()
    assert eval_call(cu, "BC!g (3)") == "3"
    # the computational text of A.g is the one it had before B existed
    assert "  let g (x) = (basics.fst (x, x))" in emit_comp(cu).splitlines()


# ---------------------------------------------------------------------------
# An argument keeps what it denotes where it is passed

SHADOW_PRELUDE = """
species Base =
  signature mk : int -> Self ;
  signature get : Self -> int ;
  signature leq : Self -> Self -> bool ;
  property refl : all x : Self, leq (x, x) ;
end ;;
species BaseImpl =
  inherit Base ;
  representation = int ;
  let mk (x) : Self = x ;
  let get (x) : int = x ;
  let leq (x, y) = x <0x y ;
  proof of refl = admitted ;
end ;;
collection P = implement BaseImpl ;;
"""

# `B` passes the collection `P` to `A`, and `C` passes its own parameter,
# named like that collection, to `B`: `P` is still the collection in `C`.
ARG_SHADOW = SHADOW_PRELUDE + """
species A (Q is Base) =
  representation = int ;
  let f (n : int) : int = Q!get (Q!mk (n + 7)) ;
end ;;
species B (Q is Base) = inherit A (P) ; end ;;
species C (P is Base) = inherit B (P) ; end ;;
collection BB = implement B (P) ;;
collection CC = implement C (P) ;;
"""


def test_an_argument_keeps_its_meaning_in_every_heir():
    cu = compile_source(ARG_SHADOW)
    assert eval_call(cu, "CC!f (3)") == "10"
    assert eval_call(cu, "BB!f (3)") == "10"
    module_c = emit_comp(cu).split("module C = struct")[1].split("end")[0]
    assert "A.f P.get P.mk" in module_c


def test_a_cited_fact_keeps_its_collection_in_every_heir():
    cu = compile_source(
        SHADOW_PRELUDE
        + """
species B (Q is Base) =
  representation = int ;
  theorem t : all n : int, n = n
    proof = by property P!refl ;
end ;;
species C (P is Base) = inherit B (P) ; end ;;
"""
    )
    report = deps_report(cu)["species"]
    assert report["C"]["methods"]["t"]["params"] == report["B"]["methods"]["t"]["params"] == {}


def test_a_renamed_surface_type_keeps_its_meaning():
    # The entity argument makes `C` type the inherited methods again, from
    # their declared types.
    cu = compile_source(
        SHADOW_PRELUDE
        + """
species A (Q is Base) =
  representation = int ;
  let k (n : int) : Q = Q!mk (n) ;
  let f (n : int) : int = Q!get (k (n + 7)) ;
end ;;
species B (Q is Base, v in Q) = inherit A (P) ; end ;;
species C (P is Base) = inherit B (P, P!mk (1)) ; end ;;
collection CC = implement C (P) ;;
"""
    )
    assert not cu.species["C"].methods["k"].carried
    assert scheme_src(cu, "C", "k") == "int -> P"
    assert eval_call(cu, "CC!f (3)") == "10"


def test_an_interface_argument_sees_only_the_earlier_parameters():
    # In `Holder (Q)`, `Q` is the collection: the parameter comes after.
    source = SHADOW_PRELUDE + """
collection Q = implement BaseImpl ;;
species Holder (R is Base) = signature hold : R -> Self ; end ;;
species S (P is Holder (Q), Q is Base) =
  let h (n : int) : P = P!hold (Q!mk (n)) ;
end ;;
"""
    with pytest.raises(CompileError) as e:
        compile_source(source)
    assert e.value.kind == "TypeMismatch"
    assert e.value.pos.line == source.splitlines().index(
        "  let h (n : int) : P = P!hold (Q!mk (n)) ;"
    ) + 1


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


def test_a_nullary_constructor_is_an_entity_argument():
    holder = """type color_t = | Red | Green ;;
species Colors =
  representation = color_t ;
  let pick (x : int) : Self = if x =0x 0 then Red else Green ;
end ;;
collection CI = implement Colors ;;
species Holder (C is Colors, c in C) =
  representation = int ;
  let get (x : int) : int = x ;
  let same (x : int) : bool = c = C!pick (x) ;
end ;;
"""
    cu = compile_source(holder + "collection H = implement Holder (CI, Green) ;;\n")
    assert eval_call(cu, "H!get (4)") == "4"
    assert eval_call(cu, "H!same (1)") == "true"
    # a collection name is still no entity
    bad = "collection H = implement Holder (CI, CI) ;;"
    with pytest.raises(CompileError) as e:
        compile_source(holder + bad)
    assert e.value.kind == "UnknownName"
    assert (e.value.pos.line, e.value.pos.col) == (12, bad.rindex("CI") + 1)
