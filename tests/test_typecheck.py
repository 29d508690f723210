"""Method typing: inference results, the two Self modes, and type stability."""

from __future__ import annotations

from pathlib import Path

import pytest

from focml import CompileError, compile_source
from focml.ast import T_BOOL, TArrow, TCollCarrier
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


def test_a_let_whose_type_is_not_determined_is_rejected():
    # a method has one type: `pick` would need one per use
    with pytest.raises(CompileError) as e:
        compile_source("species X = let pick (x, y) = x ; end ;;")
    assert (e.value.kind, e.value.message) == (
        "TypeMismatch",
        "the type of pick is not determined: '_1 -> '_2 -> '_1; annotate it",
    )
    assert (e.value.pos.line, e.value.pos.col) == (1, 17)
    cu = compile_source("species X = let pick (x : int, y : bool) = x ; end ;;")
    assert type_to_source(cu.species["X"].methods["pick"].scheme.body) == "int -> bool -> int"


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
    assert "same" not in cu.species["T"].analysed and "same" in cu.species["S"].analysed
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
    # passed as itself: the heir holds the parent's record
    assert same is parent and "same" not in cu.species["U"].analysed
    # the body `x` mentions no renamed name, so a renaming shares it too;
    # the type names `P` and is renamed
    assert renamed.body is parent.body
    assert renamed.scheme is not parent.scheme
    assert type_to_source(renamed.scheme.body) == "Q -> Q"


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
        # two parents bring one method at different schemes, renamed apart
        """
species Ord = signature mk : int -> Self ; end ;;
species Two (P is Ord, Q is Ord) = let onP (x : P) : P = x ; end ;;
species Right (P is Ord, Q is Ord) = inherit Two (P, Q) ; end ;;
species Left (P is Ord, Q is Ord) =
  inherit Two (P, Q) ;
  let useP (x : int) : P = onP (P!mk (x)) ;
end ;;
species Cross (P is Ord, Q is Ord) = inherit Right (Q, P), Left (P, Q) ; end ;;
""",
        # a `proof of` in an heir, whose step compares an int with a bool
        """
species A =
  representation = int ;
  let f (x : int) : int = x ;
  property p : all x : int, f (x) = f (x) ;
end ;;
species B =
  inherit A ;
  proof of p =
    <1>1 assume x : int,
         prove f (x) = true
         by definition of f
    <1>2 qed by step <1>1 ;
end ;;
""",
    ],
    ids=[
        "local_signature",
        "sibling_definitions",
        "sibling_signature",
        "entity_expression",
        "entity_carrier",
        "parents_disagree",
        "proof_of",
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
    assert cu.species["E"].deps["g"].decl == set()
    assert cu.species["F"].deps["g"].decl == {"h"}


@pytest.mark.parametrize(
    "source, at",
    [
        # a signature below the definition narrows `Self` to the
        # representation, which the inherited statement keeps abstract
        ("""
species Src2 =
  representation = int ;
  let idf (z : Self) : Self = z ;
  property k : all n : Self, idf (n) = n ;
end ;;
species H2 = inherit Src2 ; signature idf : int -> int ; end ;;
""", (5, 30)),
        # a definition adopted from a sibling, whose callers there were typed
        # against its own scheme, not the signature's
        ("""
species A = signature m : int -> int ; end ;;
species B = let m (z : Self) : Self = z ; property k : all n : Self, m (n) = n ; end ;;
species C = inherit A, B ; representation = int ; end ;;
""", (3, 70)),
    ],
    ids=["narrowed_callee", "sibling_definition_callers"],
)
def test_a_narrowed_callee_fails_at_its_callers_statement(source, at):
    # the callee is typed again to another scheme, so its inherited caller
    # is checked again; a body would accept `int` for `Self`
    with pytest.raises(CompileError) as e:
        compile_source(source)
    assert (e.value.kind, e.value.message) == ("WrongCarrierLeak", "statement constrains Self to int")
    assert (e.value.pos.line, e.value.pos.col) == at


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
    # `A` declares `g` over the collection's carrier; the heir's body gives
    # it the carrier of its own parameter `Q`.
    source = source[: source.index("species Holder")] + """
species A = signature g : Q -> bool ; end ;;
species B (Q is Base) = inherit A ; let g (x) = (x = Q!mk (1)) ; end ;;
"""
    with pytest.raises(CompileError) as e:
        compile_source(source)
    assert (e.value.kind, e.value.message) == (
        "TypeMismatch",
        "redefinition of g changes its type: Q -> bool vs Q -> bool "
        "(parameter Q's carrier against collection Q's carrier)",
    )
    assert (e.value.pos.line, e.value.pos.col) == (7, 41)


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
    assert method not in cu.species[heir].analysed
    origin = cu.species[heir].methods[method].origin
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
    assert cu.species["B"].deps["g"].decl == set()
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
    assert "k" in cu.species["C"].analysed
    assert scheme_src(cu, "C", "k") == "int -> P"
    assert eval_call(cu, "CC!f (3)") == "10"


def test_a_property_restated_over_a_parameters_carrier_compiles():
    # the inherited statement and the local one both hold `P`'s carrier
    # when flattening compares them
    cu = compile_source(
        """
species Base = signature leq : Self -> Self -> bool ; end ;;
species A (P is Base) = signature f : P -> bool ; property p : all x : P, f (x) ; end ;;
species B (P is Base) = inherit A (P) ; property p : all x : P, f (x) ; end ;;
"""
    )
    assert cu.species["B"].methods["p"].statement == cu.species["A"].methods["p"].statement


def test_a_parameter_does_not_capture_a_collection_an_inherited_signature_names():
    prelude = """
species Base = signature leq : Self -> Self -> bool ; end ;;
species Impl = inherit Base ; representation = int ; let leq (x, y) = true ; end ;;
collection C = implement Impl ;;
species A = signature g : C -> bool ; end ;;
"""
    cu = compile_source(prelude)
    assert cu.species["A"].methods["g"].scheme.body == TArrow(TCollCarrier("C"), T_BOOL)
    heir = "species B (C is Base) = inherit A ; let g (x) = C!leq (x, x) ; end ;;"
    with pytest.raises(CompileError) as e:
        compile_source(prelude + heir)
    assert e.value.kind == "TypeMismatch"
    assert (e.value.pos.line, e.value.pos.col) == (6, heir.index("g (x)") + 1)


# An unknown type name where each kind of type is written: (source, the
# text it starts with, that text's line and column).
UNKNOWN_TYPE_SITES = {
    "signature": ("species S = signature f : {} -> bool ; end ;;", "f :", 1),
    "let_parameter": ("species S = let f (x : {}) : int = 1 ; end ;;", "f (", 1),
    "let_result": ("species S = let f (x : int) : {} = x ; end ;;", "f (", 1),
    "quantifier": ("species S = property p : all x : {}, x = x ; end ;;", "all", 1),
    "assume": (
        "species S = theorem t : all x : int, x = x\n"
        "proof =\n <1>1 assume y : {}, prove y = y by type int\n <1>2 qed by step <1>1 ;\nend ;;",
        "<1>1", 3,
    ),
    "by_type": (
        "species S = theorem t : all x : int, x = x\nproof = by type int, {} ;\nend ;;",
        "type", 2,
    ),
    "union_constructor": ("type t = A ({}) | B ;;", "type", 1),
    "representation": ("species S = representation = int * {} ; end ;;", "species", 1),
}


# a `by type` fact names a lower-case type only
@pytest.mark.parametrize(
    "site, name",
    [(site, name) for site in UNKNOWN_TYPE_SITES for name in ("foo", "Foo")
     if (site, name) != ("by_type", "Foo")],
)
def test_an_unknown_type_is_reported_where_it_is_written(site, name):
    template, anchor, line = UNKNOWN_TYPE_SITES[site]
    source = template.format(name)
    with pytest.raises(CompileError) as e:
        compile_source(source)
    kind = "ProofError" if site == "by_type" else "UnknownName"
    assert (e.value.kind, e.value.message) == (kind, f"unknown type {name}")
    col = source.splitlines()[line - 1].index(anchor) + 1
    assert (e.value.pos.line, e.value.pos.col) == (line, col)


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


def test_a_collection_entity_argument_of_either_carrier_formats_no_message(monkeypatch):
    # `5` has IntC's representation and `IntC!fromInt (10)` its abstract
    # carrier: telling which one an argument has formats no message
    from focml import compile_unit
    from focml.typecheck import Unifier
    from test_properties import workload_sources

    def shown(uni, *ts):
        raise AssertionError("an accepted unit formats a message")

    example = Path(data("example.fcl")[0]).read_text()
    bad = "collection X = implement IsIn (IntC, true, IntC!fromInt (10)) ;;"
    monkeypatch.setattr(Unifier, "shown", shown)
    compile_source(example + bad.replace("true", "5"))
    # the pair has the representation; so has `fst`, whose type has holes
    # (`driver._unifies`)
    compile_source("""
species Pair = representation = int * int ; let rec loop (x : int) : int = loop (x) ; end ;;
collection PC = implement Pair ;;
species Holder (P is Pair, v in P) = representation = int ; let get (x : int) : int = x ; end ;;
collection H = implement Holder (PC, (PC!loop (1), 5)) ;;
""")
    compile_source("""
species F = representation = int * int -> int ; let z (x : int) : int = x ; end ;;
collection FC = implement F ;;
species Holder (P is F, v in P) = representation = int ; let get (x : int) : int = x ; end ;;
collection H = implement Holder (FC, fst) ;;
""")
    for sources in workload_sources():
        compile_unit(sources)
    monkeypatch.undo()
    with pytest.raises(CompileError) as e:
        compile_source(example + bad)
    assert (e.value.kind, e.value.message) == ("TypeMismatch", "cannot unify bool with IntC")
    assert (e.value.pos.line, e.value.pos.col) == (example.count("\n") + 1, bad.index("true") + 1)


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


def test_a_message_numbers_inference_variables_by_appearance():
    # '_1, '_2, ... from the start of each message, however many variables
    # the checker made before it
    src = """
species X =
  let h (x, y) : int =
    if y + 1 =0x 2 then (match x with | (a, b) -> if x = (b, a) then 1 else x + 1) else 0 ;
end ;;
"""
    with pytest.raises(CompileError) as e:
        compile_source(src)
    assert e.value.kind == "TypeMismatch"
    assert e.value.message == "cannot unify int with '_1 * '_1"
    with pytest.raises(CompileError) as e:
        compile_source(src.replace("if x = (b, a) then 1 else x + 1", "x + 1"))
    assert e.value.message == "cannot unify int with '_1 * '_2"


@pytest.mark.parametrize(
    "source, kind, message, at",
    [
        ("type u = A | A ;;", "DuplicateName", "duplicate constructor A", (1, 1)),
        (
            "species X = let f (p : int * int) : int = match p with | (a, a) -> a ;\nend ;;",
            "DuplicateName", "duplicate pattern variable a", (1, 62),
        ),
        (
            "species X =\n  representation = int ;\n  representation = bool ;\nend ;;",
            "DuplicateName", "representation already given", (3, 3),
        ),
        (
            "species X =\n  property p : all x : int, x = x ;\n"
            "  proof of p = admitted ;\n  proof of p = admitted ;\nend ;;",
            "DuplicateName", "duplicate proof of p in species X", (4, 12),
        ),
        (
            "type t = A (int) ;;\nspecies X = let f (x : t) : int = match x with | A (a, b) -> a ;\nend ;;",
            "TypeMismatch", "constructor A expects 1 argument(s), got 2", (2, 50),
        ),
    ],
    ids=["constructor", "pattern_variable", "representation", "proof_of", "pattern_arity"],
)
def test_a_declaration_error_has_its_kind_text_and_position(source, kind, message, at):
    with pytest.raises(CompileError) as e:
        compile_source(source)
    assert (e.value.kind, e.value.message) == (kind, message)
    assert (e.value.pos.line, e.value.pos.col) == at
