"""Emitted text for both targets, pinned by the golden outputs."""

import hashlib
import re
import tracemalloc

import pytest

import oracles
import shapes
from conftest import DATA, data
from test_cli import SUBCOMMANDS

from focml import compile_files, compile_source, eval_call
from focml.ast import Pattern, ProofStep, PWild, Quant, TGen, TSelf, TVar
from focml.cli import main
from focml.emit import (
    RenderEnv, _comp_type, _pattern, emit_comp, emit_logical, proof_hole_name, render_expr,
    render_type, sha256,
)
from focml.errors import TYPE_MISMATCH, CompileError, on_deep_stack
from focml.parser import parse_source
from focml.pretty import expr_to_source, pattern_to_source, proof_to_source, type_to_source

HOLE = re.compile(r"PROOF_HOLE\w*")


def tokens(text: str) -> list[str]:
    """Whitespace-insensitive token stream with proof holes masked."""
    return HOLE.sub("PROOF_HOLE", text).split()


def test_logical_target_matches_golden(example_cu):
    want = (DATA / "example_logical.txt").read_text()
    assert tokens(emit_logical(example_cu)) == tokens(want)


def test_comp_target_matches_golden_exactly(example_cu):
    want = (DATA / "example_comp.txt").read_text()
    assert emit_comp(example_cu) == want


def test_emission_is_deterministic():
    runs = [compile_files(data("example.fcl")) for _ in range(2)]
    assert emit_logical(runs[0]) == emit_logical(runs[1])
    assert emit_comp(runs[0]) == emit_comp(runs[1])


# ---------------------------------------------------------------------------
# Proof holes


def test_proof_holes_are_content_addressed(example_cu):
    holes = set(HOLE.findall(emit_logical(example_cu)))
    named = {h.rsplit("_", 1)[0] for h in holes}
    assert named == {
        "PROOF_HOLE_TheInt_ltNotGt",
        "PROOF_HOLE_IsIn_lowMin",
    }
    # one apply per proof, nothing else mentions the hole
    text = emit_logical(example_cu)
    for h in holes:
        assert text.count(h) == 1
        assert f"apply {h}." in text


def test_hole_name_tracks_statement_content(example_cu):
    ti = example_cu.species["TheInt"]
    mi = ti.methods["ltNotGt"]
    a = proof_hole_name("TheInt", "ltNotGt", mi.statement, mi.proof)
    b = proof_hole_name("TheInt", "ltNotGt", mi.statement, mi.proof)
    assert a == b
    c = proof_hole_name("Other", "ltNotGt", mi.statement, mi.proof)
    assert a != c


def deep_theorem(n: int):
    """The statement and proof of the theorem of `shapes.proof(n)`."""
    unit = on_deep_stack(lambda: parse_source(shapes.proof(n)[0]), AssertionError())
    (s,) = [d for d in unit.decls if getattr(d, "name", None) == "S"]
    (t,) = [m for m in s.methods if m.name == "t"]
    return t.statement, t.proof


def test_a_deep_proof_hole_is_named_by_the_digest_of_its_joined_text():
    for n in (1, 50, 1000):
        statement, proof = deep_theorem(n)
        want = on_deep_stack(
            lambda: oracles.proof_hole_name("S", "t", statement, proof), AssertionError()
        )
        assert proof_hole_name("S", "t", statement, proof) == want, n


@pytest.mark.parametrize("message", [b"", b"abc", bytes(range(256)) * 3 + b"tail"])
def test_the_proof_hole_digest_is_openssls_sha256(message):
    want = hashlib.sha256(message).hexdigest()
    assert sha256(message).hexdigest() == want
    digest = sha256(message[:1])  # fed in pieces across block ends, as proof_hole_name feeds it
    for i in range(1, len(message), 37):
        digest.update(message[i:i + 37])
    assert digest.hexdigest() == want


def test_naming_a_deep_proof_hole_takes_memory_linear_in_its_depth():
    def peak(n: int) -> int:
        """Bytes allocated at once, a count the machine's load cannot move."""
        statement, proof = deep_theorem(n)
        tracemalloc.start()
        try:  # on the deep stack, as the CLI emits, so a recursive naming runs too
            on_deep_stack(lambda: proof_hole_name("S", "t", statement, proof), AssertionError())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # twice the depth: about twice the memory, where the joined text, whose
    # indentation grows with the depth, takes about four times; the first
    # run fills the interpreter's free lists, which the others reuse
    peak(2000)
    small, large = peak(1000), peak(2000)
    assert large <= 2.5 * small, (small, large)


def test_admitted_proof_becomes_axiom(extended_cu):
    text = emit_logical(extended_cu)
    assert re.search(r"Axiom lowMin\b", text)
    # the inherited valid proof still goes through a hole
    assert "PROOF_HOLE_IsIn_lowMin" in text


# ---------------------------------------------------------------------------
# Erasure


def test_comp_target_drops_logical_content(example_cu):
    comp = emit_comp(example_cu)
    assert "ltNotGt" not in comp
    assert "lowMin" not in comp
    assert "Theorem" not in comp and "Axiom" not in comp


def test_comp_keeps_every_computational_method(example_cu):
    comp = emit_comp(example_cu)
    for m in ("id", "eq", "fromInt", "lt", "gt"):
        assert f"TheInt_{m}" in comp or f" {m} " in comp
    for m in ("filter", "getStatus", "getValue"):
        assert m in comp


def test_logical_target_keeps_statements(example_cu):
    log = emit_logical(example_cu)
    assert "ltNotGt" in log and "lowMin" in log
    assert "Record" in log  # interface records survive erasure


def test_union_appears_in_both_targets(example_cu):
    assert "statut_t" in emit_logical(example_cu)
    assert "statut_t" in emit_comp(example_cu)
    for c in ("In_range", "Too_low", "Too_high"):
        assert c in emit_comp(example_cu)


def test_a_union_over_a_collections_carrier_is_emitted():
    # the constructor's argument is resolved where the union is written
    source = """
species S = representation = int ; let mk (x : int) : Self = x ; end ;;
collection C = implement S ;;
type box = Box (C) | Empty ;;
"""
    cu = compile_source(source)
    assert "  | Box : C.me_as_carrier -> box__t" in emit_logical(cu).splitlines()
    assert "type box = | Box of int | Empty" in emit_comp(cu).splitlines()


UNION_PRELUDE = """
type v = | V0 | V1 (int) ;;
species S = representation = int * bool ; let one : int = 1 ; end ;;
collection C = implement S ;;
"""


@pytest.mark.parametrize(
    "arg, logical, comp",
    [
        ("int", "basics.int__t", "int"),
        ("bool", "basics.bool__t", "bool"),
        ("string", "basics.string__t", "string"),
        ("int * bool", "(basics.int__t * basics.bool__t)", "(int * bool)"),
        ("int -> bool", "(basics.int__t -> basics.bool__t)", "(int -> bool)"),
        ("(int -> int) -> v", "((basics.int__t -> basics.int__t) -> v__t)", "((int -> int) -> v)"),
        ("v", "v__t", "v"),
        ("u", "u__t", "u"),
        ("int -> u", "(basics.int__t -> u__t)", "(int -> u)"),
        ("C", "C.me_as_carrier", "(int * bool)"),
        ("Self", None, None),
    ],
)
def test_a_union_constructor_emits_both_targets_or_is_an_error(arg, logical, comp):
    # an arrow argument is parenthesized, and the computational target
    # writes a collection's carrier as the collection's representation
    source = UNION_PRELUDE + f"type u = A ({arg}) | B ;;\n"
    if logical is None:
        with pytest.raises(CompileError) as ei:
            compile_source(source)
        assert ei.value.kind == TYPE_MISMATCH
        assert ei.value.message == "constructor A of u cannot mention Self"
        assert (ei.value.pos.line, ei.value.pos.col) == (5, 1)
        return
    cu = compile_source(source)
    assert f"  | A : {logical} -> u__t" in emit_logical(cu).splitlines()
    assert f"type u = | A of {comp} | B" in emit_comp(cu).splitlines()
    assert emit_logical(cu) == oracles.emit_logical(cu)
    assert emit_comp(cu) == oracles.emit_comp(cu)


@pytest.mark.parametrize(
    "args", ["u -> bool, string", "(u -> bool) * int", "int -> u -> bool", "(int -> u) -> int", "v -> (u -> v)"]
)
def test_a_union_left_of_an_arrow_in_its_own_constructor_is_an_error(args):
    # the logical target's inductive type would not be strictly positive
    with pytest.raises(CompileError) as ei:
        compile_source(UNION_PRELUDE + f"type u = B | A ({args}) ;;\n")
    assert ei.value.kind == TYPE_MISMATCH
    assert ei.value.message == "constructor A of u cannot take u left of an arrow"
    assert (ei.value.pos.line, ei.value.pos.col) == (5, 1)


# ---------------------------------------------------------------------------
# Collections


def test_collections_emit_in_declaration_order(example_cu):
    comp = emit_comp(example_cu)
    assert comp.index("IntC") < comp.index("In_5_10") < comp.index("In_1_8")


def test_extension_emits_alongside_base():
    cu = compile_files(data("example.fcl", "isine_admitted.fcl"))
    comp = emit_comp(cu)
    assert "IsInE" in comp and "ExtIn_3_8" in comp


# ---------------------------------------------------------------------------
# Tuple patterns

# `Heir` renames `Pairs`' formal `P` to `Q`, which `le` uses inside the arm
# of a `match` on a pair.
PAIRS = """species Base =
  signature mk : int -> Self ;
  signature leq : Self -> Self -> bool ;
end ;;
species BaseImpl =
  inherit Base ;
  representation = int ;
  let mk (x : int) : Self = x ;
  let leq (x : Self, y : Self) : bool = x <0x y ;
end ;;
collection B = implement BaseImpl ;;
species Pairs (P is Base) =
  representation = int ;
  let diff (p : int * int) : int = match p with | (a, b) -> b - a ;
  let le (x : int, y : int) : bool = match (P!mk (x), P!mk (y)) with | (u, v) -> P!leq (u, v) ;
end ;;
species Heir (Q is Base) = inherit Pairs (Q) ; end ;;
collection H = implement Heir (B) ;;
"""


def test_a_tuple_pattern_is_emitted_and_evaluated_and_renamed_in_an_arm():
    cu = compile_source(PAIRS)
    heir = cu.species["Heir"].methods["le"].body
    assert expr_to_source(heir) == "match (Q!mk (x), Q!mk (y)) with | (u, v) -> Q!leq (u, v)"
    logical, comp = emit_logical(cu), emit_comp(cu)
    assert (logical, comp) == (oracles.emit_logical(cu), oracles.emit_comp(cu))
    assert (
        "  Definition diff (p : (basics.int__t * basics.int__t)) : basics.int__t"
        " := (match p with | (a, b) => b - a end)."
    ) in logical.splitlines()
    assert "  let diff (p) = (match p with | (a, b) -> b - a)" in comp.splitlines()
    assert eval_call(cu, "H!diff ((3, 10))") == "7"
    assert (eval_call(cu, "H!le (2, 5)"), eval_call(cu, "H!le (5, 2)")) == ("true", "false")


# ---------------------------------------------------------------------------
# Lets whose type is not determined

# A method has one type.  A let whose type keeps a hole is rejected: each
# unit below once emitted an ill-typed logical target.  A recursive let
# called itself without its type argument, and an heir that narrows a let
# kept the parent's generator, which takes one.
UNDETERMINED = {
    "recursive": (
        """species A = representation = int ;
  let rec len (x, n : int) : int = if n = 0 then 0 else len (x, n - 1) ;
end ;;
""",
        "len", "'_1 -> int -> int", (2, 11),
    ),
    "narrowed": (
        """
species A =
  representation = int ;
  let id (x) = x ;
  let k (n : int) : int = id (n) ;
  theorem idp : all x : int, id (x) = x proof = admitted ;
end ;;
species N =
  inherit A ;
  signature id : int -> int ;
  theorem idt2 : all x : int, id (x) = x proof = by property idp ;
end ;;
""",
        "id", "'_1 -> '_1", (4, 7),
    ),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("name", sorted(UNDETERMINED))
def test_a_let_whose_type_is_not_determined_is_a_type_mismatch_at_the_let(capsys, tmp_path, name, command):
    source, let, shown, (line, col) = UNDETERMINED[name]
    message = f"the type of {let} is not determined: {shown}; annotate it"
    with pytest.raises(CompileError) as e:
        compile_source(source)
    assert (e.value.kind, e.value.message) == (TYPE_MISMATCH, message)
    assert (e.value.pos.line, e.value.pos.col) == (line, col)
    path = tmp_path / "unit.fcl"
    path.write_text(source)
    code = main([command, str(path), *SUBCOMMANDS[command]])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == f"{path}:{line}:{col}: error: TypeMismatch: {message}\n"


def test_a_string_literal_is_escaped_in_both_targets():
    cu = compile_source('species S =\n  let s (x : int) : string = "a \\" b \\\\ c" ;\nend ;;\n')
    logical = '  Definition s (x : basics.int__t) : basics.string__t := "a \\" b \\\\ c".'
    assert logical in emit_logical(cu).splitlines()
    assert '  let s (x) = "a \\" b \\\\ c"' in emit_comp(cu).splitlines()


REFUSALS = {
    "render_type": (lambda: render_type(TVar(3), RenderEnv("logical")), "cannot render type TVar(uid=3)"),
    "_comp_type": (lambda: _comp_type(TSelf(), {}), "cannot render type TSelf()"),
    "render_expr": (
        lambda: render_expr(Quant(), RenderEnv("logical")),
        "cannot render expression Quant(pos=Pos(line=0, col=0), kind='all', vars=[], ty=None, body=None)",
    ),
    "_pattern": (
        lambda: _pattern(Pattern(), RenderEnv("comp")), "cannot render pattern Pattern(pos=Pos(line=0, col=0))"),
    "type_to_source": (lambda: type_to_source(TGen(0)), "cannot print type TGen(idx=0)"),
    "expr_to_source": (
        lambda: expr_to_source(PWild()), "cannot print expression PWild(pos=Pos(line=0, col=0))"),
    "pattern_to_source": (
        lambda: pattern_to_source(Pattern()), "cannot print pattern Pattern(pos=Pos(line=0, col=0))"),
    "proof_to_source": (  # a step with no sub-proof, which the parser rejects
        lambda: list(proof_to_source(ProofStep((1, "a"), is_qed=True), "")), "cannot print proof None"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_a_renderer_refuses_a_node_it_has_no_case_for(name):
    # no input reaches these: a body holds no formula, and a unit's types
    # and patterns are the kinds each renderer writes
    render, message = REFUSALS[name]
    with pytest.raises(ValueError) as e:
        render()
    assert str(e.value) == message
