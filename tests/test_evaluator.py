"""Concrete evaluation of collection methods."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from focml import compile_source, emit_comp
from focml.errors import EvalFailure
from focml.evaluator import (
    MAX_DEPTH, BuiltinFn, Interpreter, VCon, eval_call, format_value,
)

import oracles


def test_filter_agrees_with_oracle(example_cu):
    xs = [3, 5, 7, 10, 12]
    want = oracles.filter_table(xs, 5, 10)
    got = [eval_call(example_cu, f"In_5_10!filter ({x})") for x in xs]
    assert got == [f"({v}, {s})" for v, s in want]


def test_filter_clamps_into_range(example_cu):
    assert eval_call(example_cu, "In_5_10!filter (3)") == "(5, Too_low)"
    assert eval_call(example_cu, "In_5_10!filter (12)") == "(10, Too_high)"
    assert eval_call(example_cu, "In_5_10!filter (7)") == "(7, In_range)"


def test_second_collection_uses_its_own_bounds(example_cu):
    assert eval_call(example_cu, "In_1_8!filter (12)") == "(8, Too_high)"
    assert eval_call(example_cu, "In_1_8!filter (3)") == "(3, In_range)"


def test_projections_compose(example_cu):
    got = eval_call(example_cu, "In_5_10!getValue (In_5_10!filter (12))")
    assert got == "10"
    got = eval_call(example_cu, "In_5_10!getStatus (In_5_10!filter (12))")
    assert got == "Too_high"


def test_late_binding_picks_the_final_definition(example_cu):
    # Data says "default"; TheInt overrides id and IntC must see that
    assert eval_call(example_cu, "IntC!id") == '"native int"'
    assert eval_call(example_cu, "IntC!fromInt (5)") == "5"
    assert eval_call(example_cu, "IntC!lt (3, 4)") == "true"
    assert eval_call(example_cu, "IntC!gt (3, 4)") == "false"


def test_extension_collection_skips_the_low_check(extended_cu):
    assert eval_call(extended_cu, "ExtIn_3_8!filter (1)") == "(1, In_range)"
    assert eval_call(extended_cu, "ExtIn_3_8!filter (12)") == "(8, Too_high)"
    # the base collection is not disturbed by the extension
    assert eval_call(extended_cu, "In_5_10!filter (3)") == "(5, Too_low)"


# ---------------------------------------------------------------------------
# Recursion and limits


COUNTER = """
species Counter =
  representation = int ;
  let rec down (n : int) : int =
    if n = 0 then 0 else down (n - 1) ;
  let rec spin (n : int) : int = spin (n + 1) ;
end ;;

collection Cnt = implement Counter ;;
"""


def test_recursive_method_terminates():
    cu = compile_source(COUNTER)
    assert eval_call(cu, "Cnt!down (25)") == "0"


def test_runaway_recursion_hits_the_step_limit():
    cu = compile_source(COUNTER)
    with pytest.raises(EvalFailure) as ei:
        eval_call(cu, "Cnt!spin (0)", step_limit=1000)
    assert ei.value.kind == "StepLimit"


def test_deep_recursion_fails_cleanly_with_a_large_budget():
    # the Python stack gives out long before a default-sized step budget;
    # that must still surface as a StepLimit failure, not a crash
    cu = compile_source(COUNTER)
    with pytest.raises(EvalFailure) as ei:
        eval_call(cu, "Cnt!spin (0)")
    assert ei.value.kind == "StepLimit"


def test_step_limit_not_charged_to_innocent_calls():
    cu = compile_source(COUNTER)
    assert eval_call(cu, "Cnt!down (3)", step_limit=5000) == "0"


DEEP = """
species Deep =
  representation = int ;
  let rec sum (n : int) : int =
    if n = 0 then 0 else n + sum (n - 1) ;
  let rec grow (n : int) : int = 1 + grow (n + 1) ;
end ;;

collection D = implement Deep ;;
"""


def test_tail_recursion_takes_no_stack():
    cu = compile_source(COUNTER)
    assert eval_call(cu, "Cnt!down (100000)") == "0"


def test_non_tail_recursion_ten_thousand_deep():
    cu = compile_source(DEEP)
    assert eval_call(cu, "D!sum (10000)") == "50005000"


def test_runaway_non_tail_recursion_hits_the_depth_limit():
    cu = compile_source(DEEP)
    with pytest.raises(EvalFailure) as ei:
        eval_call(cu, "D!grow (0)")
    assert ei.value.kind == "DepthLimit"
    assert ei.value.message == f"depth limit of {MAX_DEPTH} nested calls exceeded"


def test_depth_limit_through_the_cli_is_a_diagnostic(tmp_path):
    src = tmp_path / "deep.fcl"
    src.write_text(DEEP)
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "focml.cli", "eval", str(src), "--call", "D!grow (0)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error: DepthLimit:" in proc.stderr
    assert "Traceback" not in proc.stderr


CURRY = """
species Curry =
  representation = int ;
  let add (x : int, y : int) : int = x + y ;
  let inc (x : int) : int -> int = add (x) ;
  let twice (x : int) : int = inc (x, x) ;
  let same (x : int) : bool = inc (x) = add (x) ;
end ;;

collection Cu = implement Curry ;;
"""


def test_partial_and_over_application():
    cu = compile_source(CURRY)
    assert eval_call(cu, "Cu!add (2)") == "<fun>"
    assert eval_call(cu, "Cu!inc (2)") == "<fun>"
    assert eval_call(cu, "Cu!twice (21)") == "42"
    # partial applications of one function to equal arguments are equal
    assert eval_call(cu, "Cu!same (3)") == "true"


def test_partially_applied_builtin_is_an_eval_error():
    interp = Interpreter(compile_source(CURRY))
    with pytest.raises(EvalFailure) as ei:
        interp.apply(BuiltinFn("+"), [1])
    assert (ei.value.kind, ei.value.message) == (
        "EvalError", "partial application of builtin +"
    )
    assert interp.apply(BuiltinFn("+"), [1, 2]) == 3
    assert interp.depth == 0


# ---------------------------------------------------------------------------
# Failure modes


def test_unknown_collection_fails(example_cu):
    with pytest.raises(EvalFailure) as ei:
        eval_call(example_cu, "Nope!filter (3)")
    assert ei.value.kind == "EvalError"


def test_unknown_method_fails(example_cu):
    with pytest.raises(EvalFailure) as ei:
        eval_call(example_cu, "In_5_10!nope (3)")
    assert ei.value.kind == "EvalError"


def test_wrong_arity_fails(example_cu):
    with pytest.raises(EvalFailure) as ei:
        eval_call(example_cu, "In_5_10!filter (1, 2)")
    assert ei.value.kind == "EvalError"


def test_logical_methods_cannot_be_run(example_cu):
    with pytest.raises(EvalFailure):
        eval_call(example_cu, "IntC!ltNotGt (1, 2)")


# ---------------------------------------------------------------------------
# Value formatting


def test_constructor_values_render_with_arguments():
    src = """
type box_t = | Empty | Box (int) ;;

species Boxer =
  representation = int ;
  let wrap (n : int) : box_t = Box (n) ;
  let unwrap (b : box_t) : int =
    match b with | Empty -> 0 | Box (n) -> n ;
end ;;

collection Bx = implement Boxer ;;
"""
    cu = compile_source(src)
    assert eval_call(cu, "Bx!wrap (3)") == "Box (3)"
    assert eval_call(cu, "Bx!unwrap (Bx!wrap (9))") == "9"
    assert eval_call(cu, "Bx!unwrap (Empty)") == "0"


def test_string_values_are_quoted(example_cu):
    assert eval_call(example_cu, "IntC!id").startswith('"')


def test_format_value_is_linear_in_the_depth_of_a_value():
    def succ_chain(n: int) -> VCon:
        v = VCon("Zero")
        for _ in range(n):
            v = VCon("Succ", (v,))
        return v

    def counted(v) -> tuple[int, int, str]:
        """The calls, Python and built-in, that formatting `v` makes, and
        how deeply they nest: counts, not times, so a busy machine cannot
        change them."""
        calls = depth = deepest = 0

        def profile(frame, event, arg):
            nonlocal calls, depth, deepest
            if event in ("call", "c_call"):
                calls += 1
                depth += 1
                deepest = max(deepest, depth)
            elif event in ("return", "c_return", "c_exception"):
                depth -= 1

        sys.setprofile(profile)
        try:
            text = format_value(v)
        finally:
            sys.setprofile(None)
        return calls, deepest, text

    small, small_depth, text = counted(succ_chain(10_000))
    assert text == "Succ (" * 10_000 + "Zero" + ")" * 10_000
    large, large_depth, text = counted(succ_chain(40_000))
    assert text == "Succ (" * 40_000 + "Zero" + ")" * 40_000
    # four times the depth: at most four times the calls, nested no deeper
    assert large <= 4 * small
    assert large_depth == small_depth <= 5


# `D` passes the bare `C!zero` for `S`'s entity parameter `v`: the same
# node as a collection's method passed for a method lift, here `P!get`.
ENTITY_METHOD = """
species Base =
  representation = int ;
  let zero : Self = 0 ;
  let get (x : Self) : int = x ;
end ;;

species S (P is Base, v in P) =
  representation = int ;
  let f (x : int) : int = x + P!get (v) ;
end ;;

collection C = implement Base ;;
collection D = implement S (C, C!zero) ;;
"""


def test_an_entity_argument_naming_a_collection_method_is_evaluated():
    cu = compile_source(ENTITY_METHOD)
    assert eval_call(cu, "D!f (3)") == "3"
    # the callee's lift, not the argument's node, makes `C!zero` an entity:
    # building `C` runs `zero` (1 step), `D` evaluates `C!zero` (1) and its
    # creator `v`, for `f` (1); `C!get` is looked up
    assert Interpreter(cu).steps == 3
    comp = emit_comp(cu).splitlines()
    assert "  let effective_collection = S.collection_create C.zero C.get" in comp
