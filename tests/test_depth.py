"""Deep and long inputs end in output or a diagnostic, never a traceback.

The inputs come from `shapes.py`; each runs through `cli.main`, which puts
every subcommand on the deep stack (`errors.on_deep_stack`).
"""

from __future__ import annotations

import random
import sys

import pytest

from focml import compile_source, deps_report, doc_text, emit_comp, emit_logical
from focml.ast import T_BOOL, T_INT, Not, Pos, TArrow, TTuple, Var, same
from focml.errors import CompileError, on_deep_stack

import shapes

SEED = 1404


@pytest.mark.parametrize("shape", shapes.SHAPES)
def test_deep_and_long_inputs_end_in_output_or_a_diagnostic(shape, tmp_path):
    path = tmp_path / "deep.fcl"
    # `passes` checks the eval value, and that a failure is a DepthLimit
    # diagnostic without a traceback
    assert shapes.passes(shape, 1000, path)
    depth = random.Random(f"{SEED}-{shape}").randrange(1001, 1250)
    shapes.passes(shape, depth, path)


def test_past_the_limit_is_a_depth_limit_at_the_token_reached(tmp_path):
    n = 60_000  # 4 frames a level: past the recursion limit of 200,000
    source, call, _ = shapes.parens(n)
    path = tmp_path / "deep.fcl"
    path.write_text(source)
    code, out, err = shapes.run("check", path, call)
    assert (code, out) == (1, "")
    line, col = err.split(":")[1:3]
    assert line == "6"  # the line of f, somewhere inside its parentheses
    assert len("  let f (x : int) : int = ") < int(col) <= len("  let f (x : int) : int = ") + n
    assert err.endswith(": error: DepthLimit: nested too deeply\n")


def test_a_deep_call_expression_is_a_depth_limit(tmp_path):
    path = tmp_path / "shallow.fcl"
    path.write_text(shapes.parens(1)[0])
    n = 60_000  # 4 frames a level: past the recursion limit of 200,000
    call = "C!f (" + "(" * n + "1" + ")" * n + ")"
    code, out, err = shapes.run("eval", path, call)
    assert (code, out) == (1, "")
    line, col = err.split(":")[1:3]
    assert line == "1"  # the call's, somewhere inside its parentheses
    assert len("C!f (") < int(col) <= len("C!f (") + n
    assert err.startswith("<call>:") and err.endswith(": error: DepthLimit: nested too deeply\n")


def test_past_the_stack_after_parsing_is_a_depth_limit_at_the_declaration():
    # The test's own thread has Python's default recursion limit, which a
    # sum of 3,000 terms exceeds after parsing.
    source = shapes.plus(3000)[0]
    with pytest.raises(CompileError) as ei:
        compile_source(source)
    assert ei.value.kind == "DepthLimit"
    assert ei.value.message == "nested too deeply"
    # the declaration of S, the species that writes the sum
    assert (ei.value.pos.line, ei.value.pos.col) == (4, 1)
    # On the deep stack it compiles; writing a deep body or statement out
    # here fails at S too.
    for source, writers in (
        (source, (emit_logical, emit_comp)),
        (shapes.nots(3000)[0], (emit_logical, deps_report, doc_text)),
    ):
        cu = on_deep_stack(lambda: compile_source(source), AssertionError())
        for write in writers:
            with pytest.raises(CompileError) as ei:
                write(cu)
            assert ei.value.kind == "DepthLimit"
            assert (ei.value.file, ei.value.pos.line, ei.value.pos.col) == ("<input>", 4, 1)


def test_deep_trees_compare_past_the_recursion_limit():
    # The test's own thread has Python's default recursion limit, so `==`
    # fails on these trees and `same` compares them from its stack.
    def chain(n, leaf):
        t = leaf
        for _ in range(n):
            t = TArrow(T_INT, TTuple((t, T_BOOL)))
        return t

    def nots(n, ref, line):
        e = Var("x", ref, pos=Pos(line, 1))
        for _ in range(n):
            e = Not(e, pos=Pos(line, 1))
        return e

    n = 5000
    assert same(chain(n, T_INT), chain(n, T_INT))
    assert not same(chain(n, T_INT), chain(n, T_BOOL))
    assert not same(chain(n, T_INT), chain(n - 1, T_INT))
    assert same([chain(n, T_INT)], [chain(n, T_INT)])
    # tags and positions are not part of a tree, as for `==`
    assert same(nots(n, "local", 1), nots(n, None, 2))
    assert not same(nots(n, None, 1), nots(n + 1, None, 1))


def test_checking_a_sum_is_linear_in_its_length():
    def counted(n: int) -> int:
        """The calls, Python and built-in, and generator resumptions that
        compiling a sum of `n` terms makes: a count, not a time, so a busy
        machine cannot change it."""
        source = shapes.plus(n)[0]
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        def run() -> None:
            sys.setprofile(profile)  # for this thread, the deep stack's
            try:
                compile_source(source)
            finally:
                sys.setprofile(None)

        on_deep_stack(run, AssertionError())
        return calls

    small = counted(500)
    large = counted(2000)
    # four times the length: linear makes about 4x the calls, a walk that
    # resumes one generator per level of the tree about 16x
    assert large < 6 * small
