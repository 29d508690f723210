"""Command line driver.

Exit codes: 0 success, 1 compile or evaluation error, 2 usage error.
Each subcommand runs on the deep stack (`errors.on_deep_stack`).  As a
process (`run`), the CLI exits without finalizing the interpreter.
`FOCML_COLOR=0|1` overrides the tty detection for diagnostic coloring.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Callable, NoReturn

from .driver import CompiledUnit, compile_files, doc_text, render_deps_report
from .errors import DEPTH_LIMIT, CompileError, Diagnostic, EvalFailure, on_deep_stack


def _use_color() -> bool:
    flag = os.environ.get("FOCML_COLOR")
    if flag == "0":
        return False
    if flag == "1":
        return True
    return sys.stderr.isatty()


def _report(diag: Diagnostic) -> None:
    print(diag.format(color=_use_color()), file=sys.stderr)


def _write(target: str, text: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)


def _compile(files: list[str]) -> CompiledUnit:
    # Compiling builds a graph that lives as long as the command: paused, the
    # cyclic collector does not walk it as it grows, nor once it is frozen.
    enabled = gc.isenabled()
    gc.disable()
    try:
        cu = compile_files(files)
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    for w in cu.warnings:
        _report(w)
    return cu


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focml", description="compiler for the focml species language"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse, flatten, type and analyze")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("deps", help="write the dependency report as JSON")
    p.add_argument("files", nargs="+")
    p.add_argument("--json", default="-", metavar="OUT", help="output path, - for stdout")

    p = sub.add_parser("emit", help="generate checkable and executable code")
    p.add_argument("files", nargs="+")
    p.add_argument("--logical", metavar="OUT", help="logical target output path")
    p.add_argument("--comp", metavar="OUT", help="computational target output path")

    p = sub.add_parser("eval", help="evaluate a collection method call")
    p.add_argument("files", nargs="+")
    p.add_argument("--call", required=True, metavar="EXPR", help='e.g. "In_5_10!filter(12)"')

    p = sub.add_parser("doc", help="write the documentation summary")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", default="-", metavar="OUT", help="output path, - for stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    action = _action(parser, args)
    try:
        overflow = CompileError(DEPTH_LIMIT, "nested too deeply")
        return on_deep_stack(lambda: action(_compile(args.files)), overflow)
    except CompileError as err:
        _report(err.to_diagnostic(args.files[0]))
        return 1
    except OSError as err:
        print(f"focml: {err}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()  # an in-process caller keeps nothing frozen


def _action(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Callable[[CompiledUnit], int]:
    """What the subcommand does with the compiled files, after checking
    its options, before anything is compiled.  Only `emit` loads the
    emitters and only `eval` the evaluator, and they load them here, on the
    calling thread: a module first imported on the deep stack's worker
    raises the peak memory of the process."""
    match args.command:
        case "deps":
            def act(cu: CompiledUnit) -> int:
                _write(args.json, render_deps_report(cu))
                return 0
        case "emit":
            if args.logical is None and args.comp is None:
                parser.error("emit needs --logical and/or --comp")
            from .emit import emit_comp, emit_logical

            def act(cu: CompiledUnit) -> int:
                if args.logical is not None:
                    _write(args.logical, emit_logical(cu))
                if args.comp is not None:
                    _write(args.comp, emit_comp(cu))
                return 0
        case "eval":
            from .evaluator import eval_call

            def act(cu: CompiledUnit) -> int:
                try:
                    print(eval_call(cu, args.call))
                except CompileError as err:
                    _report(err.to_diagnostic("<call>"))
                    return 1
                except EvalFailure as err:
                    _report(Diagnostic(err.kind, err.message, file="<call>"))
                    return 1
                return 0
        case "doc":
            def act(cu: CompiledUnit) -> int:
                _write(args.out, doc_text(cu))
                return 0
        case _:  # check
            def act(cu: CompiledUnit) -> int:
                return 0
    return act


def run() -> NoReturn:
    """`main()` as a process: flush the standard streams and exit with its
    status, skipping the interpreter's teardown, which would only free what
    the process holds.  A flush that fails falls back to `sys.exit`, so that
    Python reports the error as it does at a normal exit."""
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe or a closed stream
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
