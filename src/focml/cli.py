"""Command line driver.

    focml COMMAND FILE... [OPTION VALUE]...

`COMMANDS` is the grammar: each subcommand, what it does and its options.
Files and options may come in any order.  An option's value is the next
argument, or follows `=` (`--json=OUT`); a value that begins with `-`,
other than `-` itself, must be written with `=`.  Options are spelled in
full, never abbreviated.  `-h` or `--help` prints the usage to stdout and
exits 0, and `--` ends the options.  A usage error prints the usage and
`focml: error: ...` to stderr.

Exit codes: 0 success, 1 compile or evaluation error, 2 usage error.
Each subcommand runs on the deep stack (`errors.on_deep_stack`).  As a
process (`run`), the CLI exits without finalizing the interpreter.
`FOCML_COLOR=0|1` overrides the tty detection for diagnostic coloring.
"""

from __future__ import annotations

import gc
import os
import sys
from typing import Callable, NoReturn

from .driver import CompiledUnit, compile_files
from .errors import DEPTH_LIMIT, CompileError, Diagnostic, EvalFailure, on_deep_stack

_REQUIRED = object()  # the default of an option that must be given

# subcommand -> (what it does, {option: (metavar, default, help)})
COMMANDS: dict[str, tuple[str, dict[str, tuple[str, object, str]]]] = {
    "check": ("parse, flatten, type and analyze", {}),
    "deps": (
        "write the dependency report as JSON",
        {"--json": ("OUT", "-", "output path, - for stdout")},
    ),
    "emit": (
        "generate checkable and executable code",
        {
            "--logical": ("OUT", None, "logical target output path"),
            "--comp": ("OUT", None, "computational target output path"),
        },
    ),
    "eval": (
        "evaluate a collection method call",
        {"--call": ("EXPR", _REQUIRED, 'e.g. "In_5_10!filter (12)"')},
    ),
    "doc": (
        "write the documentation summary",
        {"--out": ("OUT", "-", "output path, - for stdout")},
    ),
}

_HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: focml {{{','.join(COMMANDS)}}} FILE... [OPTION VALUE]..."
    parts = [
        f"{opt} {metavar}" if default is _REQUIRED else f"[{opt} {metavar}]"
        for opt, (metavar, default, _) in COMMANDS[command][1].items()
    ]
    return " ".join(["usage: focml", command, "FILE...", *parts])


def _help(command: str | None) -> NoReturn:
    lines = [_usage(command), ""]
    if command is None:
        lines.append("compiler for the focml species language")
        lines += [f"  {name:<16} {what}" for name, (what, _) in COMMANDS.items()]
    else:
        what, options = COMMANDS[command]
        lines.append(what)
        lines += [f"  {f'{opt} {mv}':<16} {text}" for opt, (mv, _, text) in options.items()]
    lines.append(f"  {'-h, --help':<16} show this message and exit")
    print("\n".join(lines))
    raise SystemExit(0)


def _fail(command: str | None, message: str) -> NoReturn:
    print(f"{_usage(command)}\nfocml: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list[str]) -> tuple[str, list[str], dict[str, object]]:
    """The subcommand, its files and the value of each of its options,
    keyed as spelled (`--json`); an option not given has its default."""
    if not argv:
        _fail(None, "a subcommand is required")
    command = argv[0]
    if command in _HELP:
        _help(None)
    if command not in COMMANDS:
        _fail(None, f"unknown subcommand {command!r} (choose from {', '.join(COMMANDS)})")
    options = COMMANDS[command][1]
    values = {opt: default for opt, (_, default, _) in options.items()}
    files: list[str] = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg in _HELP:
            _help(command)
        if arg == "--":
            files += rest
        elif arg.startswith("-") and arg != "-":
            opt, eq, value = arg.partition("=")
            if opt not in options:
                _fail(command, f"unknown option {opt}")
            if not eq:
                value = next(rest, None)
                if value is None or (value.startswith("-") and value != "-"):
                    _fail(command, f"{opt} needs a value: {opt} {options[opt][0]}")
            values[opt] = value
        else:
            files.append(arg)
    for opt, value in values.items():
        if value is _REQUIRED:
            _fail(command, f"{opt} is required")
    if not files:
        _fail(command, "a source file is required")
    return command, files, values


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
        with open(target, "w") as out:
            out.write(text)


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


def main(argv: list[str] | None = None) -> int:
    command, files, values = parse_args(sys.argv[1:] if argv is None else argv)
    action = _action(command, values)
    try:
        overflow = CompileError(DEPTH_LIMIT, "nested too deeply")
        return on_deep_stack(lambda: action(_compile(files)), overflow)
    except CompileError as err:
        _report(err.to_diagnostic(files[0]))
        return 1
    except OSError as err:
        print(f"focml: {err}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()  # an in-process caller keeps nothing frozen


def _action(command: str, values: dict) -> Callable[[CompiledUnit], int]:
    """What the subcommand does with the compiled files, after checking
    its options, before anything is compiled.  It loads here what only it
    runs: the report writers for `deps` and `doc`, the plan builders and
    the emitters for `emit`, the plan builders and the evaluator for
    `eval`.  They load on the calling thread: a module first imported on
    the deep stack's worker raises the peak memory of the process."""
    match command:
        case "deps":
            from .report import render_deps_report

            def act(cu: CompiledUnit) -> int:
                _write(values["--json"], render_deps_report(cu))
                return 0
        case "emit":
            logical, comp = values["--logical"], values["--comp"]
            if logical is None and comp is None:
                _fail(command, "emit needs --logical and/or --comp")
            from .emit import emit_comp, emit_logical

            def act(cu: CompiledUnit) -> int:
                if logical is not None:
                    _write(logical, emit_logical(cu))
                if comp is not None:
                    _write(comp, emit_comp(cu))
                return 0
        case "eval":
            from . import generators  # noqa: F401  `driver.plan_unit` builds with it
            from .evaluator import eval_call

            def act(cu: CompiledUnit) -> int:
                try:
                    print(eval_call(cu, values["--call"]))
                except CompileError as err:
                    _report(err.to_diagnostic("<call>"))
                    return 1
                except EvalFailure as err:
                    _report(Diagnostic(err.kind, err.message, file="<call>"))
                    return 1
                return 0
        case "doc":
            from .report import doc_text

            def act(cu: CompiledUnit) -> int:
                _write(values["--out"], doc_text(cu))
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
