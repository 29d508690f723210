"""End-to-end runs of the command line driver."""

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import DATA, data

from focml import compile_files, compile_unit
from focml.cli import main
from focml.errors import CompileError

import oracles

EXAMPLE = data("example.fcl")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# check


def test_check_accepts_the_example(capsys):
    code, out, err = run(capsys, "check", *EXAMPLE)
    assert (code, out, err) == (0, "", "")


def test_check_rejects_a_carrier_leak(capsys):
    code, out, err = run(capsys, "check", *data("wrong.fcl"))
    assert code == 1
    assert out == ""
    assert "error: WrongCarrierLeak:" in err
    assert "wrong.fcl:4:" in err
    assert "[incr (x) = x + 1]" in err


def test_check_rejects_a_dependency_cycle(capsys):
    code, _, err = run(capsys, "check", *data("evenodd.fcl"))
    assert code == 1
    assert "CycleInDependencies" in err
    assert "even" in err and "odd" in err


def test_check_rejects_an_incomplete_collection(capsys):
    code, _, err = run(
        capsys, "check", *data("example.fcl", "isine.fcl", "isine_coll.fcl")
    )
    assert code == 1
    assert "IncompleteSpecies" in err
    assert "the proof of lowMin was reverted" in err


def test_warnings_do_not_fail_the_build(capsys):
    code, out, err = run(capsys, "check", *data("example.fcl", "isine.fcl"))
    assert code == 0
    assert out == ""
    assert "warning: ProofError: proof of lowMin (from IsIn) is reverted" in err


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "no/such/file.fcl")
    assert code == 2
    assert "focml:" in err


UNDECODABLE = {
    "bad.fcl": (b"\xff\xfe species", "bad.fcl:1:1", "0xff"),
    "latin1.fcl": (b"species S =\n  (* caf\xe9 *)\n  let f : int = 1 ;\nend ;;\n", "latin1.fcl:2:9", "0xe9"),
}
SUBCOMMANDS = {
    "check": [], "deps": [], "doc": [], "emit": ["--logical", "-", "--comp", "-"],
    "eval": ["--call", "C!f (1)"],
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_a_file_that_is_not_utf8_is_a_syntax_error(capsys, tmp_path, name, command):
    text, where, byte = UNDECODABLE[name]
    path = tmp_path / name
    path.write_bytes(text)
    code, out, err = run(capsys, command, str(path), *SUBCOMMANDS[command])
    assert (code, out) == (1, "")
    assert err == f"{tmp_path / where}: error: SyntaxError: invalid UTF-8 byte {byte}\n"


def test_sources_are_read_as_utf8_with_text_line_ends(tmp_path):
    # a string may span lines: its text holds the line end as read
    plain = "species S =\n  (* caf\u00e9 *)\n  let f (x : int) : string = \"caf\u00e9\nau lait\" ;\nend ;;\n"
    (tmp_path / "lf.fcl").write_bytes(plain.encode("utf-8"))
    (tmp_path / "crlf.fcl").write_bytes(plain.replace("\n", "\r\n").encode("utf-8"))
    lf, crlf = (compile_files([str(tmp_path / f)]).species["S"].methods["f"] for f in ("lf.fcl", "crlf.fcl"))
    assert lf.body.value == crlf.body.value == "caf\u00e9\nau lait"
    assert lf.pos == crlf.pos


def test_a_name_declared_twice_is_one_diagnostic_in_one_file_or_two(capsys, tmp_path):
    first, second = "species A = end ;;\n", "species B = end ;;\ncollection A = implement B ;;\n"
    (tmp_path / "one.fcl").write_text(first + second)
    (tmp_path / "a.fcl").write_text(first)
    (tmp_path / "b.fcl").write_text(second)
    where = {"one.fcl": "one.fcl:3:1", "b.fcl": "b.fcl:2:1"}
    for files in (["one.fcl"], ["a.fcl", "b.fcl"]):
        code, out, err = run(capsys, "check", *(str(tmp_path / f) for f in files))
        assert (code, out) == (1, "")
        assert err == f"{tmp_path / where[files[-1]]}: error: DuplicateName: duplicate declaration A\n"


# ---------------------------------------------------------------------------
# usage errors


def usage_error(capsys, *argv: str) -> str:
    """The message of the usage error that `argv` is: exit 2, the usage and
    `focml: error: ...` on stderr, nothing on stdout."""
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    out = capsys.readouterr()
    assert (ei.value.code, out.out) == (2, ""), argv
    usage, message = out.err.splitlines()
    assert usage.startswith("usage: focml "), argv
    assert message.startswith("focml: error: "), argv
    return message


def test_no_arguments_is_a_usage_error(capsys):
    assert usage_error(capsys) == "focml: error: a subcommand is required"


def test_unknown_subcommand_is_a_usage_error(capsys):
    message = usage_error(capsys, "frobnicate", *EXAMPLE)
    assert message == "focml: error: unknown subcommand 'frobnicate' (choose from check, deps, emit, eval, doc)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--json", "-", *EXAMPLE], "unknown option --json"),
        (["check", "-x", *EXAMPLE], "unknown option -x"),
        (["emit", "--log", "out.v", *EXAMPLE], "unknown option --log"),  # no abbreviation
        (["deps", *EXAMPLE, "--json"], "--json needs a value: --json OUT"),
        (["deps", "--json", "--help", *EXAMPLE], "--json needs a value: --json OUT"),
        (["emit", "--logical", "--comp", "out.ml", *EXAMPLE], "--logical needs a value: --logical OUT"),
        (["check"], "a source file is required"),
        (["deps", "--json", "out.json"], "a source file is required"),
    ],
)
def test_an_option_or_a_file_out_of_the_grammar_is_a_usage_error(capsys, argv, message):
    assert usage_error(capsys, *argv) == f"focml: error: {message}"


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["-h"], "usage: focml {check,deps,emit,eval,doc} FILE... [OPTION VALUE]..."),
        (["--help", "check"], "usage: focml {check,deps,emit,eval,doc} FILE... [OPTION VALUE]..."),
        (["check", "-h"], "usage: focml check FILE..."),
        (["deps", *EXAMPLE, "--help"], "usage: focml deps FILE... [--json OUT]"),
        (["emit", "--help", "--bogus"], "usage: focml emit FILE... [--logical OUT] [--comp OUT]"),
        (["eval", "-h"], "usage: focml eval FILE... --call EXPR"),
        (["doc", "--out", "-", "-h"], "usage: focml doc FILE... [--out OUT]"),
    ],
)
def test_help_prints_the_usage_to_stdout(capsys, argv, usage):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    out = capsys.readouterr()
    assert (ei.value.code, out.err) == (0, "")
    assert out.out.splitlines()[0] == usage
    assert "-h, --help" in out.out


def test_options_may_come_before_the_files_and_take_their_value_after_an_equals_sign(capsys, tmp_path):
    _, report, _ = run(capsys, "deps", *EXAMPLE)
    out_path = tmp_path / "out.json"
    for argv in (["--json", str(out_path), *EXAMPLE], [f"--json={out_path}", *EXAMPLE], [*EXAMPLE, f"--json={out_path}"]):
        out_path.unlink(missing_ok=True)
        assert run(capsys, "deps", *argv) == (0, "", "")
        assert out_path.read_text() == report
    assert run(capsys, "eval", "--call=In_5_10!filter (12)", *EXAMPLE) == (0, "(10, Too_high)\n", "")
    assert run(capsys, "eval", "--call", "In_5_10!filter (12)", "--", *EXAMPLE)[:2] == (0, "(10, Too_high)\n")


def test_emit_without_targets_is_a_usage_error(capsys):
    assert usage_error(capsys, "emit", *EXAMPLE) == "focml: error: emit needs --logical and/or --comp"


def test_emit_without_targets_fails_before_compiling(capsys):
    # a unit that does not compile still gets the usage error, not its
    # diagnostic
    with pytest.raises(SystemExit) as ei:
        main(["emit", *data("wrong.fcl")])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "emit needs --logical and/or --comp" in err
    assert "WrongCarrierLeak" not in err


def test_main_leaves_nothing_frozen(capsys, tmp_path):
    from test_evaluator import DEEP

    deep = tmp_path / "deep.fcl"
    deep.write_text(DEEP)
    for argv, code in (
        (("check", *EXAMPLE), 0),
        (("eval", *EXAMPLE, "--call", "In_5_10!filter (12)"), 0),
        (("check", *data("wrong.fcl")), 1),  # a CompileError
        (("eval", *EXAMPLE, "--call", "In_5_10!nope (1)"), 1),  # an EvalFailure
        (("eval", str(deep), "--call", "D!grow (0)"), 1),  # a DepthLimit
        (("check", "no/such/file.fcl"), 2),
    ):
        assert run(capsys, *argv)[0] == code, argv
        assert gc.get_freeze_count() == 0, argv


def test_the_action_runs_with_the_compiled_unit_frozen(capsys, monkeypatch):
    # what the compile built lives as long as the command: the action's
    # collections skip it
    from focml import cli, report

    compile_files, render, counts = cli.compile_files, report.render_deps_report, []

    def compiling(files):
        counts.append(gc.get_freeze_count())
        return compile_files(files)

    def rendering(cu):
        counts.append(gc.get_freeze_count())
        return render(cu)

    monkeypatch.setattr(cli, "compile_files", compiling)
    monkeypatch.setattr(report, "render_deps_report", rendering)
    assert run(capsys, "deps", *EXAMPLE)[0] == 0
    before, during = counts
    assert during > before
    assert gc.get_freeze_count() == 0


def test_compiling_leaves_no_cyclic_garbage():
    # frozen for the action, a cycle the compile dropped would live until
    # exit: every compile-time closure frees itself
    from test_properties import benchmark_workloads

    units = [list(benchmark_workloads().chain(1).files.items())]
    units += [[(str(path), path.read_text())] for path in sorted(DATA.glob("*.fcl"))]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for sources in units:
            try:
                cu = compile_unit(sources)
            except CompileError:
                cu = None
            assert gc.collect() == 0, sources[0][0]
            del cu
    finally:
        if enabled:
            gc.enable()


def test_main_leaves_the_collector_on_and_evaluates_with_it(capsys, monkeypatch):
    # compiling pauses the cyclic collector and freezes the unit it built;
    # evaluating runs with the collector on
    from focml import evaluator

    eval_call, during = evaluator.eval_call, []

    def watched(cu, call):
        during.append(gc.isenabled())
        return eval_call(cu, call)

    monkeypatch.setattr(evaluator, "eval_call", watched)
    for argv, code in (
        (("eval", *EXAMPLE, "--call", "In_5_10!filter (12)"), 0),
        (("check", *data("wrong.fcl")), 1),  # a CompileError
        (("eval", *EXAMPLE, "--call", "In_5_10!nope (1)"), 1),  # an EvalFailure
        (("check", "no/such/file.fcl"), 2),
    ):
        assert run(capsys, *argv)[0] == code, argv
        assert gc.isenabled(), argv
    assert during == [True, True]


# ---------------------------------------------------------------------------
# plans on demand


def test_only_emit_and_eval_build_plans(capsys, monkeypatch, tmp_path):
    # counted calls, not time: `check`, `deps` and `doc` build no plan, and
    # `emit` and `eval` plan each species and each collection once
    from focml import driver
    from test_properties import benchmark_workloads

    calls = Counter()

    def counting(name):
        build = getattr(driver, name)

        def counted(*args):
            calls[name] += 1
            return build(*args)

        return counted

    for name in ("build_species_plan", "build_extraction_plan"):
        monkeypatch.setattr(driver, name, counting(name))
    units, call = [], "In_5_10!filter (12)"
    for workload in (benchmark_workloads().chain(1), benchmark_workloads().wide(1)):
        (name, text), = workload.files.items()
        (tmp_path / name).write_text(text)
        units.append(([str(tmp_path / name)], workload.calls[0]))
    for path in sorted(DATA.glob("*.fcl")):
        units.append(([str(path)], (call, None)))
        if path.name != "example.fcl":
            units.append(([*EXAMPLE, str(path)], (call, None)))
    for files, (expr, value) in units:
        try:
            cu = compile_files(files)
        except CompileError:
            cu = driver.CompiledUnit()
        for argv in (["check"], ["deps"], ["doc"]):
            run(capsys, *argv, *files)
            assert not calls, (argv, files)
        planned = {"build_species_plan": len(cu.species), "build_extraction_plan": len(cu.collections)}
        run(capsys, "emit", *files, "--logical", os.devnull, "--comp", os.devnull)
        assert calls == +Counter(planned), files
        calls.clear()
        code, out, _ = run(capsys, "eval", *files, "--call", expr)
        assert calls == +Counter(planned), files
        calls.clear()
        if value is not None:
            assert (code, out) == (0, value + "\n")
    assert len(units) >= 10


# ---------------------------------------------------------------------------
# deps


def test_deps_json_round_trips(capsys, tmp_path):
    out_path = tmp_path / "deps.json"
    code, _, _ = run(capsys, "deps", *EXAMPLE, "--json", str(out_path))
    assert code == 0
    report = oracles.deps_report(compile_files(EXAMPLE))  # built without the writer
    assert json.loads(out_path.read_text()) == report


def test_deps_matches_the_golden_report(capsys):
    _, out, _ = run(capsys, "deps", *EXAMPLE)
    assert out == (DATA / "example_deps.json").read_text()


def test_deps_to_stdout_is_deterministic(capsys):
    _, first, _ = run(capsys, "deps", *EXAMPLE)
    _, second, _ = run(capsys, "deps", *EXAMPLE)
    assert first == second
    report = json.loads(first)
    assert set(report) == {"species", "collections"}


def test_deps_reports_collections(capsys):
    _, out, _ = run(capsys, "deps", *EXAMPLE)
    report = json.loads(out)
    assert report["collections"]["In_5_10"] == {
        "implements": "IsIn",
        "args": ["IntC", "IntC!fromInt (5)", "IntC!fromInt (10)"],
    }


# ---------------------------------------------------------------------------
# emit


def test_emit_writes_both_targets(capsys, tmp_path):
    log, comp = tmp_path / "out.v", tmp_path / "out.ml"
    code, out, _ = run(
        capsys, "emit", *EXAMPLE, "--logical", str(log), "--comp", str(comp)
    )
    assert code == 0 and out == ""
    assert "Theorem ltNotGt" in log.read_text()
    assert "let filter" in comp.read_text()


def test_emit_to_stdout(capsys):
    code, out, _ = run(capsys, "emit", *EXAMPLE, "--comp", "-")
    assert code == 0
    assert "module TheInt" in out


def test_emitted_files_are_stable_across_runs(capsys, tmp_path):
    paths = [tmp_path / n for n in ("a.v", "b.v")]
    for p in paths:
        run(capsys, "emit", *EXAMPLE, "--logical", str(p))
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# eval


def test_eval_prints_the_value(capsys):
    code, out, _ = run(capsys, "eval", *EXAMPLE, "--call", "In_5_10!filter (12)")
    assert code == 0
    assert out == "(10, Too_high)\n"


def test_eval_failure_is_a_diagnostic(capsys):
    code, out, err = run(capsys, "eval", *EXAMPLE, "--call", "In_5_10!nope (1)")
    assert code == 1
    assert out == ""
    assert "EvalError" in err


def test_a_syntax_error_in_the_call_gives_its_line_and_column(capsys):
    code, out, err = run(capsys, "eval", *EXAMPLE, "--call", "In_5_10!filter (12")
    assert (code, out) == (1, "")
    assert err == "<call>:1:19: error: SyntaxError: expected ')', found 'eof'\n"


def test_eval_requires_a_call(capsys):
    assert usage_error(capsys, "eval", *EXAMPLE) == "focml: error: --call is required"


# ---------------------------------------------------------------------------
# doc


def test_doc_summarises_species_and_collections(capsys):
    code, out, _ = run(capsys, "doc", *EXAMPLE)
    assert code == 0
    assert "species TheInt" in out
    assert "theorem ltNotGt : all x y : Self, lt (x, y) -> ~ gt (x, y) (from TheInt)" in out
    assert "collection In_5_10 implements IsIn(IntC, IntC!fromInt (5), IntC!fromInt (10))" in out


def test_doc_marks_reverted_and_admitted_proofs(capsys):
    _, out, _ = run(capsys, "doc", *data("example.fcl", "isine.fcl"))
    assert "reverted: proof of lowMin" in out
    _, out, _ = run(capsys, "doc", *data("example.fcl", "isine_admitted.fcl"))
    assert "admitted: lowMin" in out


def test_doc_writes_to_a_file(capsys, tmp_path):
    out_path = tmp_path / "doc.txt"
    code, out, _ = run(capsys, "doc", *EXAMPLE, "--out", str(out_path))
    assert code == 0 and out == ""
    assert "species Data" in out_path.read_text()


# ---------------------------------------------------------------------------
# color handling


def test_color_can_be_forced(capsys, monkeypatch):
    monkeypatch.setenv("FOCML_COLOR", "1")
    _, _, err = run(capsys, "check", *data("wrong.fcl"))
    assert "\x1b[31merror\x1b[0m" in err


def test_color_can_be_suppressed(capsys, monkeypatch):
    monkeypatch.setenv("FOCML_COLOR", "0")
    _, _, err = run(capsys, "check", *data("wrong.fcl"))
    assert "\x1b[" not in err


def test_default_color_follows_tty(capsys, monkeypatch):
    monkeypatch.delenv("FOCML_COLOR", raising=False)
    _, _, err = run(capsys, "check", *data("wrong.fcl"))
    assert "\x1b[" not in err  # captured stderr is not a tty


# ---------------------------------------------------------------------------
# limits


def focml(*argv: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(
        [sys.executable, "-m", "focml.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_deep_inputs_end_in_output_or_a_diagnostic_in_a_process(tmp_path):
    long_sum = tmp_path / "sum.fcl"
    body = " + ".join(["x"] * 3000)
    long_sum.write_text(
        "species S =\n  representation = int ;\n"
        f"  let f (x : int) : int = {body} ;\nend ;;\ncollection C = implement S ;;\n"
    )
    assert focml("check", str(long_sum)).returncode == 0
    proc = focml("eval", str(long_sum), "--call", "C!f (1)")
    assert (proc.returncode, proc.stdout) == (0, "3000\n")
    deep = tmp_path / "deep.fcl"
    n = 60_000  # 4 frames a level: past the recursion limit of 200,000
    deep.write_text(f"species S =\n  let f (x : int) : int = {'(' * n}x{')' * n} ;\nend ;;\n")
    proc = focml("check", str(deep))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "error: DepthLimit: nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_an_argument_named_like_a_parameter_evaluates_in_a_process(tmp_path):
    from test_typecheck import ARG_SHADOW

    source = tmp_path / "shadow.fcl"
    source.write_text(ARG_SHADOW)
    for call in ("CC!f (3)", "BB!f (3)"):
        proc = focml("eval", str(source), "--call", call)
        assert (proc.returncode, proc.stdout) == (0, "10\n")
        assert "Traceback" not in proc.stderr


def test_python_m_focml_runs_the_command_line():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for argv, code in ((["tests/data/example.fcl"], 0), (["tests/data/wrong.fcl"], 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "focml", "check", *argv],
            capture_output=True, text=True, env=env, cwd=root, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
    assert "error: WrongCarrierLeak:" in proc.stderr


def test_a_process_writes_all_its_output_and_keeps_its_exit_codes(tmp_path):
    # `cli.run` flushes the streams and exits without finalizing the
    # interpreter.  Output through a pipe arrives whole: a small one, which
    # waits in the stream's buffer, and a large one.
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(root / "src")
    unit = tmp_path / "lets.fcl"
    lets = "".join(f"  let f{i} (x : int) : int = x + {i} ;\n" for i in range(2000))
    unit.write_text(f"species S =\n  representation = int ;\n{lets}end ;;\ncollection C = implement S ;;\n")
    report = tmp_path / "report.json"
    cases = [  # arguments, exit code, what stderr holds
        (["deps", str(unit), "--json", "-"], 0, ""),
        (["deps", *EXAMPLE], 0, ""),
        (["eval", *EXAMPLE, "--call", "In_5_10!filter (12)"], 0, ""),
        (["check", *EXAMPLE], 0, ""),
        (["check", *data("wrong.fcl")], 1, "error: WrongCarrierLeak:"),
        (["emit", *EXAMPLE], 2, "emit needs --logical and/or --comp"),
        (["check", "no/such/file.fcl"], 2, "focml:"),
    ]
    for module in ("focml", "focml.cli"):
        def focml_run(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", module, *args], capture_output=True, env=env, timeout=120
            )

        for args, code, diagnostic in cases:
            proc = focml_run(*args)
            assert proc.returncode == code, (module, args, proc.stderr)
            assert diagnostic.encode() in proc.stderr and b"Traceback" not in proc.stderr
            assert (proc.stderr == b"") == (code == 0), (module, args)
            if args[0] == "deps":
                report.unlink(missing_ok=True)
                assert focml_run(*args[:2], "--json", str(report)).returncode == 0
                assert proc.stdout == report.read_bytes(), (module, args)
            elif args[0] == "eval":
                assert proc.stdout == b"(10, Too_high)\n", module
            else:
                assert proc.stdout == b"", (module, args)


def imported_modules(*argv: str) -> set[str]:
    """Every module a `focml` process imports after `site`, from
    `-X importtime`."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "focml.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return set(names[names.index("site") + 1:])


def test_each_subcommand_imports_only_what_it_runs():
    runs = {
        "check": ["check", *EXAMPLE],
        "deps": ["deps", *EXAMPLE],
        "doc": ["doc", *EXAMPLE],
        "eval": ["eval", *EXAMPLE, "--call", "In_5_10!filter (12)"],
        "emit": ["emit", *EXAMPLE, "--logical", os.devnull, "--comp", os.devnull],
    }
    loaded = {command: imported_modules(*argv) for command, argv in runs.items()}
    for command, modules in loaded.items():
        assert not modules & {"argparse", "dataclasses", "gettext", "inspect", "locale"}, command
        # OpenSSL is 3.6 MB of peak RSS; the report writes JSON through `_json`
        assert not modules & {"hashlib", "_hashlib", "json"}, command
    for command in ("check", "deps", "doc"):
        assert not loaded[command] & {"focml.emit", "focml.evaluator"}, command
    for command in ("check", "emit", "eval"):
        assert not loaded[command] & {"_json", "focml.report"}, command
    assert not loaded["check"] & {"focml.generators", "focml.pretty"}
    for command in ("deps", "doc"):  # a report reads no plan
        assert "focml.generators" not in loaded[command], command
    assert {"focml.report", "_json"} <= loaded["deps"] & loaded["doc"]
    assert {"focml.evaluator", "focml.generators"} <= loaded["eval"]
    assert not loaded["eval"] & {"focml.emit", "focml.pretty"}
    assert {"focml.emit", "_sha2" if sys.version_info >= (3, 12) else "_sha256"} <= loaded["emit"]


def test_the_benchmark_tracer_sees_every_plan_it_wraps(monkeypatch):
    # perfbench/layers.py wraps these names in `focml.driver` by `setattr`:
    # one the driver does not read there would trace as 0 ms
    from focml import driver

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import layers

    for name in (*layers.DRIVER_NAMES, "compile_unit", "render_deps_report"):
        assert hasattr(driver, name), name
    tracer = layers.Tracer()
    with tracer.installed():
        cu = driver.plan_unit(compile_files(EXAMPLE))
    assert tracer.calls["build_species_plan"] == len(cu.species) > 0
    assert tracer.calls["build_extraction_plan"] == len(cu.collections) > 0
