"""End-to-end runs of the command line driver."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA, data

from focml import compile_files, deps_report
from focml.cli import main

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


# ---------------------------------------------------------------------------
# usage errors


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate", *EXAMPLE])
    assert ei.value.code == 2


def test_emit_without_targets_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["emit", *EXAMPLE])
    assert ei.value.code == 2
    assert "emit needs --logical and/or --comp" in capsys.readouterr().err


def test_emit_without_targets_fails_before_compiling(capsys):
    # a unit that does not compile still gets the usage error, not its
    # diagnostic
    with pytest.raises(SystemExit) as ei:
        main(["emit", *data("wrong.fcl")])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "emit needs --logical and/or --comp" in err
    assert "WrongCarrierLeak" not in err


def test_main_leaves_nothing_frozen(capsys):
    assert run(capsys, "check", *EXAMPLE)[0] == 0
    assert gc.get_freeze_count() == 0
    assert run(capsys, "check", *data("wrong.fcl"))[0] == 1
    assert gc.get_freeze_count() == 0


# ---------------------------------------------------------------------------
# deps


def test_deps_json_round_trips(capsys, tmp_path):
    out_path = tmp_path / "deps.json"
    code, _, _ = run(capsys, "deps", *EXAMPLE, "--json", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text()) == deps_report(compile_files(EXAMPLE))


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


def test_eval_requires_a_call(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["eval", *EXAMPLE])
    assert ei.value.code == 2


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
    n = 25_000  # 12 frames a level: past the recursion limit of 200,000
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


def imported_modules(*argv: str) -> set[str]:
    """Every module a `focml` process imports, from `-X importtime`."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "focml.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


def test_each_subcommand_imports_only_what_it_runs():
    slow = {"dataclasses", "focml.emit", "focml.evaluator", "hashlib"}
    for argv in (["check"], ["deps"], ["doc"]):
        assert not imported_modules(*argv, *EXAMPLE) & slow, argv
    loaded = imported_modules("eval", *EXAMPLE, "--call", "In_5_10!filter (12)")
    assert "focml.evaluator" in loaded
    assert not loaded & {"dataclasses", "focml.emit", "hashlib"}
