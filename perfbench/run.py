"""focml benchmark: wall time of the `focml` CLI on seeded workloads, and a
separate traced in-process run that splits compile time by layer.

Run from the root of a checkout (nothing needs installing; the compiler is
imported from `src/`):

    python3 perfbench/run.py --workload chain --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With `--trace 0` it times `focml check`, `deps`, `emit` and one `eval` per
call of the workload's call list, each in its own process, in rounds, one
process at a time, until `--seconds` are spent, and reports medians of the
wall times scaled to a reference machine speed (`harness.Clock`).  With
`--trace 1` it reports the per-layer metrics of `layers.py` instead.  Either
way it checks every output against the generator's references and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Generated files live under `.perfbench/` at the root, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_deps, check_emit, check_eval, check_generator  # noqa: E402
from harness import (  # noqa: E402
    REFERENCE_SECONDS,
    ROOT,
    Child,
    Clock,
    Tally,
    child_problems,
    focml,
    run_child,
    unit_files,
    write_files,
)
from layers import traced_run  # noqa: E402
from workloads import EXAMPLE, GENERATORS, Workload  # noqa: E402

SETUPS = 3  # setup_s is the median of this many set-ups
REQUIRED = [
    "src/focml/cli.py",
    EXAMPLE,
    "tests/data/example_logical.txt",
    "tests/data/example_comp.txt",
]


def held_out_check(name: str, seed: int, work: Path, tally: Tally) -> None:
    """Generator checks: deterministic for a seed, and another seed gives
    another unit that still compiles."""
    gen = GENERATORS[name]
    tally.note(check_generator(name, seed, gen))
    other = gen(seed + 1)
    where = work / "held_out"
    write_files(other, where)
    c = run_child(focml("check", *unit_files(other, where)), where)
    tally.record(child_problems(f"check of {name} seed {seed + 1}", c))


# ---------------------------------------------------------------------------
# End-to-end run


@dataclass
class Timed:
    child: Child
    seconds: float  # wall time scaled to the reference machine speed


class Unit:
    """One written-out workload and the CLI operations on it, timed by a
    shared `Clock`."""

    def __init__(self, wl: Workload, work: Path, tally: Tally, clock: Clock):
        self.wl, self.work, self.tally, self.clock = wl, work, tally, clock
        work.mkdir(parents=True, exist_ok=True)
        self.files = unit_files(wl, work)
        self.emitted: list[tuple[str, str]] = []
        self.raw: dict[str, list[float]] = {}  # unscaled wall times, for the report

    def run(self, what: str, *args: str) -> Timed:
        c, seconds = self.clock.time(
            lambda: run_child(focml(what, *self.files, *args), self.work)
        )
        self.raw.setdefault(what, []).append(c.seconds)
        return Timed(c, seconds)

    def check(self) -> Timed:
        t = self.run("check")
        self.tally.record(child_problems("check", t.child))
        return t

    def deps(self) -> Timed:
        t = self.run("deps", "--json", "deps.json")
        self.tally.record(
            child_problems("deps", t.child)
            or check_deps(self.wl, (self.work / "deps.json").read_text())
        )
        return t

    def emit(self) -> Timed:
        t = self.run("emit", "--logical", "logical.txt", "--comp", "comp.txt")
        problems = child_problems("emit", t.child)
        if not problems:
            pair = (
                (self.work / "logical.txt").read_text(),
                (self.work / "comp.txt").read_text(),
            )
            problems = check_emit(self.wl, ROOT, *pair)
            if self.emitted and pair != self.emitted[0]:
                problems.append("emitted targets differ between two runs")
            self.emitted.append(pair)
        self.tally.record(problems)
        return t

    def eval_pass(self) -> list[Timed]:
        out = []
        for call, expected in self.wl.calls:
            t = self.run("eval", "--call", call)
            self.tally.record(
                child_problems(f"eval {call}", t.child)
                or check_eval(call, expected, t.child.out)
            )
            out.append(t)
        return out


def end_to_end(wl: Workload, seconds: float, work: Path, tally: Tally) -> dict:
    clock = Clock(work, tally)
    setups = []
    for k in range(SETUPS):
        unit = Unit(wl, work / f"unit{k}", tally, clock)

        def set_up() -> Child:
            write_files(wl, unit.work)
            return run_child(focml("check", *unit.files), unit.work)  # warm-up

        c, took = clock.time(set_up)
        setups.append(took)
        tally.record(child_problems("warm-up check", c))

    times: dict[str, list[float]] = {k: [] for k in ("check_s", "deps_s", "emit_s", "eval_s")}
    rss: list[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        timed = [unit.check(), unit.deps(), unit.emit()]
        calls = unit.eval_pass()
        for key, t in zip(("check_s", "deps_s", "emit_s"), timed):
            times[key].append(t.seconds)
        times["eval_s"].append(sum(t.seconds for t in calls))
        rss.append(max(t.child.rss_mb for t in timed + calls))
        now = time.perf_counter()
        # start another round only if it should end within the budget
        if now - started + (now - round_start) > seconds:
            break
    if len(unit.emitted) < 2:
        unit.emit()  # the determinism check needs two emissions
    logical, comp = unit.emitted[0] if unit.emitted else ("", "")
    n = len(times["check_s"])
    for what, raw in unit.raw.items():
        print(f"{wl.name:8} unscaled {what} median {statistics.median(raw):.4f} s, n={len(raw)}")
    speed = REFERENCE_SECONDS / statistics.median(clock.calibrations)
    print(f"{wl.name:8} machine speed {speed:.3f} of reference, n={len(clock.calibrations)}")
    return {
        "setup_s": (statistics.median(setups), "s", SETUPS),
        **{k: (statistics.median(v), "s", n) for k, v in times.items()},
        "peak_rss_mb": (statistics.median(rss), "MB", n),
        "logical_bytes": (len(logical.encode()), "bytes", 1),
        "comp_bytes": (len(comp.encode()), "bytes", 1),
    }


# ---------------------------------------------------------------------------
# Command line


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally]:
    tally = Tally()
    work = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    try:
        held_out_check(name, seed, work, tally)
        wl = GENERATORS[name](seed)
        if trace:
            metrics = traced_run(wl, seconds, work, tally)
        else:
            metrics = end_to_end(wl, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, tally


def report(name: str, metrics: dict, tally: Tally) -> None:
    for metric, (value, unit, n) in metrics.items():
        print(f"{name:8} {metric:28} {value:14.6g} {unit:6} n={n}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{name:8} {'fail_ratio':28} {ratio:14.6g} {'':6} n={tally.attempted}")
    for p in tally.problems:
        print(f"{name:8} problem: {p}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*GENERATORS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"perfbench: not a focml checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, tally = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, metrics, tally)
        prefix = f"{name}." if args.workload == "all" else ""
        result["correct"] = result["correct"] and not tally.failed and not tally.problems
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
        for metric, (value, unit, _) in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
