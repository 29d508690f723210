"""Running `focml` child processes, timing them and tallying operations."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
CHILD_TIMEOUT = 60.0  # seconds; a child past it is killed and counts as failed

# The machine is shared: how fast one core runs drifts by 10-20 % over tens
# of seconds.  This CPU-bound loop, which imports nothing from the
# repository, runs between timed operations; its wall time measures the
# speed of the moment, and each timing is scaled to the speed at which the
# loop takes REFERENCE_SECONDS (about a 2.1 GHz Xeon vCPU, CPython 3.11).
CALIBRATION = """\
d = {}
for i in range(100000):
    k = i % 997
    d[k] = d.get(k, 0) + len(str(i))
"""
REFERENCE_SECONDS = 0.12


@dataclass
class Child:
    seconds: float
    rss_mb: float
    ok: bool
    out: str
    err: str


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """One operation, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.note(problems)

    def note(self, problems: list[str]) -> None:
        """Keep the first few problems for the report."""
        self.problems.extend(problems[: max(0, 5 - len(self.problems))])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], work: Path) -> Child:
    """Run one process to completion and read its wall time and its own
    peak RSS (from `wait4`, so no other child's memory counts)."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text_err = err_path.read_text(errors="replace")
    ok = proc.returncode == 0 and "Traceback (most recent call last)" not in text_err
    return Child(seconds, usage.ru_maxrss / 1024, ok, out_path.read_text(errors="replace"), text_err)


class Clock:
    """Wall time scaled to the reference speed.  The calibration loop runs
    between timed operations; an operation's time is scaled by the mean of
    the calibrations just before and just after it."""

    def __init__(self, work: Path, tally: Tally):
        self.work, self.tally = work, tally
        self.calibrations: list[float] = []
        work.mkdir(parents=True, exist_ok=True)

    def _calibrate(self) -> float:
        c = run_child([sys.executable, "-c", CALIBRATION], self.work)
        self.tally.record(child_problems("calibration", c))
        self.calibrations.append(c.seconds)
        return c.seconds

    def time(self, fn):
        """Run `fn`; return its result and its scaled wall time."""
        before = self.calibrations[-1] if self.calibrations else self._calibrate()
        start = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - start
        after = self._calibrate()
        return out, seconds * 2 * REFERENCE_SECONDS / (before + after)


def focml(*args: str) -> list[str]:
    return [sys.executable, "-m", "focml.cli", *args]


def unit_files(wl: Workload, work: Path) -> list[str]:
    return [str(ROOT / f) for f in wl.fixed] + [str(work / f) for f in wl.files]


def write_files(wl: Workload, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name, text in wl.files.items():
        (work / name).write_text(text)


def child_problems(what: str, c: Child) -> list[str]:
    if c.ok:
        return []
    last = c.err.strip().splitlines()[-1:] or ["no output"]
    return [f"{what} failed: {last[0]}"]
