"""Reference checks on the compiler's outputs.

Every expected value comes from the workload generator or from the golden
files in `tests/data`, never from the compiler under test.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from workloads import EXAMPLE, Workload

HOLE = re.compile(r"PROOF_HOLE\w*")  # as tests/test_emit.py masks proof holes
GOLDEN_LOGICAL = "tests/data/example_logical.txt"
GOLDEN_COMP = "tests/data/example_comp.txt"


def check_deps(wl: Workload, report_text: str) -> list[str]:
    """The dependency report lists the species and methods written; only
    them unless repository files are compiled too."""
    try:
        species = json.loads(report_text)["species"]
    except (ValueError, KeyError) as err:
        return [f"deps report is not readable: {err}"]
    problems = []
    if not wl.fixed and set(species) != set(wl.species):
        problems.append(
            f"deps species differ: extra {sorted(set(species) - set(wl.species))}, "
            f"missing {sorted(set(wl.species) - set(species))}"
        )
    for name, methods in wl.species.items():
        got = set(species.get(name, {}).get("methods", {}))
        if got != set(methods):
            problems.append(
                f"deps methods of {name} differ: extra {sorted(got - set(methods))}, "
                f"missing {sorted(set(methods) - got)}"
            )
    return problems


def _tokens(text: str) -> list[str]:
    return HOLE.sub("PROOF_HOLE", text).split()


def check_emit(wl: Workload, root: Path, logical: str, comp: str) -> list[str]:
    """Emitted targets are non-empty and, where the running example is
    compiled first, begin with its golden targets."""
    problems = []
    if not logical.strip() or not comp.strip():
        problems.append("an emitted target is empty")
    if wl.fixed[:1] == [EXAMPLE]:
        want = _tokens((root / GOLDEN_LOGICAL).read_text())
        if _tokens(logical)[: len(want)] != want:
            problems.append("logical target does not begin with the golden")
        if not comp.startswith((root / GOLDEN_COMP).read_text()):
            problems.append("computational target does not begin with the golden")
    return problems


def check_eval(call: str, expected: str, output: str) -> list[str]:
    got = output.strip()
    if got != expected:
        return [f"eval {call}: expected {expected}, got {got!r}"]
    return []


def check_generator(name: str, seed: int, generate) -> list[str]:
    """The generator is deterministic for a seed and another seed yields
    another unit; the caller compiles that unit."""
    a, b, other = generate(seed), generate(seed), generate(seed + 1)
    problems = []
    if (a.files, a.calls) != (b.files, b.calls):
        problems.append(f"{name} generator is not deterministic for seed {seed}")
    if (other.files, other.calls) == (a.files, a.calls):
        problems.append(f"{name} generator ignores the seed")
    return problems
