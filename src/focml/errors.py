"""Diagnostics: one exception family, formatted as file:line:col: severity: kind: message.

Also the deep stack that the CLI and `eval_call` run on, where a
`RecursionError` becomes a `DepthLimit` diagnostic.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from .ast import NOPOS, Pos, Record

# Kinds surfaced by the CLI; kept as plain strings so callers can match on them.
SYNTAX = "SyntaxError"
DUPLICATE = "DuplicateName"
UNKNOWN = "UnknownName"
TYPE_MISMATCH = "TypeMismatch"
CARRIER_LEAK = "WrongCarrierLeak"
CYCLE = "CycleInDependencies"
INCOMPLETE = "IncompleteSpecies"
REP_REDEFINED = "RepresentationRedefined"
INTERFACE = "InterfaceMismatch"
PROOF = "ProofError"
STEP_LIMIT = "StepLimit"
DEPTH_LIMIT = "DepthLimit"
EVAL = "EvalError"


class Diagnostic(Record):
    def __init__(
        self,
        kind: str,
        message: str,
        pos: Pos = NOPOS,
        file: str = "<input>",
        severity: str = "error",  # 'error' | 'warning'
        witness: list[str] | None = None,
    ):
        self.kind = kind
        self.message = message
        self.pos = pos
        self.file = file
        self.severity = severity
        self.witness = [] if witness is None else witness

    def format(self, color: bool = False) -> str:
        head = f"{self.file}:{self.pos.line}:{self.pos.col}"
        sev = self.severity
        if color:
            tint = "\x1b[31m" if sev == "error" else "\x1b[33m"
            sev = f"{tint}{sev}\x1b[0m"
        text = f"{head}: {sev}: {self.kind}: {self.message}"
        if self.witness:
            text += f" [{' -> '.join(self.witness)}]"
        return text


class CompileError(Exception):
    """Raised by any pipeline stage; the driver turns it into a Diagnostic."""

    def __init__(self, kind: str, message: str, pos: Pos = NOPOS, witness: list[str] | None = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.pos = pos
        self.witness = witness or []
        self.file: str | None = None  # stamped by the driver

    def to_diagnostic(self, file: str = "<input>") -> Diagnostic:
        return Diagnostic(
            self.kind, self.message, self.pos, self.file or file, "error", list(self.witness)
        )


class EvalFailure(Exception):
    """Runtime evaluation failure (bad call, pattern fall-through, step or
    depth limit)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


@contextmanager
def depth_limit_at(pos: Pos, file: str | None = None) -> Iterator[None]:
    """Report a `RecursionError` in the block as `DepthLimit` at `pos`."""
    try:
        yield
    except RecursionError:
        err = CompileError(DEPTH_LIMIT, "nested too deeply", pos)
        err.file = file
        raise err from None


# The deep stack holds `evaluator.MAX_DEPTH` nested calls of three to five
# frames each, and trees over 16,000 levels deep.  CPython 3.10 puts each
# frame on this stack, up to about 0.9 KB; the stack is virtual memory, so
# a shallow run touches little of it.  No setting raises Python 3.12's own
# limit on recursion through C code, such as `str.join` over a generator.
_RECURSION_LIMIT = 200_000
_STACK_BYTES = 512 * 1024 * 1024
_DEEP_LOCK = threading.Lock()  # the limits below are process-wide
_deep = threading.local()

T = TypeVar("T")


def on_deep_stack(run: Callable[[], T], overflow: Exception) -> T:
    """Return `run()`, computed in a worker thread with a large stack while
    the caller's thread waits, or directly when already on that thread.  A
    `RecursionError` escaping `run` is raised as `overflow`."""

    def guarded() -> T:
        try:
            return run()
        except RecursionError:
            raise overflow from None

    if getattr(_deep, "active", False):
        return guarded()
    outcome: list = []

    def worker() -> None:
        _deep.active = True
        try:
            outcome.append((guarded(), None))
        except BaseException as err:  # re-raised in the caller's thread
            outcome.append((None, err))

    with _DEEP_LOCK:
        old_limit = sys.getrecursionlimit()
        old_stack = threading.stack_size(_STACK_BYTES)
        try:
            sys.setrecursionlimit(max(old_limit, _RECURSION_LIMIT))
            thread = threading.Thread(target=worker, name="focml-deep", daemon=True)
            thread.start()
            thread.join()
        finally:
            threading.stack_size(old_stack)
            sys.setrecursionlimit(old_limit)
    ((value, err),) = outcome
    if err is not None:
        raise err
    return value
