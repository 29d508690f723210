"""Diagnostics: one exception family, formatted as file:line:col: severity: kind: message."""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Pos, NOPOS

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


@dataclass
class Diagnostic:
    kind: str
    message: str
    pos: Pos = NOPOS
    file: str = "<input>"
    severity: str = "error"  # 'error' | 'warning'
    witness: list[str] = field(default_factory=list)

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
