"""focml: a compiler for a small species/collection language.

Species group signatures, definitions, a carrier type, properties and
theorems; collections encapsulate complete species behind an abstract
interface.  The compiler flattens inheritance, types methods, runs the
dependency calculus, lambda-lifts method generators and emits both a
logical target (for proof checking) and a computational one, plus a small
evaluator for direct execution.
"""

from .driver import (
    CompiledUnit,
    compile_files,
    compile_source,
    compile_unit,
    deps_report,
    doc_text,
    render_deps_report,
)
from .emit import emit_comp, emit_logical
from .errors import CompileError, Diagnostic, EvalFailure
from .evaluator import Interpreter, eval_call, format_value

__version__ = "0.1.0"

__all__ = [
    "CompileError",
    "CompiledUnit",
    "Diagnostic",
    "EvalFailure",
    "Interpreter",
    "__version__",
    "compile_files",
    "compile_source",
    "compile_unit",
    "deps_report",
    "doc_text",
    "emit_comp",
    "emit_logical",
    "eval_call",
    "format_value",
    "render_deps_report",
]
