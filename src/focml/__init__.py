"""focml: a compiler for a small species/collection language.

Species group signatures, definitions, a carrier type, properties and
theorems; collections encapsulate complete species behind an abstract
interface.  The compiler flattens inheritance, types methods, runs the
dependency calculus, lambda-lifts method generators and emits both a
logical target (for proof checking) and a computational one, plus a small
evaluator for direct execution.

The names below are imported on first use (PEP 562), so `import focml`
loads no module and each caller pays only for what it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "CompileError": "errors",
    "CompiledUnit": "driver",
    "Diagnostic": "errors",
    "EvalFailure": "errors",
    "Interpreter": "evaluator",
    "compile_files": "driver",
    "compile_source": "driver",
    "compile_unit": "driver",
    "deps_report": "report",
    "doc_text": "report",
    "emit_comp": "emit",
    "emit_logical": "emit",
    "eval_call": "evaluator",
    "format_value": "evaluator",
    "render_deps_report": "report",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value
