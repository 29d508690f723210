"""Traced in-process run: where compile, emit, report and eval time goes.

The compiler is left as it is.  For the traced passes, the names
`focml.driver` imports from the layer modules, and `focml.parser.tokenize`,
are replaced by wrappers that record a span (name, start, end, parent) in
memory; `Unifier.unify` is only counted.  The benchmark's own calls to
`compile_unit`, the emitters, the dependency report and the evaluator get
spans too.  A layer's time is the self time of its spans: a span's duration
minus its child spans, so `parser.self_ms` excludes the lexer.  Untraced
`compile_unit` passes alternate with traced ones; the difference of their
medians is the tracing overhead.  Times here are in-process and unscaled.
The last traced pass's spans are written to
`.perfbench/spans-<workload>-<seed>.json`.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from checks import check_deps, check_emit, check_eval
from harness import ROOT, Tally, child_problems, run_child, unit_files, write_files
from workloads import Workload

DRIVER_NAMES = [
    "parse_source",
    "normalize",
    "invalidate_proofs",
    "scan_species",
    "type_let",
    "check_statement",
    "check_proof",
    "infer_expr",
    "finish_deps",
    "build_species_plan",
    "build_extraction_plan",
    "make_collection",
    "interface_view",
]

# Per-layer time: the span names whose self time it sums.
LAYER_SPANS = {
    "lexer.ms": ["tokenize"],
    "parser.self_ms": ["parse_source"],
    "hierarchy.ms": ["normalize", "invalidate_proofs", "make_collection"],
    "typecheck.ms": ["type_let", "check_statement", "check_proof", "infer_expr"],
    "deps.scan_ms": ["scan_species"],
    "deps.finish_ms": ["finish_deps"],
    "generators.ms": ["build_species_plan", "build_extraction_plan", "interface_view"],
    "emit.logical_ms": ["emit_logical"],
    "emit.comp_ms": ["emit_comp"],
    "driver.deps_report_ms": ["render_deps_report"],
    "driver.glue_ms": ["compile_unit"],  # compile_unit time no child span covers
    "evaluator.ms": ["evaluator"],
}

# Work counted from what a traced call returns.
SIZES = {
    "tokenize": len,
    "parse_source": lambda unit: len(unit.decls),
    "invalidate_proofs": len,
}

IMPORT_PAIRS = 7  # cli.import_ms is a difference of medians over this many pairs


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter()

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.calls[name] += 1
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name: str):
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if size is not None:
                self.sizes[name] += size(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap the traced names for the duration of one pass."""
        from focml import driver, parser, typecheck

        saved = [(driver, n, getattr(driver, n)) for n in DRIVER_NAMES]
        saved.append((parser, "tokenize", parser.tokenize))
        for owner, name, fn in saved:
            setattr(owner, name, self.wrap(fn, name))
        unify = typecheck.Unifier.unify

        def counted(uni, *args, **kwargs):
            self.calls["unify"] += 1
            return unify(uni, *args, **kwargs)

        typecheck.Unifier.unify = counted
        saved.append((typecheck.Unifier, "unify", unify))
        try:
            yield
        finally:
            for owner, name, fn in saved:
                setattr(owner, name, fn)

    def self_seconds(self) -> Counter[str]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                [
                    {"name": n, "start": s, "end": e, "parent": p}
                    for n, s, e, p in self.spans
                ]
            )
        )


def import_ms(work: Path, tally: Tally) -> float:
    """Fresh `import focml` minus a bare interpreter start, in ms."""
    with_import, bare = [], []
    for _ in range(IMPORT_PAIRS):
        for argv, out in (("import focml", with_import), ("pass", bare)):
            c = run_child([sys.executable, "-c", argv], work)
            tally.record(child_problems(f"python -c {argv!r}", c))
            out.append(c.seconds)
    return (statistics.median(with_import) - statistics.median(bare)) * 1e3


def traced_pass(wl: Workload, sources, exprs, tally: Tally) -> tuple[Tracer, dict, tuple]:
    """Compile, emit both targets, render the dependency report and run the
    call list, all traced; return the tracer, the counts and the outputs."""
    from focml import driver, emit
    from focml.evaluator import Interpreter, Scope, format_value

    tracer = Tracer()
    steps = 0
    values = []
    with tracer.installed():
        with tracer.span("compile_unit"):
            cu = driver.compile_unit(sources)
        with tracer.span("emit_logical"):
            logical = emit.emit_logical(cu)
        with tracer.span("emit_comp"):
            comp = emit.emit_comp(cu)
        with tracer.span("render_deps_report"):
            report = driver.render_deps_report(cu)
        for expr in exprs:
            with tracer.span("evaluator"):
                interp = Interpreter(cu)
                value = interp.eval(expr, Scope())
            steps += interp.steps
            values.append(format_value(value))

    tally.record([])  # compile
    tally.record(check_emit(wl, ROOT, logical, comp))
    tally.record(check_deps(wl, report))
    for (call, expected), got in zip(wl.calls, values):
        tally.record(check_eval(call, expected, got))

    instances = [(nf.name, mi.origin) for nf in cu.species.values() for mi in nf.methods.values()]
    counts = {
        "lexer.tokens": tracer.sizes["tokenize"],
        "parser.decls": tracer.sizes["parse_source"],
        "hierarchy.method_instances": len(instances),
        "hierarchy.inherited_share": sum(s != o for s, o in instances) / len(instances),
        "hierarchy.reverted": tracer.sizes["invalidate_proofs"],
        "typecheck.type_let_calls": tracer.calls["type_let"],
        "typecheck.unify_calls": tracer.calls["unify"],
        "generators.plans": sum(len(p.generators) for p in cu.plans.values()),
        "evaluator.steps": steps,
    }
    return tracer, counts, (logical, comp, report, values)


def unit_of(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("_per_s"):
        return "1/s"
    return "ratio" if metric.endswith("_share") else "count"


def traced_run(wl: Workload, seconds: float, work: Path, tally: Tally) -> dict:
    write_files(wl, work)
    sources = [(f, Path(f).read_text()) for f in unit_files(wl, work)]
    samples: dict[str, list[float]] = {"cli.import_ms": [import_ms(work, tally)]}

    sys.path.insert(0, str(ROOT / "src"))
    from focml import driver
    from focml.parser import parse_expr_text

    exprs = [parse_expr_text(call) for call, _ in wl.calls]
    first = None
    untraced: list[float] = []
    traced: list[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        t0 = time.perf_counter()
        driver.compile_unit(sources)
        untraced.append(time.perf_counter() - t0)
        try:
            tracer, counts, outputs = traced_pass(wl, sources, exprs, tally)
        except Exception as err:  # a crash in the compiler is a failed operation
            tally.record([f"traced pass raised {err!r}"])
            break
        if first is None:
            first = (counts, outputs)
        elif (counts, outputs) != first:
            tally.note(["traced passes differ in counts or outputs"])
        self_s = tracer.self_seconds()
        for metric, names in LAYER_SPANS.items():
            samples.setdefault(metric, []).append(sum(self_s[n] for n in names) * 1e3)
        compile_span = next(s for s in tracer.spans if s[0] == "compile_unit")
        traced.append(compile_span[2] - compile_span[1])
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            break
    if first is None:
        return {}
    tracer.dump(work.parent / f"spans-{wl.name}-{wl.seed}.json")

    metrics = {m: statistics.median(v) for m, v in samples.items()}
    counts = first[0]
    metrics.update(counts)
    metrics["lexer.tokens_per_s"] = counts["lexer.tokens"] / (metrics["lexer.ms"] / 1e3)
    metrics["evaluator.steps_per_s"] = counts["evaluator.steps"] / (metrics["evaluator.ms"] / 1e3)
    metrics["compile.ms"] = statistics.median(untraced) * 1e3
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(untraced)) * 1e3
    print_shares(wl.name, metrics, statistics.median(traced) * 1e3)
    n = {m: len(untraced) for m in metrics} | {"cli.import_ms": IMPORT_PAIRS}
    return {m: (v, unit_of(m), n[m]) for m, v in metrics.items()}


def print_shares(name: str, m: dict, traced_compile_ms: float) -> None:
    """The figures behind each workload's reason for being chosen."""
    front = m["hierarchy.ms"] + m["typecheck.ms"] + m["deps.scan_ms"] + m["deps.finish_ms"]
    emit = m["emit.logical_ms"] + m["emit.comp_ms"]
    print(f"{name:8} hierarchy + typecheck + deps: {front:.1f} ms, "
          f"{front / traced_compile_ms:.0%} of traced compile_unit ({traced_compile_ms:.1f} ms)")
    print(f"{name:8} emit.logical_ms + emit.comp_ms: {emit:.1f} ms, "
          f"hierarchy.ms: {m['hierarchy.ms']:.1f} ms")
    print(f"{name:8} evaluator.ms: {m['evaluator.ms']:.1f} ms, compile.ms: {m['compile.ms']:.1f} ms")
