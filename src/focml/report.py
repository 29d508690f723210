"""The dependency report and the documentation summary of a compiled unit.

Loaded on first use (`driver.__getattr__`): `check` writes neither, so it
loads neither this module nor `_json`.  Neither loads a plan builder: the
report reads a parameter method's type from `hierarchy.param_method_view`.
No subcommand loads `json`: a string is written by `_json`'s C encoder, the
one `json.encoder` imports, and only `deps_report`, which tests call,
parses a report.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _json_string
from typing import TYPE_CHECKING

from .ast import Expr, Scheme, SpeciesParam
from .hierarchy import CollectionModel, NFSpecies, param_method_view
from .pretty import expr_to_source, type_to_source
from .proofs import iter_leaves

if TYPE_CHECKING:
    from .deps import MethodDeps
    from .driver import CompiledUnit


def deps_report(cu: CompiledUnit) -> dict:
    """`render_deps_report` read back."""
    from json import loads

    return loads(render_deps_report(cu))


def render_deps_report(cu: CompiledUnit) -> str:
    """The dependency analysis as JSON, each set in its species' global
    method order, as `json.dumps(report, indent=2)` writes the report of
    `tests/oracles.py`.  Each piece is written once and joined after:

    - per unit, a name's JSON text, its text as an item of an entry's
      `decl`, `def` or `universe`, and a `min_env` item's text per
      `(name, keep)` pair; so a set is one join of item texts, in order
      index order;
    - per object, a scheme's or statement's JSON text
      (`_ReportWriter.source`): an heir shares both with the species it
      inherits them from;
    - per key, a method entry, one template of its 12 fields: it reads the
      method's record, its finished entry (`MethodDeps`), its order index
      and the species' parameters.  A finished entry is shared only with
      heirs (`_extended_parent`) that have its parameters and keep its
      relative order (`finish_deps`), so its sets read alike there.

    `params`, collections and the species level, rare or one per
    declaration, go through the general `_json_object`."""
    writer = _ReportWriter(cu)
    parts: dict[str, list[str]] = {"species": [], "collections": []}  # "name": {...}
    for kind, name in cu.decl_order:
        with cu.writing(name):
            if kind == "species":
                parts["species"].append(writer.species(name))
            elif kind == "collection":
                model = cu.collections[name]
                args = _json_block([_json_string(a) for a in _collection_args(model)], _NL[3], "[]")
                fields = {"implements": _json_string(model.nf.name), "args": args}
                parts["collections"].append(f"{_json_string(name)}: {_json_object(fields, _NL[2])}")
    out = ["{"]  # pieces, joined once: the species' texts are not copied again
    for part, items in parts.items():
        out += (_NL[1], f'"{part}": ', *_block_pieces(items, _NL[1], "{}"), ",")
    out[-1] = _NL[0] + "}\n"
    return "".join(out)


_NL = tuple("\n" + "  " * depth for depth in range(9))  # a line break, indented
_JSON_BOOL = ("false", "true")
# An entry's `carrier` object, by its `decl` and `def` flags
_CARRIER = tuple(
    tuple(f'{{{_NL[6]}"decl": {d},{_NL[6]}"def": {e}{_NL[5]}}}' for e in _JSON_BOOL)
    for d in _JSON_BOOL
)


def _block_pieces(items: list[str], nl: str, brackets: str) -> list[str]:
    """The array or object (`brackets` "[]" or "{}") of the written
    `items`, its brackets on lines that `nl` starts, in pieces."""
    if not items:
        return [brackets]
    pieces = ["," + nl + "  "] * (2 * len(items) + 1)
    pieces[0] = brackets[0] + nl + "  "
    pieces[1::2] = items
    pieces[-1] = nl + brackets[1]
    return pieces


def _json_block(items: list[str], nl: str, brackets: str) -> str:
    return "".join(_block_pieces(items, nl, brackets))


def _json_object(fields: dict[str, str], nl: str) -> str:
    """The object of the written values in `fields`."""
    return _json_block([f"{_json_string(k)}: {v}" for k, v in fields.items()], nl, "{}")


class _Memo(dict):
    """A table that writes a missing value once, by `make`; a hit is a
    plain lookup, which `map` can do without a Python-level call."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _ReportWriter:
    """The texts one report writes once and reuses (see `render_deps_report`)."""

    def __init__(self, cu: CompiledUnit):
        self.cu = cu
        self.strings = _Memo(_json_string)  # a name -> its JSON text
        self.items: dict[str, str] = {}  # a method name -> its text as a set's item
        self.env_items = _Memo(self._env_item)  # (name, keep) -> its `min_env` item
        self.sources = {id(None): "null"}  # id of a scheme or statement -> its JSON text
        self.entries: dict[tuple, str] = {}  # key -> `"m": {...}`

    def _env_item(self, pair: tuple[str, str]) -> str:
        name, keep = self.strings[pair[0]], self.strings[pair[1]]
        return f'{_NL[6]}{{{_NL[7]}"name": {name},{_NL[7]}"keep": {keep}{_NL[6]}}}'

    def source(self, node: Scheme | Expr) -> str:
        """The JSON text of a scheme's type or of a statement, once per object."""
        text = self.sources[id(node)] = _json_string(
            type_to_source(node.body) if type(node) is Scheme else expr_to_source(node)
        )
        return text

    def species(self, name: str) -> str:
        """`"name": {...}`, the report of species `name`."""
        nf = self.cu.species[name]
        strings, items, env_items = self.strings, self.items, self.env_items
        sources, entries = self.sources, self.entries
        for m in nf.order:
            if m not in items:
                items[m] = _NL[6] + strings[m]
        index = {m: i for i, m in enumerate(nf.order)}
        at = index.__getitem__
        nl, end = _NL[5], _NL[5] + "]"
        methods: list[str] = []
        for i, m in enumerate(nf.order):
            mi, md = nf.methods[m], nf.deps[m]
            key = (id(md), id(mi), i)
            text = entries.get(key)
            if text is None:
                decl, defs, universe = [
                    f"[{','.join(map(items.__getitem__, sorted(s, key=at)))}{end}" if s else "[]"
                    for s in (md.decl, md.defs, md.universe)
                ]
                env = (f"[{','.join(map(env_items.__getitem__, md.min_env))}{end}"
                       if md.min_env else "[]")
                ty = sources.get(id(mi.scheme)) or self.source(mi.scheme)
                statement = sources.get(id(mi.statement)) or self.source(mi.statement)
                params = (self.params(nf, md)
                          if md.param_deps or md.param_carrier or md.entity_used else "{}")
                text = entries[key] = (
                    f'{strings[m]}: {{{nl}"kind": {strings[mi.kind]},'
                    f'{nl}"origin": {strings[mi.origin]},'
                    f'{nl}"type": {ty},{nl}"statement": {statement},'
                    f'{nl}"decl": {decl},{nl}"def": {defs},{nl}"universe": {universe},'
                    f'{nl}"carrier": {_CARRIER[mi.carrier_decl][mi.carrier_def]},'
                    f'{nl}"min_env": {env},{nl}"params": {params},{nl}"order_index": {i},'
                    f'{nl}"valid_proof": {_JSON_BOOL[mi.valid_proof]}{_NL[4]}}}'
                )
            methods.append(text)
        order = _json_block(list(map(strings.__getitem__, nf.order)), _NL[3], "[]")
        fields = {"order": order, "methods": _json_block(methods, _NL[3], "{}")}
        return f"{strings[name]}: {_json_object(fields, _NL[2])}"

    def params(self, nf: NFSpecies, md: MethodDeps) -> str:
        """An entry's `params`: per parameter it uses, the methods it
        uses and their types, or an entity parameter and its carrier."""
        nl = _NL[6]

        def pairs(items: list[tuple[str, str]]) -> str:
            f = nl + "    "  # a field of an item
            return _json_block([f'{{{f}"name": {_json_string(a)},{f}"type": {_json_string(b)}{nl}  }}'
                                for a, b in items], nl, "[]")

        lifts = {p.name: [(w, _param_method_type(self.cu, nf, p, w))
                          for w in md.param_deps.get(p.name, [])]
                 for p in nf.is_params if md.param_deps.get(p.name) or md.param_carrier.get(p.name)}
        for v in md.entity_used:
            lifts[v] = [(v, next(q.carrier for q in nf.entity_params if q.name == v))]
        return _json_object({p: pairs(items) for p, items in lifts.items()}, _NL[5])


def _source_of(texts: dict[int, str], node: Scheme | Expr) -> str:
    """Source text of a scheme's type or of a statement, written once per
    object: an heir shares both with the species it inherits them from."""
    text = texts.get(id(node))
    if text is None:
        text = texts[id(node)] = (
            type_to_source(node.body) if type(node) is Scheme else expr_to_source(node)
        )
    return text


def _collection_args(model: CollectionModel) -> list[str]:
    return [
        expr_to_source(a) if isinstance(a, Expr) else a.name
        for a in model.args.values()
    ]


def _param_method_type(
    cu: CompiledUnit, nf: NFSpecies, p: SpeciesParam, m: str
) -> str:
    ty, statement = param_method_view(nf, p, m, cu.species)
    return type_to_source(ty) if ty is not None else expr_to_source(statement)


# ---------------------------------------------------------------------------
# Documentation output


def doc_text(cu: CompiledUnit) -> str:
    """Per-species method inventory with origins, reverted proofs and
    admitted proof steps.  A scheme's or a statement's text is written once
    per object (`_source_of`), and a proof's admitted steps counted once."""
    texts: dict[int, str] = {}
    admitted_in: dict[int, int] = {}  # id of a proof -> its admitted steps
    written: dict[int, str] = {}  # id of a method record -> its line
    lines: list[str] = []
    for kind, name in cu.decl_order:
        with cu.writing(name):
            if kind == "union":
                cons = ", ".join(c for c, _ in cu.unions[name].constructors)
                lines += [f"type {name} = {cons}", ""]
                continue
            if kind == "collection":
                model = cu.collections[name]
                args = ", ".join(_collection_args(model))
                head = f"collection {name} implements {model.nf.name}"
                lines += [f"{head}({args})" if args else head, ""]
                continue
            nf = cu.species[name]
            lines.append(f"species {name}")
            for m in nf.order:
                mi = nf.methods[m]
                line = written.get(id(mi))
                if line is None:
                    node = mi.scheme if mi.scheme is not None else mi.statement
                    ty = "?" if node is None else _source_of(texts, node)
                    line = written[id(mi)] = f"  {mi.kind} {m} : {ty} (from {mi.origin})"
                lines.append(line)
            for m in nf.order:
                proof = nf.methods[m].proof
                if proof is None:
                    continue
                if id(proof) not in admitted_in:
                    admitted_in[id(proof)] = sum(1 for leaf in iter_leaves(proof) if leaf.admitted)
                admitted = admitted_in[id(proof)]
                if admitted:
                    step = "step" if admitted == 1 else "steps"
                    lines.append(f"  admitted: {m} ({admitted} proof {step})")
            for rp in nf.reverted:
                lines.append(
                    f"  reverted: proof of {rp.method} (from {rp.proof_origin}) "
                    f"unfolds {rp.def_name}, redefined by {rp.def_origin}"
                )
            lines.append("")
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
