"""The dependency report and the documentation summary of a compiled unit.

Loaded on first use (`driver.__getattr__`): `check` writes neither, so it
loads neither this module nor `json`.
"""

from __future__ import annotations

from json import loads
from json.encoder import encode_basestring_ascii as _json_string
from typing import TYPE_CHECKING

from .ast import Expr, Scheme, SpeciesParam
from .generators import _param_method_lift
from .hierarchy import CollectionModel, NFSpecies
from .pretty import expr_to_source, type_to_source
from .proofs import iter_leaves

if TYPE_CHECKING:
    from .driver import CompiledUnit


def deps_report(cu: CompiledUnit) -> dict:
    """`render_deps_report` read back."""
    return loads(render_deps_report(cu))


def render_deps_report(cu: CompiledUnit) -> str:
    """The dependency analysis as JSON, each set in its species' global
    method order, as `json.dumps(report, indent=2)` writes the report of
    `tests/oracles.py`.  A scheme's or statement's text is written once per
    object (`_source_of`), a method entry once per key: it reads the
    method's record, its finished entry (`MethodDeps`), its order index and
    the species' parameters.  A finished entry is shared only with heirs
    (`_extended_parent`) that have its parameters and keep its relative
    order (`finish_deps`), so its sets read alike there."""
    texts: dict[int, str] = {}
    entries: dict[tuple, str] = {}  # key -> `"m": {...}`
    parts: dict[str, list[str]] = {"species": [], "collections": []}  # "name": {...}
    for kind, name in cu.decl_order:
        with cu.writing(name):
            if kind == "species":
                parts["species"].append(_species_json(cu, name, texts, entries))
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


def _species_json(cu: CompiledUnit, name: str, texts: dict, entries: dict) -> str:
    nf = cu.species[name]
    index = {m: i for i, m in enumerate(nf.order)}
    methods: list[str] = []
    for i, m in enumerate(nf.order):
        mi = nf.methods[m]
        key = (id(nf.deps[m]), id(mi), i)
        text = entries.get(key)
        if text is None:
            text = entries[key] = _method_json(cu, nf, m, index, texts)
        methods.append(text)
    order = _json_block([_json_string(m) for m in nf.order], _NL[3], "[]")
    fields = {"order": order, "methods": _json_block(methods, _NL[3], "{}")}
    return f"{_json_string(name)}: {_json_object(fields, _NL[2])}"


def _method_json(
    cu: CompiledUnit, nf: NFSpecies, m: str, index: dict[str, int], texts: dict[int, str]
) -> str:
    """`"m": {...}`, the entry of method `m` of `nf`."""
    mi = nf.methods[m]
    md = nf.deps[m]
    nl = _NL[5]

    def names(s: set[str]) -> str:
        return _json_block([_json_string(n) for n in sorted(s, key=index.__getitem__)], nl, "[]")

    def source(node: Scheme | Expr | None) -> str:
        return "null" if node is None else _json_string(_source_of(texts, node))

    def pairs(key: str, items: list[tuple[str, str]], nl: str) -> str:
        f = nl + "    "  # a field of an item
        return _json_block([f'{{{f}"name": {_json_string(a)},{f}"{key}": {_json_string(b)}{nl}  }}'
                            for a, b in items], nl, "[]")

    lifts = {p.name: [(w, _param_method_type(cu, nf, p, w)) for w in md.param_deps.get(p.name, [])]
             for p in nf.is_params if md.param_deps.get(p.name) or md.param_carrier.get(p.name)}
    for v in md.entity_used:
        lifts[v] = [(v, next(q.carrier for q in nf.entity_params if q.name == v))]
    params = {p: pairs("type", items, _NL[6]) for p, items in lifts.items()}
    entry = {
        "kind": _json_string(mi.kind),
        "origin": _json_string(mi.origin),
        "type": source(mi.scheme),
        "statement": source(mi.statement),
        "decl": names(md.decl),
        "def": names(md.defs),
        "universe": names(md.universe),
        "carrier": _json_object({"decl": _JSON_BOOL[mi.carrier_decl],
                                 "def": _JSON_BOOL[mi.carrier_def]}, nl),
        "min_env": pairs("keep", md.min_env, nl),
        "params": _json_object(params, nl),
        "order_index": str(index[m]),
        "valid_proof": _JSON_BOOL[mi.valid_proof],
    }
    return f"{_json_string(m)}: {_json_object(entry, _NL[4])}"


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
    lift = _param_method_lift(nf, p, m, cu.species)
    if lift.ty is not None:
        return type_to_source(lift.ty)
    assert lift.statement is not None
    return expr_to_source(lift.statement)


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
