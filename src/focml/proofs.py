"""Proof-tree traversals shared by the dependency and emission passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .ast import Proof, ProofLeaf, ProofStep, ProofSteps


def iter_leaves(proof: Proof) -> Iterator[ProofLeaf]:
    match proof:
        case ProofLeaf():
            yield proof
        case ProofSteps(steps):
            for step in steps:
                if step.sub is not None:
                    yield from iter_leaves(step.sub)


def iter_steps(proof: Proof) -> Iterator[ProofStep]:
    if isinstance(proof, ProofSteps):
        for step in proof.steps:
            yield step
            if step.sub is not None:
                yield from iter_steps(step.sub)


@dataclass
class FactSummary:
    """Names cited across every leaf of one proof."""

    definitions: list[str] = field(default_factory=list)
    properties: list[str] = field(default_factory=list)      # may be "C!m"
    hypotheses: list[str] = field(default_factory=list)
    types: list[str] = field(default_factory=list)
    admitted: bool = False

    def _add(self, seen: set[tuple[str, str]], bucket: list[str], kind: str, name: str) -> None:
        if (kind, name) not in seen:
            seen.add((kind, name))
            bucket.append(name)


def collect_leaf_facts(proof: Proof) -> FactSummary:
    summary = FactSummary()
    seen: set[tuple[str, str]] = set()
    for leaf in iter_leaves(proof):
        if leaf.admitted:
            summary.admitted = True
        for fact in leaf.facts:
            match fact.kind:
                case "definition":
                    for n in fact.names:
                        summary._add(seen, summary.definitions, "definition", n)
                case "property":
                    for n in fact.names:
                        summary._add(seen, summary.properties, "property", n)
                case "hypothesis":
                    for n in fact.names:
                        summary._add(seen, summary.hypotheses, "hypothesis", n)
                case "type":
                    for n in fact.names:
                        summary._add(seen, summary.types, "type", n)
                case _:
                    pass
    return summary


def proof_is_admitted(proof: Proof | None) -> bool:
    if proof is None:
        return True
    return any(leaf.admitted for leaf in iter_leaves(proof))
