"""Proof-tree traversals shared by the dependency and emission passes."""

from __future__ import annotations

from typing import Iterator

from .ast import Proof, ProofLeaf, ProofStep, ProofSteps


def iter_leaves(proof: Proof) -> Iterator[ProofLeaf]:
    if isinstance(proof, ProofLeaf):
        yield proof
    for step in iter_steps(proof):
        if isinstance(step.sub, ProofLeaf):
            yield step.sub


def iter_steps(proof: Proof) -> Iterator[ProofStep]:
    """Every step in pre-order, from an explicit stack."""
    todo = list(reversed(proof.steps)) if isinstance(proof, ProofSteps) else []
    while todo:
        step = todo.pop()
        yield step
        if isinstance(step.sub, ProofSteps):
            todo.extend(reversed(step.sub.steps))


def unfolded(proof: Proof) -> list[str]:
    """The methods a proof cites `by definition of`, first citation first."""
    names = (
        n
        for leaf in iter_leaves(proof)
        for f in leaf.facts
        if f.kind == "definition"
        for n in f.names
    )
    return list(dict.fromkeys(names))


def proof_is_admitted(proof: Proof | None) -> bool:
    if proof is None:
        return True
    return any(leaf.admitted for leaf in iter_leaves(proof))
