"""Proof-tree traversals shared by the dependency and emission passes."""

from __future__ import annotations

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
