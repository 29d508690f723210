"""Seeded workload generators.

Each generator returns the source files the compiler sees, the fixed list of
`eval` calls with the values a plain-Python model of the generated code
predicts, and the species and methods it wrote, so that every output of the
compiler can be checked against something the compiler did not compute.

Generated lets map `int -> int` and their bodies are flat sums of `x`,
constants and calls `f (x + d)`.  A let only calls lets of a lower tier that
were created before it, so there are no dependency cycles (even after
redefinition) and a call nests at most `TIERS` calls deep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Shared with tests/test_properties.py: an interface, an implementation and
# the collection the chain's parameter is instantiated with.
PRELUDE = """\
species Base =
  signature mk : int -> Self ;
  signature leq : Self -> Self -> bool ;
  property refl : all x : Self, leq (x, x) ;
end ;;

species BaseImpl =
  inherit Base ;
  representation = int ;
  let mk (x) : Self = x ;
  let leq (x, y) = x <0x y ;
  proof of refl = admitted ;
end ;;

collection BColl = implement BaseImpl ; end ;;
"""
PRELUDE_SPECIES = {
    "Base": ["mk", "leq", "refl"],
    "BaseImpl": ["mk", "leq", "refl"],
}

CHAIN_LEVELS = 28
CHAIN_LETS = 2  # new lets per level
DIAMOND_EVERY = 4  # level i with i % 4 == 0 also inherits a side branch
SIDE_LETS = 2
WIDE_LETS = 800
WIDE_THEOREM_EVERY = 10
TIERS = 6
EVAL_CALLS = 1  # per chain or wide unit: each call recompiles the unit
FIB_ARG = 20

EXAMPLE = "tests/data/example.fcl"


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, str]  # generated file name -> source
    fixed: list[str] = field(default_factory=list)  # repo files compiled first
    calls: list[tuple[str, str]] = field(default_factory=list)  # (call, expected)
    species: dict[str, list[str]] = field(default_factory=dict)  # generated ones


# ---------------------------------------------------------------------------
# Integer lets


@dataclass(eq=False)  # identity: the same let reaches a diamond twice
class Let:
    name: str
    index: int  # creation order
    tier: int
    body: list[tuple[int, object]] = field(default_factory=list)

    def source(self) -> str:
        text = " ".join(
            ("+ " if sign > 0 else "- ") + _term_source(term)
            for sign, term in self.body
        )
        # every body starts with `+ x`
        return f"let {self.name} (x : int) : int = {text[2:]} ;"


def _term_source(term) -> str:
    match term:
        case "x":
            return "x"
        case int(c):
            return str(c)
        case (f, 0):
            return f"{f} (x)"
        case (f, d):
            return f"{f} (x {'+' if d > 0 else '-'} {abs(d)})"


def _body(rng: random.Random, tier: int, callees: list[Let], fanout: int):
    """A flat sum with `fanout` calls to lower-tier lets among `callees`."""
    lower = [c for c in callees if c.tier < tier]
    body: list[tuple[int, object]] = [(1, "x")]
    for _ in range(fanout if lower else 0):
        body.append((rng.choice((1, -1)), (rng.choice(lower).name, rng.randint(-3, 3))))
    body.append((rng.choice((1, -1)), rng.randint(1, 9)))
    return body


def evaluate(lets: dict[str, Let], name: str, x: int) -> int:
    """Plain-Python value of `name (x)` under the final definitions."""
    total = 0
    for sign, term in lets[name].body:
        match term:
            case "x":
                v = x
            case int(c):
                v = c
            case (f, d):
                v = evaluate(lets, f, x + d)
        total += sign * v
    return total


def _calls(rng: random.Random, coll: str, lets: dict[str, Let]) -> list[tuple[str, str]]:
    deepest = [l for l in lets.values() if l.tier == TIERS - 1]
    out = []
    for l in rng.sample(deepest, EVAL_CALLS):
        x = rng.randint(0, 50)
        out.append((f"{coll}!{l.name} ({x})", str(evaluate(lets, l.name, x))))
    return out


# ---------------------------------------------------------------------------
# chain: deep parameterised inheritance with diamonds and reverted proofs


def chain(seed: int) -> Workload:
    """`L0 ..` over `(P0 is Base, v0 in P0)`, each level inheriting the
    previous one.  Each level adds lets, redefines an inherited one and adds
    a theorem unfolding one of its own lets.  Every fourth level also
    inherits a side species built on the level two below it (a diamond),
    and gets a leaf species that redefines the lets the last four theorems
    unfold, which reverts their proofs.

    The reverting redefinitions sit in leaves because a species below a
    reverted proof cannot back a collection: a `proof of` in a descendant
    does not make the theorem valid again."""
    rng = random.Random(seed)
    created: list[Let] = []
    final: dict[str, Let] = {}  # the definitions the collection sees

    def new_let(prefix: str, visible: list[Let], fanout: int) -> Let:
        l = Let(f"{prefix}{len(created)}", len(created), rng.randrange(TIERS))
        l.body = _body(rng, l.tier, visible, fanout)
        created.append(l)
        final[l.name] = l
        return l

    def redefine(target: Let, visible: list[Let]) -> tuple[str, Let]:
        again = Let(target.name, target.index, target.tier)
        again.body = _body(
            rng, target.tier, [l for l in visible if l.index < target.index], 1
        )
        return "  " + again.source(), again

    def species(name: str, parents: list[str], lines: list[str]) -> None:
        head = [f"species {name} (P0 is Base, v0 in P0) ="]
        if parents:
            head.append(
                "  inherit " + ", ".join(f"{p} (P0, v0)" for p in parents) + " ;"
            )
        blocks.append("\n".join(head + lines + ["end ;;"]))

    blocks: list[str] = []
    methods: dict[str, list[str]] = {}  # species -> flattened methods
    lets_of: dict[str, list[Let]] = {}  # species -> lets it sees
    unfolded: list[Let] = []  # by theorem, in level order

    for i in range(CHAIN_LEVELS):
        name = f"L{i}"
        lines: list[str] = []
        parents: list[str] = []
        if i == 0:
            lines += [
                "  representation = int ;",
                "  let near (y : P0) : bool = P0!leq (y, v0) ;",
            ]
            visible: list[Let] = []
            inherited = ["near"]
        else:
            parents = [f"L{i - 1}"]
            if i % DIAMOND_EVERY == 0:
                side, base = f"D{i}", f"L{i - 2}"
                side_lets = [new_let("d", lets_of[base], 2) for _ in range(SIDE_LETS)]
                species(side, [base], ["  " + l.source() for l in side_lets])
                methods[side] = methods[base] + [l.name for l in side_lets]
                lets_of[side] = lets_of[base] + side_lets
                parents.append(side)
            visible = list(dict.fromkeys(l for p in parents for l in lets_of[p]))
            inherited = list(dict.fromkeys(m for p in parents for m in methods[p]))
            recent = [
                l for l in visible[-8 * CHAIN_LETS:] if l not in unfolded
            ]
            text, again = redefine(rng.choice(recent), visible)
            lines.append(text)
            final[again.name] = again
        own = [new_let("m", visible, rng.randint(1, 2)) for _ in range(CHAIN_LETS)]
        lines += ["  " + l.source() for l in own]
        visible = visible + own
        unfold = rng.choice(own)
        unfolded.append(unfold)
        lines.append(
            f"  theorem t{i} : all x : int, {unfold.name} (x) = "
            f"{rng.choice(visible).name} (x)\n"
            f"  proof = by definition of {unfold.name} ;"
        )
        species(name, parents, lines)
        methods[name] = inherited + [l.name for l in own] + [f"t{i}"]
        lets_of[name] = visible
        if i % DIAMOND_EVERY == DIAMOND_EVERY - 1:
            leaf = f"R{i}"
            species(leaf, [name], [redefine(l, visible)[0] for l in unfolded[-DIAMOND_EVERY:]])
            methods[leaf] = methods[name]

    last = f"L{CHAIN_LEVELS - 1}"
    species("Top", [last], [])
    methods["Top"] = methods[last]
    blocks.append(
        "collection ChainC = implement Top "
        f"(BColl, BColl!mk ({rng.randint(0, 9)})) ; end ;;"
    )
    return Workload(
        "chain",
        seed,
        {"chain.fcl": PRELUDE + "\n" + "\n\n".join(blocks) + "\n"},
        calls=_calls(rng, "ChainC", final),
        species={**PRELUDE_SPECIES, **methods},
    )


# ---------------------------------------------------------------------------
# wide: one large species, no inheritance


def wide(seed: int) -> Workload:
    """One species of `WIDE_LETS` lets, each calling about three earlier lets,
    with a theorem after every tenth let, and its collection."""
    rng = random.Random(seed)
    lets: dict[str, Let] = {}
    lines = ["species Wide =", "  representation = int ;"]
    names: list[str] = []
    for i in range(WIDE_LETS):
        l = Let(f"w{i}", i, rng.randrange(TIERS))
        l.body = _body(rng, l.tier, list(lets.values()), 3)
        lets[l.name] = l
        lines.append("  " + l.source())
        names.append(l.name)
        if i % WIDE_THEOREM_EVERY == WIDE_THEOREM_EVERY - 1:
            other = rng.choice(list(lets))
            lines.append(
                f"  theorem t{i} : all x : int, {l.name} (x) = {other} (x)\n"
                f"  proof = by definition of {l.name} ;"
            )
            names.append(f"t{i}")
    lines.append("end ;;")
    source = "\n".join(lines) + "\n\ncollection WideC = implement Wide ; end ;;\n"
    return Workload(
        "wide",
        seed,
        {"wide.fcl": source},
        calls=_calls(rng, "WideC", lets),
        species={"Wide": names},
    )


# ---------------------------------------------------------------------------
# recurse: the running example plus evaluator-heavy recursion


def recurse(seed: int) -> Workload:
    """The paper's running example plus a tree-recursive `fib`, a Peano
    build and fold over a union type, and calls to `In_5_10!filter`.
    Recursion depth stays well below the evaluator's depth ceiling."""
    rng = random.Random(seed)
    weight = rng.randint(1, 9)
    source = f"""\
type nat_t = | Zero | Succ (nat_t) ;;

species Rec =
  representation = int ;
  let rec fib (n : int) : int =
    if n <0x 2 then n else fib (n - 1) + fib (n - 2) ;
  let rec build (n : int) : nat_t =
    if n =0x 0 then Zero else Succ (build (n - 1)) ;
  let rec fold (v : nat_t) : int =
    match v with | Zero -> 0 | Succ (p) -> {weight} + fold (p) ;
  let roundtrip (n : int) : int = fold (build (n)) ;
end ;;

collection RecC = implement Rec ; end ;;
"""
    depth = rng.randint(60, 120)
    fib = [0, 1]
    while len(fib) <= FIB_ARG:
        fib.append(fib[-1] + fib[-2])
    calls = [
        (f"RecC!fib ({FIB_ARG})", str(fib[FIB_ARG])),
        (f"RecC!roundtrip ({depth})", str(weight * depth)),
    ]
    for lo, hi in ((0, 4), (5, 10), (11, 30)):
        x = rng.randint(lo, hi)
        clamped = (5, "Too_low") if x < 5 else (10, "Too_high") if x > 10 else (x, "In_range")
        calls.append((f"In_5_10!filter ({x})", f"({clamped[0]}, {clamped[1]})"))
    return Workload(
        "recurse",
        seed,
        {"recurse.fcl": source},
        fixed=[EXAMPLE],
        calls=calls,
        species={"Rec": ["fib", "build", "fold", "roundtrip"]},
    )


GENERATORS = {"chain": chain, "wide": wide, "recurse": recurse}
