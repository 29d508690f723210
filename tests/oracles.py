"""Independent brute-force oracles used to cross-check the compiler.

Everything in this module is deliberately written from first principles on
plain dicts/sets/lists, without importing the package under test, so that
test expectations do not inherit bugs from the implementation.
"""

from __future__ import annotations

from itertools import permutations


def def_closure(def_deps: dict[str, set[str]], x: str) -> set[str]:
    """All methods reachable from x through chains of definition deps."""
    seen: set[str] = set()
    frontier = set(def_deps.get(x, set()))
    while frontier:
        y = frontier.pop()
        if y in seen:
            continue
        seen.add(y)
        frontier |= def_deps.get(y, set())
    return seen


def universe(
    decl_deps: dict[str, set[str]],
    def_deps: dict[str, set[str]],
    type_deps: dict[str, set[str]],
    x: str,
) -> set[str]:
    """Least fixpoint of the four visibility rules, by naive iteration.

    type_deps(y) are the names appearing in y's type or statement; only
    those contribute through rule 4 once y is already visible.
    """
    u = set(decl_deps.get(x, set())) | def_closure(def_deps, x)
    while True:
        grown = set(u)
        for z in def_closure(def_deps, x):
            grown |= decl_deps.get(z, set())
        for y in u:
            grown |= type_deps.get(y, set())
        if grown == u:
            return u
        u = grown


def min_env(
    order: list[str],
    decl_deps: dict[str, set[str]],
    def_deps: dict[str, set[str]],
    type_deps: dict[str, set[str]],
    x: str,
) -> list[tuple[str, bool]]:
    """(name, keep_definition) pairs in global order for x's environment."""
    u = universe(decl_deps, def_deps, type_deps, x)
    full = def_closure(def_deps, x)
    return [(y, y in full) for y in order if y in u]


def close_param_deps(
    initial: set[str],
    iface_type_deps: dict[str, set[str]],
) -> set[str]:
    """One closure pass: add the names used by the type or statement of
    every member already in the set."""
    out = set(initial)
    for m in initial:
        out |= iface_type_deps.get(m, set())
    return out


def is_topological(order: list[str], edges: set[tuple[str, str]]) -> bool:
    """True when every edge (a, b) has a strictly before b in order."""
    pos = {name: i for i, name in enumerate(order)}
    return all(
        pos[a] < pos[b] for a, b in edges if a in pos and b in pos
    )


def find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """Some shortest dependency cycle, or None. Brute force over lengths."""
    names = sorted(edges)
    for n in range(1, len(names) + 1):
        for combo in permutations(names, n):
            if all(
                combo[(i + 1) % n] in edges.get(combo[i], set())
                for i in range(n)
            ):
                return list(combo)
    return None


def filter_table(
    xs: list[int], minv: int, maxv: int
) -> list[tuple[int, str]]:
    """Direct transcription of the range filter, independent of the
    evaluator: below the minimum clamps low, above the maximum clamps
    high, everything else passes through."""

    def lt(a: int, b: int) -> bool:
        return a < b

    def eq(a: int, b: int) -> bool:
        return a == b

    def gt(a: int, b: int) -> bool:
        return (not lt(a, b)) and (not eq(a, b))

    out = []
    for x in xs:
        if lt(x, minv):
            out.append((minv, "Too_low"))
        elif gt(x, maxv):
            out.append((maxv, "Too_high"))
        else:
            out.append((x, "In_range"))
    return out


def merge_lineages(parents: list[list[str]], self_name: str) -> list[str]:
    """Left-to-right dedup merge of parent lineages, then the species."""
    out: list[str] = []
    for lin in parents:
        for s in lin:
            if s not in out:
                out.append(s)
    if self_name not in out:
        out.append(self_name)
    return out


def atom_is_logical(
    atom: tuple,
    own: dict[str, bool],
    params: dict[str, dict[str, bool]],
    colls: dict[str, dict[str, bool]],
) -> bool:
    """Whether an argument has no computational content, judged where it is
    used.  `own`, `params[p]` and `colls[c]` map the method names of the
    species, of parameter p's interface and of collection c to whether the
    method is a property or a theorem.  Carriers never have content, an
    entity always has."""
    match atom:
        case ("param_carrier", _) | ("coll_carrier", _) | ("self_carrier",):
            return True
        case ("param_method", p, m):
            return params[p][m]
        case ("coll_method", c, m):
            return colls[c][m]
        case ("self_method", m):
            return own[m]
        case _:
            return False
