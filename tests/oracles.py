"""Independent brute-force oracles used to cross-check the compiler.

Everything in this module is deliberately written from first principles on
plain dicts/sets/lists, without importing the package under test, so that
test expectations do not inherit bugs from the implementation.  The output
references and the typing reference at the end are the exceptions: the
first read the package's plans and print source with its printers, but
render the targets with renderers of their own, and pin the layout and what
each species gets; the second types with the package's type classes.
`plain_arg`, with the output references, maps the plans' generator
arguments to the plain vocabulary of `atom_is_logical` and `Evaluator`.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from itertools import count, permutations


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


def reference_order(nf, decl: dict[str, set[str]]) -> tuple[list[str], list[list[str]]]:
    """The global method order of species `nf` and its mutual groups, from
    their definition.  The `rec` methods that reach each other through
    `decl` form one group, each other method a group of its own.  Then the
    free group with the smallest key comes next, again and again, its
    members by key.  A group is free when all its members depend on is
    placed or in it.  A key is (lineage rank of the species where the
    method first got a definition, else of its declaration site; name).
    Naive and quadratic, for small species."""

    def reach(x: str) -> set[str]:
        seen: set[str] = set()
        todo = list(decl[x])
        while todo:
            y = todo.pop()
            if y not in seen:
                seen.add(y)
                todo.extend(decl[y])
        return seen

    def key(n: str) -> tuple[int, str]:
        mi = nf.methods[n]
        site = mi.first_def if mi.first_def is not None else mi.decl_site
        return (nf.lineage.index(site) if site in nf.lineage else len(nf.lineage), n)

    rec = [n for n, mi in nf.methods.items() if mi.rec]
    reached = {n: reach(n) for n in rec}
    groups = {n: (n,) for n in nf.methods}
    for n in rec:
        groups[n] = tuple(sorted({n} | {m for m in rec if m in reached[n] and n in reached[m]}))
    left = sorted(set(groups.values()), key=lambda g: min(map(key, g)))
    order: list[str] = []
    placed: set[str] = set()
    while left:
        g = next(g for g in left if all(d in g or d in placed for n in g for d in decl[n]))
        left.remove(g)
        order += sorted(g, key=key)
        placed.update(g)
    return order, sorted(list(g) for g in set(groups.values()) if len(g) > 1)


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


# ---------------------------------------------------------------------------
# Reference evaluator: a direct tree walk over plain data.
#
# A unit is a dict with "collections" (names in declaration order),
# "extractions" (name -> {"species", "comp_args", "methods": [(m, logical)]}),
# "creators" (species -> {"outer": [(tag, logical)],
# "locals": [(name, gen or None, method is logical)]}) and "generators"
# ((species, method) -> {"lifts": [(tag, abstract, logical)],
# "params": [names], "rec", "method", "body"}); a gen is
# (species, method, comp_args).  Expressions and patterns are tuples tagged
# by their first item (see `Evaluator.eval` and `_match`).  Each expression
# evaluated costs one step, checked before the node is evaluated.  A call
# nests unless it is in tail position: the body of a function applied to
# all of its remaining arguments, or a branch of an `if` or a `match` in
# tail position.  More than `depth_limit` nested calls fail.

EVAL_ARITY = {"+": 2, "-": 2, "<0x": 2, "=0x": 2, "&&": 2, "~~": 1, "=": 2, "fst": 1, "snd": 1}


class Failure(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


def _error(message: str) -> Failure:
    return Failure("EvalError", message)


@dataclass(frozen=True)
class Con:
    name: str
    args: tuple = ()


@dataclass
class Fn:
    params: list
    body: tuple
    vars: dict
    quals: dict


@dataclass(frozen=True)
class Builtin:
    name: str


class Evaluator:
    """Builds the collections of a plain unit, then evaluates expressions."""

    def __init__(self, unit: dict, step_limit: int, depth_limit: int):
        self.unit = unit
        self.step_limit = step_limit
        self.depth_limit = depth_limit
        self.steps = 0
        self.depth = 0
        self.collections: dict[str, dict] = {}
        for name in unit["collections"]:
            ext = unit["extractions"][name]
            args = [self._atom(a, {}, {}, {}) for a in ext["comp_args"]]
            record = self._create(ext["species"], args)
            self.collections[name] = {
                m: record[m] for m, logical in ext["methods"] if not logical
            }

    def _create(self, species: str, args: list) -> dict:
        plan = self.unit["creators"][species]
        kept = [tag for tag, logical in plan["outer"] if not logical]
        if len(kept) != len(args):
            raise _error(
                f"{species} needs {len(kept)} effective argument(s), got {len(args)}"
            )
        vars_: dict = {}
        quals: dict = {}
        for tag, v in zip(kept, args):
            self._bind(tag, v, vars_, quals)
        locals_: dict = {}
        for name, gen, logical in plan["locals"]:
            if gen is None or logical:
                continue
            g_species, g_method, comp_args = gen
            vals = [self._atom(a, vars_, quals, locals_) for a in comp_args]
            gp = self.unit["generators"][g_species, g_method]
            locals_[name] = self._instantiate(gp, vals)
        return locals_

    def _bind(self, tag: tuple, v, vars_: dict, quals: dict) -> None:
        match tag:
            case ("param_method", p, m):
                quals[(p, m)] = v
            case ("param_entity", x) | ("self_method", x):
                vars_[x] = v
            case _:
                raise _error(f"cannot bind argument {tag!r}")

    def _instantiate(self, gp: dict, vals: list):
        vars_: dict = {}
        quals: dict = {}
        kept = [tag for tag, abstract, logical in gp["lifts"] if abstract and not logical]
        assert len(kept) == len(vals)
        for tag, v in zip(kept, vals):
            self._bind(tag, v, vars_, quals)
        if not gp["params"]:
            return self.eval(gp["body"], vars_, quals)
        fn = Fn(list(gp["params"]), gp["body"], vars_, quals)
        if gp["rec"]:
            vars_[gp["method"]] = fn
        return fn

    def _atom(self, a: tuple, vars_: dict, quals: dict, locals_: dict):
        match a:
            case ("param_method", p, m):
                return quals[(p, m)]
            case ("entity_expr", e):
                return self.eval(e, vars_, quals)
            case ("self_method", m):
                return locals_[m]
            case ("coll_method", c, m):
                return self.collections[c][m]
            case _:
                raise _error(f"cannot evaluate argument {a!r}")

    def eval(self, e: tuple, vars_: dict, quals: dict, tail: bool = False):
        self.steps += 1
        if self.steps > self.step_limit:
            raise Failure("StepLimit", f"step limit of {self.step_limit} exceeded")
        ev = lambda x: self.eval(x, vars_, quals)
        branch = lambda x: self.eval(x, vars_, quals, tail)
        match e:
            case ("lit", v):
                return v
            case ("var", name):
                if name in vars_:
                    return vars_[name]
                if name in EVAL_ARITY:
                    return Builtin(name)
                raise _error(f"unbound name {name}")
            case ("qual", coll, name):
                if (coll, name) in quals:
                    return quals[(coll, name)]
                if coll not in self.collections:
                    raise _error(f"unknown collection {coll}")
                if name not in self.collections[coll]:
                    raise _error(f"{coll} has no method {name}")
                return self.collections[coll][name]
            case ("con", name, args):
                return Con(name, tuple(ev(a) for a in args))
            case ("call", callee, args):
                f = ev(callee)
                args = [ev(a) for a in args]
                if tail:
                    return self.apply(f, args)
                self.depth += 1
                try:
                    if self.depth > self.depth_limit:
                        raise Failure(
                            "DepthLimit",
                            f"depth limit of {self.depth_limit} nested calls exceeded",
                        )
                    return self.apply(f, args)
                finally:
                    self.depth -= 1
            case ("tuple", items):
                return tuple(ev(i) for i in items)
            case ("unop", op, x):
                return builtin(op, [ev(x)])
            case ("binop", op, left, right):
                return builtin(op, [ev(left), ev(right)])
            case ("if", cond, then, orelse):
                c = ev(cond)
                if not isinstance(c, bool):
                    raise _error("condition is not a boolean")
                return branch(then if c else orelse)
            case ("match", scrutinee, arms):
                v = ev(scrutinee)
                for pat, body in arms:
                    bound: dict = {}
                    if _match(pat, v, bound):
                        return self.eval(body, {**vars_, **bound}, quals, tail)
                raise _error("no pattern matched the value")
            case ("other", kind):
                raise _error(f"cannot evaluate {kind}")
        raise AssertionError(e)

    def apply(self, f, args: list):
        while args:
            if isinstance(f, Fn):
                n = len(f.params)
                if len(args) < n:
                    bound = {**f.vars, **dict(zip(f.params, args))}
                    return Fn(f.params[len(args):], f.body, bound, f.quals)
                bound = {**f.vars, **dict(zip(f.params, args[:n]))}
                tail = len(args) == n
                f, args = self.eval(f.body, bound, f.quals, tail), args[n:]
            elif isinstance(f, Builtin):
                arity = EVAL_ARITY[f.name]
                if len(args) < arity:
                    raise _error(f"partial application of builtin {f.name}")
                f, args = builtin(f.name, args[:arity]), args[arity:]
            else:
                raise _error("value is not a function")
        return f


def builtin(name: str, args: list):
    if name in ("+", "-", "<0x", "=0x"):
        a, b = args
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in args):
            raise _error(f"{name} expects integers")
        return {"+": a + b, "-": a - b, "<0x": a < b, "=0x": a == b}[name]
    if name == "&&":
        if not all(isinstance(x, bool) for x in args):
            raise _error("&& expects booleans")
        return args[0] and args[1]
    if name == "~~":
        if not isinstance(args[0], bool):
            raise _error("~~ expects a boolean")
        return not args[0]
    if name == "=":
        return args[0] == args[1]
    if name in ("fst", "snd"):
        t = args[0]
        if not isinstance(t, tuple) or len(t) != 2:
            raise _error(f"{name} expects a pair")
        return t[0] if name == "fst" else t[1]
    raise _error(f"unknown builtin {name}")


def _match(p: tuple, v, bound: dict) -> bool:
    match p:
        case ("wild",):
            return True
        case ("pvar", name):
            bound[name] = v
            return True
        case ("pcon", name, args):
            if not isinstance(v, Con) or v.name != name or len(args) != len(v.args):
                return False
            return all(_match(a, w, bound) for a, w in zip(args, v.args))
        case ("ptuple", items):
            if not isinstance(v, tuple) or len(v) != len(items):
                return False
            return all(_match(i, w, bound) for i, w in zip(items, v))
    return False


def show(v) -> str:
    """A value as `focml eval` prints it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, tuple):
        return "(" + ", ".join(show(i) for i in v) + ")"
    if isinstance(v, Con):
        if not v.args:
            return v.name
        return f"{v.name} (" + ", ".join(show(a) for a in v.args) + ")"
    return "<fun>"


# ---------------------------------------------------------------------------
# Reference scoping: what each free name of a tree means where it is written.
#
# A tree is plain tuples: ("var", name), ("qual", collection),
# ("bind", names, children) for a binder over its children, and
# ("node", children) for anything else.  A species' scope is a dict with the
# sets "entities", "methods" and "params" (its collection parameters).


def scope_tags(tree: tuple, scope: dict, bound: frozenset = frozenset()) -> list:
    """(name, tag) for every name of a plain tree, in walk order: a name
    bound by an enclosing binder is a local, else an entity parameter, else
    a method, else a builtin; a collection is a parameter or a toplevel
    collection."""
    match tree:
        case ("var", name):
            for tag, names in (
                ("local", bound),
                ("entity", scope["entities"]),
                ("method", scope["methods"]),
                ("builtin", EVAL_ARITY),
            ):
                if name in names:
                    return [(name, tag)]
            return [(name, None)]
        case ("qual", coll):
            return [(coll, "param" if coll in scope["params"] else "collection")]
        case ("bind", names, children):
            inner = bound | set(names)
            return [t for c in children for t in scope_tags(c, scope, inner)]
        case ("node", children):
            return [t for c in children for t in scope_tags(c, scope, bound)]
    raise AssertionError(tree)


# ---------------------------------------------------------------------------
# Lexer: the character-by-character tokenizer the master-regex lexer
# replaced.  A token is (kind, value, line, col, bullet); an error is a
# `LexFailure` with its message and position.

LEX_KEYWORDS = {
    "species", "collection", "inherit", "implement", "representation",
    "signature", "let", "rec", "property", "theorem", "proof", "of", "end",
    "type", "is", "in", "all", "ex", "assume", "hypothesis", "prove", "qed",
    "by", "definition", "step", "admitted", "if", "then", "else", "match",
    "with", "true", "false", "Self",
}

LEX_OPERATORS = [
    ";;", "->", "/\\", "\\/", "<0x", "=0x", "~~", "&&",
    "(", ")", ",", ";", ":", "=", "!", "|", "*", "+", "-", "~",
]

_BULLET = re.compile(r"<(\d+)>([A-Za-z0-9]+)")
_IDENT = re.compile(r"[a-z_][A-Za-z0-9_]*")
_CAPID = re.compile(r"[A-Z][A-Za-z0-9_]*")
_INT = re.compile(r"\d+")
_WS = re.compile(r"[ \t\r\n]+")


class LexFailure(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


def tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(s: str) -> None:
        nonlocal line, col
        for ch in s:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        m = _WS.match(text, i)
        if m:
            advance(m.group())
            i = m.end()
            continue
        if text.startswith("(*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("(*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*)", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            if depth:
                raise LexFailure("unterminated comment", line, col)
            advance(text[i:j])
            i = j
            continue
        p = (line, col)
        if text[i] == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise LexFailure("unterminated string literal", *p)
            j += 1
            tokens.append(("string", "".join(out), *p, None))
            advance(text[i:j])
            i = j
            continue
        m = _BULLET.match(text, i)
        if m:
            tokens.append(("bullet", m.group(), *p, (int(m.group(1)), m.group(2))))
            advance(m.group())
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            word = m.group()
            tokens.append((word if word in LEX_KEYWORDS else "ident", word, *p, None))
            advance(word)
            i = m.end()
            continue
        m = _CAPID.match(text, i)
        if m:
            word = m.group()
            tokens.append(("Self" if word == "Self" else "capid", word, *p, None))
            advance(word)
            i = m.end()
            continue
        m = _INT.match(text, i)
        if m:
            tokens.append(("int", m.group(), *p, None))
            advance(m.group())
            i = m.end()
            continue
        for op in LEX_OPERATORS:
            if text.startswith(op, i):
                tokens.append((op, op, *p, None))
                advance(op)
                i += len(op)
                break
        else:
            raise LexFailure(f"unexpected character {text[i]!r}", *p)
    tokens.append(("eof", "", line, col, None))
    return tokens


# ---------------------------------------------------------------------------
# Output references: the dependency report and `doc`, every piece written
# from scratch for every species, where the compiler writes each shared
# piece once and reuses it.  They read a compiled unit and print its trees
# with the package's own printers.


def deps_report(cu) -> dict:
    """The dependency report as a dict, every set in the owning species'
    global method order."""
    report: dict[str, dict] = {"species": {}, "collections": {}}
    for kind, name in cu.decl_order:
        if kind == "species":
            report["species"][name] = _species_report(cu, name)
        elif kind == "collection":
            model = cu.collections[name]
            report["collections"][name] = {
                "implements": model.nf.name,
                "args": _collection_args(model),
            }
    return report


def render_deps_report(cu) -> str:
    return json.dumps(deps_report(cu), indent=2) + "\n"


def _species_report(cu, name: str) -> dict:
    from focml.generators import _param_method_lift
    from focml.pretty import expr_to_source, type_to_source

    def lift_text(p, w: str) -> str:  # the type or statement a generator abstracts over
        lift = _param_method_lift(nf, p, w, cu.species)
        return type_to_source(lift.ty) if lift.ty is not None else expr_to_source(lift.statement)

    nf = cu.species[name]
    index = {m: i for i, m in enumerate(nf.order)}

    def in_order(names: set[str]) -> list[str]:
        return sorted(names, key=lambda n: index[n])

    methods: dict[str, dict] = {}
    for m in nf.order:
        mi = nf.methods[m]
        md = nf.deps[m]
        params: dict[str, list[dict]] = {}
        for p in nf.is_params:
            if not md.param_deps.get(p.name) and not md.param_carrier.get(p.name):
                continue
            params[p.name] = [
                {"name": w, "type": lift_text(p, w)}
                for w in md.param_deps.get(p.name, [])
            ]
        for v in md.entity_used:
            carrier = next(q.carrier for q in nf.entity_params if q.name == v)
            params[v] = [{"name": v, "type": carrier}]
        methods[m] = {
            "kind": mi.kind,
            "origin": mi.origin,
            "type": type_to_source(mi.scheme.body) if mi.scheme else None,
            "statement": expr_to_source(mi.statement) if mi.statement is not None else None,
            "decl": in_order(md.decl),
            "def": in_order(md.defs),
            "universe": in_order(md.universe),
            "carrier": {"decl": mi.carrier_decl, "def": mi.carrier_def},
            "min_env": [{"name": n, "keep": keep} for n, keep in md.min_env],
            "params": params,
            "order_index": index[m],
            "valid_proof": mi.valid_proof,
        }
    return {"order": list(nf.order), "methods": methods}


def _collection_args(model) -> list[str]:
    from focml.ast import Expr
    from focml.pretty import expr_to_source

    return [
        expr_to_source(a) if isinstance(a, Expr) else a.name
        for a in model.args.values()
    ]


def doc_text(cu) -> str:
    """Per-species method inventory with origins, reverted proofs and
    admitted proof steps."""
    from focml.pretty import expr_to_source, type_to_source
    from focml.proofs import iter_leaves

    lines: list[str] = []
    for kind, name in cu.decl_order:
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
            ty = (
                type_to_source(mi.scheme.body)
                if mi.scheme is not None
                else expr_to_source(mi.statement)
                if mi.statement is not None
                else "?"
            )
            lines.append(f"  {mi.kind} {m} : {ty} (from {mi.origin})")
        for m in nf.order:
            mi = nf.methods[m]
            if mi.proof is None:
                continue
            admitted = sum(1 for leaf in iter_leaves(mi.proof) if leaf.admitted)
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


# ---------------------------------------------------------------------------
# Typing reference: the unifier and expression inference with no shortcut.
# A call or an operator builds the arrow of its argument types and a fresh
# result, which `unify` takes apart again.  `test_properties` runs the
# package's own method typing with these two swapped in, so they use the
# package's type classes and diagnostics.

from focml.ast import (  # noqa: E402
    NOPOS, BinOp, BoolLit, Call, ConRef, Connective, Eq, Expr, If, IntLit, Match,
    Not, Pos, Quant, Qual, Scheme, StrLit, TArrow, TCon, TGen, TSelf, TTuple,
    TVar, TupleExpr, Type, T_BOOL, T_INT, T_STRING, UnOp, Var, arrow, same,
    type_map, type_walk,
)
from focml.basics import BUILTIN_FUNCTIONS  # noqa: E402
from focml.errors import CARRIER_LEAK, TYPE_MISMATCH, UNKNOWN, CompileError  # noqa: E402
from focml.pretty import type_to_source  # noqa: E402
from focml.resolve import BUILTIN, ENTITY, LOCAL, PARAM  # noqa: E402
from focml.typecheck import SpeciesTypeEnv, _carriers, type_pattern  # noqa: E402


class Unifier:
    """Unification state for one method (or one proof tree), with no
    shortcut.

    mode='body' lets Self expand to the representation; mode='statement'
    keeps Self rigid and reports expansion attempts as carrier leaks.
    """

    def __init__(self, rep: Type | None = None, mode: str = "body"):
        assert mode in ("body", "statement")
        self.rep = rep
        self.mode = mode
        self.subst: dict[int, Type] = {}
        self.used_rep = False
        self.touched_self = False
        self._fresh = count()

    def fresh(self) -> TVar:
        return TVar(next(self._fresh) + 1_000_000)

    def resolve(self, t: Type) -> Type:
        while isinstance(t, TVar) and t.uid in self.subst:
            t = self.subst[t.uid]
        return t

    def deep(self, t: Type) -> Type:
        t = self.resolve(t)
        match t:
            case TArrow(a, r):
                return TArrow(self.deep(a), self.deep(r))
            case TTuple(items):
                return TTuple(tuple([self.deep(i) for i in items]))
            case _:
                return t

    def instantiate(self, scheme: Scheme) -> Type:
        if scheme.count == 0:
            return scheme.body
        fresh = [self.fresh() for _ in range(scheme.count)]
        return type_map(
            scheme.body, lambda n: fresh[n.idx] if isinstance(n, TGen) else n
        )

    def _occurs(self, uid: int, t: Type) -> bool:
        return any(
            isinstance(n, TVar) and n.uid == uid for n in type_walk(self.deep(t))
        )

    def unify(self, a: Type, b: Type, pos: Pos = NOPOS) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if same(a, b):
            if isinstance(a, TSelf):
                self.touched_self = True
            return
        if isinstance(a, TVar):
            if self._occurs(a.uid, b):
                raise CompileError(TYPE_MISMATCH, "infinite type", pos)
            self.subst[a.uid] = b
            return
        if isinstance(b, TVar):
            return self.unify(b, a, pos)
        if isinstance(a, TSelf) or isinstance(b, TSelf):
            self.touched_self = True
            other = b if isinstance(a, TSelf) else a
            if self.mode == "statement":
                raise CompileError(
                    CARRIER_LEAK,
                    "statement constrains Self to "
                    f"{type_to_source(self.deep(other))}",
                    pos,
                )
            if self.rep is None:
                raise CompileError(
                    TYPE_MISMATCH,
                    f"cannot unify Self with {type_to_source(self.deep(other))}",
                    pos,
                )
            self.used_rep = True
            return self.unify(self.rep, other, pos)
        match a, b:
            case TArrow(a1, r1), TArrow(a2, r2):
                self.unify(a1, a2, pos)
                return self.unify(r1, r2, pos)
            case TTuple(i1), TTuple(i2) if len(i1) == len(i2):
                for x, y in zip(i1, i2):
                    self.unify(x, y, pos)
                return
            case _:
                a, b = self.deep(a), self.deep(b)
                left, right = type_to_source(a), type_to_source(b)
                message = f"cannot unify {left} with {right}"
                if left == right:  # a parameter's carrier and a collection's
                    message += f" ({_carriers(a)} against {_carriers(b)})"
                raise CompileError(TYPE_MISMATCH, message, pos)

    def monotype(self, t: Type, name: str, pos: Pos) -> Type:
        """`t` in full; a method's type has no variable left."""
        t = self.deep(t)
        if any(isinstance(n, TVar) for n in type_walk(t)):
            raise CompileError(
                TYPE_MISMATCH,
                f"the type of {name} is not determined: {type_to_source(t)}; annotate it",
                pos,
            )
        return t


def infer_expr(
    e: Expr, locals_: dict[str, Type], env: SpeciesTypeEnv, uni: Unifier
) -> Type:
    match e:
        case IntLit():
            return T_INT
        case BoolLit():
            return T_BOOL
        case StrLit():
            return T_STRING
        case Var(name, ref):
            if ref == LOCAL:
                return locals_[name]
            if ref == ENTITY:
                return env.entity_params[name]
            if ref == BUILTIN:
                return uni.instantiate(BUILTIN_FUNCTIONS[name].scheme)
            if name not in env.methods:  # a property, or itself
                raise CompileError(UNKNOWN, f"unknown name {name}", e.pos)
            return uni.instantiate(env.methods[name])
        case Qual(coll, name, ref):
            iface = (env.param_ifaces if ref == PARAM else env.collections)[coll]
            if name not in iface:
                raise CompileError(
                    UNKNOWN, f"{coll} has no method {name}", e.pos
                )
            return uni.instantiate(iface[name])
        case ConRef(name, args):
            if name not in env.constructors:
                raise CompileError(UNKNOWN, f"unknown constructor {name}", e.pos)
            union, argtys = env.constructors[name]
            if len(args) != len(argtys):
                raise CompileError(
                    TYPE_MISMATCH,
                    f"constructor {name} expects {len(argtys)} argument(s), "
                    f"got {len(args)}",
                    e.pos,
                )
            for a, ty in zip(args, argtys):
                uni.unify(infer_expr(a, locals_, env, uni), ty, a.pos)
            return TCon(union)
        case Call(callee, args):
            tc = infer_expr(callee, locals_, env, uni)
            tas = [infer_expr(a, locals_, env, uni) for a in args]
            ret = uni.fresh()
            uni.unify(tc, arrow(*tas, ret), e.pos)
            return ret
        case BinOp(op, left, right):
            sig = uni.instantiate(BUILTIN_FUNCTIONS[op].scheme)
            tl = infer_expr(left, locals_, env, uni)
            tr = infer_expr(right, locals_, env, uni)
            ret = uni.fresh()
            uni.unify(sig, arrow(tl, tr, ret), e.pos)
            return ret
        case UnOp(op, operand):
            sig = uni.instantiate(BUILTIN_FUNCTIONS[op].scheme)
            t = infer_expr(operand, locals_, env, uni)
            ret = uni.fresh()
            uni.unify(sig, arrow(t, ret), e.pos)
            return ret
        case Eq(left, right):
            tl = infer_expr(left, locals_, env, uni)
            tr = infer_expr(right, locals_, env, uni)
            uni.unify(tl, tr, e.pos)
            return T_BOOL
        case If(cond, then, orelse):
            uni.unify(infer_expr(cond, locals_, env, uni), T_BOOL, cond.pos)
            tt = infer_expr(then, locals_, env, uni)
            to = infer_expr(orelse, locals_, env, uni)
            uni.unify(tt, to, e.pos)
            return tt
        case TupleExpr(items):
            return TTuple(
                tuple([infer_expr(i, locals_, env, uni) for i in items])
            )
        case Match(scrutinee, arms):
            ts = infer_expr(scrutinee, locals_, env, uni)
            result = uni.fresh()
            for pat, body in arms:
                binds = type_pattern(pat, ts, env, uni)
                tb = infer_expr(body, {**locals_, **binds}, env, uni)
                uni.unify(tb, result, body.pos)
            return result
        case Quant() | Connective() | Not():
            raise CompileError(
                TYPE_MISMATCH, "formula in function body", e.pos
            )
        case _:
            raise CompileError(TYPE_MISMATCH, "unsupported expression", e.pos)


# ---------------------------------------------------------------------------
# Parser reference: the expression grammar as one recursive-descent method
# per precedence level, each reading the cursor through `peek` and `at`,
# and the stratification pass that walks every `let` body.  The package's
# parser climbs one loop over an operator table and walks only the bodies
# in which it built a formula node; `test_properties` checks that both give
# the same trees, positions included, or the same diagnostic.

from focml.ast import CompilationUnit, SpeciesDecl, expr_children  # noqa: E402
from focml.errors import DEPTH_LIMIT, SYNTAX  # noqa: E402
from focml.lexer import Token, tokenize as lex  # noqa: E402
from focml.parser import Parser  # noqa: E402


def expr_walk(e: Expr):
    """Every node of `e` in pre-order (a node, then its children left to
    right), from an explicit stack: linear in the size of `e` whatever its
    depth."""
    todo = [e]
    while todo:
        e = todo.pop()
        yield e
        todo.extend(reversed(expr_children(e)))


class ReferenceParser(Parser):
    # the cursor: the current token, and a step past it
    def peek(self) -> Token:
        return self.tokens[self.i]

    def at(self, kind: str) -> bool:
        return self.tokens[self.i].kind == kind

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def ident(self, what: str = "a name") -> Token:
        return self.expect("ident", what)

    def parse_expr(self) -> Expr:
        tok = self.peek()
        match tok.kind:
            case "all" | "ex":
                self.next()
                vars = [self.ident("a bound variable").value]
                while self.at("ident"):
                    vars.append(self.next().value)
                self.expect(":")
                ty = self.parse_type()
                self.expect(",")
                return Quant(tok.kind, vars, ty, self.parse_expr(), pos=tok.pos)
            case "if":
                self.next()
                cond = self.parse_expr()
                self.expect("then")
                then = self.parse_expr()
                self.expect("else")
                return If(cond, then, self.parse_expr(), pos=tok.pos)
            case "match":
                return self.parse_match()
            case _:
                return self.parse_implication()

    def parse_implication(self) -> Expr:
        left = self.parse_disjunction()
        if self.at("->"):
            pos = self.next().pos
            return Connective("->", left, self.parse_expr(), pos=pos)
        return left

    def parse_disjunction(self) -> Expr:
        left = self.parse_conjunction()
        while self.at("\\/"):
            pos = self.next().pos
            left = Connective("\\/", left, self.parse_conjunction(), pos=pos)
        return left

    def parse_conjunction(self) -> Expr:
        left = self.parse_negation()
        while self.at("/\\"):
            pos = self.next().pos
            left = Connective("/\\", left, self.parse_negation(), pos=pos)
        return left

    def parse_negation(self) -> Expr:
        if self.at("~"):
            pos = self.next().pos
            return Not(self.parse_negation(), pos=pos)
        return self.parse_equality()

    def parse_equality(self) -> Expr:
        left = self.parse_bool_op()
        if self.at("="):
            pos = self.next().pos
            return Eq(left, self.parse_bool_op(), pos=pos)
        return left

    def parse_bool_op(self) -> Expr:
        left = self.parse_comparison()
        while self.at("&&"):
            pos = self.next().pos
            left = BinOp("&&", left, self.parse_comparison(), pos=pos)
        return left

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        if self.peek().kind in ("<0x", "=0x"):
            tok = self.next()
            return BinOp(tok.kind, left, self.parse_additive(), pos=tok.pos)
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_unary()
        while self.peek().kind in ("+", "-"):
            tok = self.next()
            left = BinOp(tok.kind, left, self.parse_unary(), pos=tok.pos)
        return left

    def parse_unary(self) -> Expr:
        if self.at("~~"):
            pos = self.next().pos
            return UnOp("~~", self.parse_unary(), pos=pos)
        return self.parse_application()

    def parse_application(self) -> Expr:
        e = self.parse_atom()
        while self.at("("):
            self.next()
            args: list[Expr] = []
            if not self.at(")"):
                args.append(self.parse_expr())
                while self.accept(","):
                    args.append(self.parse_expr())
            self.expect(")")
            match e:
                case ConRef(name, []) if not isinstance(e, Call):
                    e = ConRef(name, args, pos=e.pos)
                case Var() | Qual():
                    e = Call(e, args, pos=e.pos)
                case _:
                    raise CompileError(SYNTAX, "expression is not callable", e.pos)
        return e

    def parse_atom(self) -> Expr:
        tok = self.peek()
        match tok.kind:
            case "int":
                self.next()
                return IntLit(int(tok.value), pos=tok.pos)
            case "string":
                self.next()
                return StrLit(tok.value, pos=tok.pos)
            case "true" | "false":
                self.next()
                return BoolLit(tok.kind == "true", pos=tok.pos)
            case "ident":
                self.next()
                return Var(tok.value, pos=tok.pos)
            case "capid":
                self.next()
                if self.accept("!"):
                    name = self.ident("a method name")
                    return Qual(tok.value, name.value, pos=tok.pos)
                return ConRef(tok.value, [], pos=tok.pos)
            case "(":
                self.next()
                items = [self.parse_expr()]
                while self.accept(","):
                    items.append(self.parse_expr())
                self.expect(")")
                return items[0] if len(items) == 1 else TupleExpr(items, pos=tok.pos)
            case "if" | "match" | "all" | "ex":
                return self.parse_expr()
            case _:
                raise CompileError(
                    SYNTAX, f"expected an expression, found {tok.value or tok.kind!r}", tok.pos)


def check_every_let(unit: CompilationUnit) -> None:
    """Function bodies must stay in the computational stratum."""
    for decl in unit.decls:
        if not isinstance(decl, SpeciesDecl):
            continue
        for m in decl.methods:
            if m.kind != "let" or m.body is None:
                continue
            for e in expr_walk(m.body):
                kind = type(e)
                if kind is Quant:
                    raise CompileError(
                        SYNTAX, f"quantifier in the body of {decl.name}!{m.name}", e.pos)
                if kind is Connective:
                    raise CompileError(
                        SYNTAX, f"formula connective '{e.op}' in the body of {decl.name}!{m.name}", e.pos)
                if kind is Not:
                    raise CompileError(
                        SYNTAX,
                        f"formula negation '~' in the body of {decl.name}!{m.name} (use '~~')", e.pos)


def reference_parse(text: str, rule=None, end: str | None = None):
    """`rule` (a whole unit, stratified, by default) over the tokens of
    `text`, then `end` of input if named."""
    p = ReferenceParser(lex(text))
    try:
        out = (rule or ReferenceParser.parse_unit)(p)
    except RecursionError:
        raise CompileError(DEPTH_LIMIT, "nested too deeply", p.peek().pos) from None
    if end is not None:
        p.expect("eof", end)
    if rule is None:
        check_every_let(out)
    return out


def reference_parse_expr(text: str):
    return reference_parse(text, ReferenceParser.parse_expr, "end of expression")


# ---------------------------------------------------------------------------
# Target references: the logical and the computational target with every
# piece written from scratch for every species (record fields, creator
# locals, outer abstractions, types and statements), where the emitters
# write each shared piece once per call and reuse it.  The proof hole name
# joins the whole proof's text, printed recursively, before it hashes it.
# They print trees, the lifts' tags and the generators' arguments with
# renderers of their own below: one `match` cascade per kind of tree, so
# that a defect in the emitters' renderers shows against them.

from focml.ast import (  # noqa: E402
    PCon, Proof, ProofLeaf, ProofStep, ProofSteps, PTuple, PVar, PWild, Pattern,
    TCollCarrier, TParam, UnionTypeDecl,
)
from focml.basics import LOGICAL_TYPE_NAMES  # noqa: E402
from focml.emit import RenderEnv  # noqa: E402
from focml.generators import (  # noqa: E402
    CollectionExtractionPlan, GenApp, Lift, MethodGeneratorPlan, SpeciesPlan,
)
from focml.hierarchy import NFSpecies  # noqa: E402
from focml.pretty import _fact_to_source, expr_to_source  # noqa: E402
from focml.resolve import METHOD  # noqa: E402


def plain_arg(arg, lift: Lift | None = None) -> tuple:
    """A lift's tag, or an argument applied for `lift`, as the tuple that
    `atom_is_logical` and `Evaluator` read.  The lift tells an entity from
    a method: what is passed for an entity parameter is ("entity_expr",
    tree) whatever its node, a bare `C!m` included."""
    if lift is not None and type(lift.tag) is Var and lift.tag.ref == ENTITY:
        return ("entity_expr", arg)
    match arg:
        case TParam(p):
            return ("param_carrier", p)
        case TCollCarrier(c):
            return ("coll_carrier", c)
        case TSelf():
            return ("self_carrier",)
        case Qual(c, m, ref):
            return ("param_method" if ref == PARAM else "coll_method", c, m)
        case Var(v, ref) if ref == ENTITY:
            return ("param_entity", v)
        case Var(m, ref) if ref == METHOD:
            return ("self_method", m)
    raise ValueError(f"not a generator argument: {arg!r}")


def _wrap(text: str, atomic: bool) -> str:
    return text if atomic else f"({text})"


def render_type(t: Type, env: RenderEnv) -> str:
    match t:
        case TSelf():
            assert env.self_ty is not None
            return env.self_ty
        case TCon(name):
            return LOGICAL_TYPE_NAMES.get(name, f"{name}__t")
        case TParam(name):
            assert name in env.params
            return env.param_ty.format(name)
        case TCollCarrier(name):
            return f"{name}.me_as_carrier"
        case TArrow(arg, res):
            a = render_type(arg, env)
            if isinstance(arg, TArrow):
                a = f"({a})"
            return f"{a} -> {render_type(res, env)}"
        case TTuple(items):
            parts = []
            for it in items:
                s = render_type(it, env)
                if isinstance(it, TArrow):
                    s = f"({s})"
                parts.append(s)
            return "(" + " * ".join(parts) + ")"
        case _:
            raise ValueError(f"cannot render type {t!r}")


def render_expr(e: Expr, env: RenderEnv) -> tuple[str, bool]:
    """Rendered text plus whether it is self-delimiting."""
    match e:
        case IntLit(v):
            return str(v), True
        case BoolLit(v):
            return ("true" if v else "false"), True
        case StrLit(v):
            escaped = v.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"', True
        case Var() | Qual():
            return _var_head(e, env)
        case ConRef(name, args):
            if not args:
                return name, True
            inner = " ".join([_arg(a, env) for a in args])
            return f"{name} {inner}", False
        case Call(callee, args):
            head = _call_head(callee, env)
            inner = " ".join([_arg(a, env) for a in args])
            return f"{head} {inner}", False
        case TupleExpr(items):
            inner = ", ".join([render_expr(i, env)[0] for i in items])
            return f"({inner})", True
        case UnOp(op, operand):
            b = BUILTIN_FUNCTIONS[op]
            return f"{_builtin_head(b, env)} {_arg(operand, env)}", False
        case BinOp(op, left, right):
            b = BUILTIN_FUNCTIONS[op]
            if b.infix:
                return f"{_arg(left, env)} {op} {_arg(right, env)}", False
            return (
                f"{_builtin_head(b, env)} {_arg(left, env)} {_arg(right, env)}",
                False,
            )
        case Eq(left, right):
            b = BUILTIN_FUNCTIONS["="]
            return (
                f"{_builtin_head(b, env)} {_arg(left, env)} {_arg(right, env)}",
                False,
            )
        case If(cond, then, orelse):
            c = render_expr(cond, env)[0]
            return (
                f"if ({c}) then {_arg(then, env)} else {_arg(orelse, env)}",
                False,
            )
        case Match(scrutinee, arms):
            s = render_expr(scrutinee, env)[0]
            sep = "=>" if env.target == "logical" else "->"
            parts = [f"match {s} with"]
            for pat, body in arms:
                parts.append(
                    f"| {_pattern(pat, env)} {sep} {render_expr(body, env)[0]}"
                )
            text = " ".join(parts)
            if env.target == "logical":
                text += " end"
            return text, False
        case _:
            raise ValueError(f"cannot render expression {e!r}")


def _arg(e: Expr, env: RenderEnv) -> str:
    return _wrap(*render_expr(e, env))


def _var_head(e: Var | Qual, env: RenderEnv) -> tuple[str, bool]:
    """The name `e` stands for, and whether it is self-delimiting."""
    if type(e) is Qual:
        return (f"_p_{e.coll}_{e.name}" if e.ref == PARAM else f"{e.coll}.{e.name}"), True
    if e.ref == LOCAL:
        return e.name, True
    if e.ref == ENTITY:
        return f"_p_{e.name}_{e.name}", True
    if e.ref == METHOD:
        return env.prefix + e.name, True
    head = _builtin_head(BUILTIN_FUNCTIONS[e.name], env)
    return head, " " not in head


def _builtin_head(b, env: RenderEnv) -> str:
    head = b.logical
    if env.target == "logical" and b.type_args:
        head += " _" * b.type_args
    return head


def _call_head(callee: Expr, env: RenderEnv) -> str:
    match callee:
        case Var() | Qual():
            return _var_head(callee, env)[0]
        case _:
            return _arg(callee, env)


def _pattern(p: Pattern, env: RenderEnv) -> str:
    match p:
        case PWild():
            return "_"
        case PVar(name):
            return name
        case PCon(name, args):
            if not args:
                return name
            if env.target == "logical":
                return name + " " + " ".join([_pattern(a, env) for a in args])
            return name + " (" + ", ".join([_pattern(a, env) for a in args]) + ")"
        case PTuple(items):
            return "(" + ", ".join([_pattern(i, env) for i in items]) + ")"
        case _:
            raise ValueError(f"cannot render pattern {p!r}")


def render_body(e: Expr, env: RenderEnv) -> str:
    """Right-hand side of a definition: infix applications stay bare."""
    text, atomic = render_expr(e, env)
    if atomic or (isinstance(e, BinOp) and BUILTIN_FUNCTIONS[e.op].infix):
        return text
    return f"({text})"


def render_formula(e: Expr, env: RenderEnv) -> str:
    match e:
        case Quant(kind, vars_, ty, body):
            head = "forall" if kind == "all" else "exists"
            return (
                f"{head} {' '.join(vars_)} : {render_type(ty, env)}, "
                f"{render_formula(body, env)}"
            )
        case Connective(op, left, right):
            sym = {"->": "->", "\\/": "\\/", "/\\": "/\\"}[op]
            l = _sub_formula(left, env)
            if op == "->":
                return f"{l} {sym} {render_formula(right, env)}"
            return f"{l} {sym} {_sub_formula(right, env)}"
        case Not(operand):
            if isinstance(operand, (Quant, Connective, Not)):
                return f"~({render_formula(operand, env)})"
            return f"~{_atom(operand, env)}"
        case _:
            return _atom(e, env)


def _sub_formula(e: Expr, env: RenderEnv) -> str:
    if isinstance(e, (Quant, Connective)):
        return f"({render_formula(e, env)})"
    return render_formula(e, env)


def _atom(e: Expr, env: RenderEnv) -> str:
    return f"Is_true ({_arg(e, env)})"


def _render_env(
    nf: NFSpecies,
    target: str,
    prefix: str,
    self_ty: str | None,
    param_ty: str = "_p_{}_T",
) -> RenderEnv:
    """Names inside one of `nf`'s definitions: its methods under `prefix`,
    its carrier as `self_ty`, a parameter's carrier spelled by `param_ty`."""
    params = frozenset(p.name for p in nf.is_params)
    return RenderEnv(target, nf.name, prefix, params, self_ty, param_ty)


def _tree_text(a: Type | Expr, env: RenderEnv) -> str:
    """A lift's tag as the binder it names, or a generator's argument, as
    `env` writes it: a carrier's type, a method's or an entity's name, or
    an entity's argument expression."""
    if type(a) is Var or type(a) is Qual:
        text, atomic = _var_head(a, env)
        return text if atomic else f"({text})"
    if isinstance(a, Expr):
        return _arg(a, env)
    return render_type(a, env)


def _genapp_text(gen: GenApp, env: RenderEnv) -> str:
    head = gen.method if gen.species == env.module else f"{gen.species}.{gen.method}"
    args = gen.comp_args if env.target == "comp" else gen.args
    return " ".join([head] + [_tree_text(a, env) for a in args])


def proof_to_source(proof: Proof, indent: str) -> list[str]:
    match proof:
        case ProofLeaf(facts=facts, admitted=True) if not facts:
            return [f"{indent}admitted"]
        case ProofLeaf(facts=facts):
            parts = []
            for f in facts:
                parts.append(_fact_to_source(f))
            return [f"{indent}by " + " ".join(parts)]
        case ProofSteps(steps):
            lines: list[str] = []
            for step in steps:
                lines.extend(_step_to_source(step, indent))
            return lines
        case _:
            raise ValueError(f"cannot print proof {proof!r}")


def _step_to_source(step: ProofStep, indent: str) -> list[str]:
    depth, key = step.label
    head = [f"{indent}<{depth}>{key}"]
    for vars, ty in step.assumes:
        head.append(f"assume {' '.join(vars)} : {type_to_source(ty)},")
    for name, stmt in step.hyps:
        head.append(f"hypothesis {name} : {expr_to_source(stmt)},")
    head.append("qed" if step.is_qed else f"prove {expr_to_source(step.goal)}")
    lines = [" ".join(head)]
    assert step.sub is not None
    if isinstance(step.sub, ProofLeaf):
        lines[0] += " " + proof_to_source(step.sub, "")[0]
    else:
        lines.extend(proof_to_source(step.sub, indent + "  "))
    return lines


def proof_hole_name(species: str, method: str, statement: Expr, proof) -> str:
    stmt = expr_to_source(statement)
    body = "\n".join(proof_to_source(proof, ""))
    digest = hashlib.sha256(
        f"{species}.{method}\n{stmt}\n{body}".encode()
    ).hexdigest()[:12]
    return f"PROOF_HOLE_{species}_{method}_{digest}"


def emit_logical(cu) -> str:
    blocks: list[str] = []
    for kind, name in cu.decl_order:
        with cu.writing(name):
            if kind == "union":
                blocks.append(_inductive(cu.unions[name]))
            elif kind == "species":
                blocks.append(_species_logical(cu, name))
            else:
                blocks.append(_collection_logical(cu, name))
    return "\n\n".join(blocks) + "\n"


def _inductive(u: UnionTypeDecl) -> str:
    env = RenderEnv("logical")
    tname = f"{u.name}__t"
    lines = [f"Inductive {tname} : Set :="]
    for con, args in u.constructors:
        texts = [render_type(t, env) for t in args]
        texts = [f"({x})" if isinstance(t, TArrow) else x for t, x in zip(args, texts)]
        lines.append(f"  | {con} : " + " -> ".join(texts + [tname]))
    return "\n".join(lines) + "."


def _lift_text(l: Lift, env: RenderEnv) -> str:
    name = _tree_text(l.tag, env)
    if l.is_set:
        return f"({name} : Set)"
    if l.ty is not None:
        return f"({name} : {render_type(l.ty, env)})"
    if l.statement is not None:
        return f"({name} : {render_formula(l.statement, env)})"
    if l.bind_type is not None:
        return f"({name} := {render_type(l.bind_type, env)})"
    assert l.bind_gen is not None
    return f"({name} := {_genapp_text(l.bind_gen, env)})"


def _species_logical(cu, name: str) -> str:
    nf: NFSpecies = cu.species[name]
    plan: SpeciesPlan = cu.plans[name]
    lines = [f"Module {name}."]
    for gp in plan.generators.values():
        lines.extend(_generator_logical(nf, gp))
    if plan.record is not None:
        lines.extend(_record_logical(nf, plan))
    if plan.create is not None:
        lines.extend(_create_logical(nf, plan))
    lines.append(f"End {name}.")
    return "\n".join(lines)


def _generator_logical(nf: NFSpecies, plan: MethodGeneratorPlan) -> list[str]:
    lifts_carrier = any(isinstance(l.tag, TSelf) for l in plan.lifts)
    self_ty = "abst_T" if lifts_carrier else None
    env = _render_env(nf, "logical", "abst_", self_ty)
    lifts = "".join(" " + _lift_text(l, env) for l in plan.lifts)
    if plan.kind == "let":
        assert plan.body is not None and plan.ret is not None
        params = "".join(
            f" ({n} : {render_type(t, env)})" for n, t in plan.value_params
        )
        keyword = "Fixpoint" if plan.rec else "Definition"
        ret = render_type(plan.ret, env)
        body = render_body(plan.body, env)
        return [f"  {keyword} {plan.method}{lifts}{params} : {ret} := {body}."]
    assert plan.statement is not None
    stmt = render_formula(plan.statement, env)
    if plan.admitted:
        return [f"  Axiom {plan.method}{lifts} : {stmt}."]
    hole = proof_hole_name(nf.name, plan.method, plan.statement, plan.proof)
    return [
        f"  Theorem {plan.method}{lifts} : {stmt}.",
        f"  apply {hole}.",
    ]


def _record_logical(nf: NFSpecies, plan: SpeciesPlan) -> list[str]:
    record = plan.record
    assert record is not None
    env = _render_env(nf, "logical", "rf_", "rf_T", "{}_T")
    params = "".join(" " + _lift_text(l, env) for l in record.abstractions)
    head = f"  Record me_as_species{params}"
    head += " : Type :=" if record.abstractions else " :="
    lines = [head, "    mk_record {"]
    fields = ["    rf_T : Set"]
    for m in record.fields:
        mi = nf.methods[m]
        if mi.is_logical:
            assert mi.statement is not None
            fields.append(f"    rf_{m} : {render_formula(mi.statement, env)}")
        else:
            assert mi.scheme is not None
            fields.append(f"    rf_{m} : {render_type(mi.scheme.body, env)}")
    lines.extend(f"{f} ;" for f in fields[:-1])
    lines.append(fields[-1])
    lines.append("    }.")
    return lines


def _create_logical(nf: NFSpecies, plan: SpeciesPlan) -> list[str]:
    create = plan.create
    assert create is not None
    env = _render_env(nf, "logical", "local_", "local_rep")
    outer_parts = []
    for l in create.outer:
        if l.is_set:
            outer_parts.append(f" ({_tree_text(l.tag, env)} : Set)")
        else:
            outer_parts.append(f" {_tree_text(l.tag, env)}")
    lines = [f"  Definition collection_create{''.join(outer_parts)} :="]
    for ld in create.locals:
        if ld.gen is None:
            assert nf.rep is not None
            rhs = render_type(nf.rep, env)
            lines.append(f"    let local_rep := {rhs} in")
        else:
            lines.append(f"    let local_{ld.name} := {_genapp_text(ld.gen, env)} in")
    assert plan.record is not None
    tags = [l.tag for l in plan.record.abstractions] + [TSelf()]
    tags += [Var(m, METHOD) for m in nf.order]
    args = " ".join(_tree_text(t, env) for t in tags)
    lines.append(f"    mk_record {args}.")
    return lines


def _collection_logical(cu, name: str) -> str:
    ext: CollectionExtractionPlan = cu.extractions[name]
    env = RenderEnv("logical", module=name)
    lines = [f"Module {name}."]
    app = _genapp_text(ext.create, env)
    lines.append(f"  Let effective_collection := {app}.")
    assert ext.carrier is not None
    lines.append(f"  Definition me_as_carrier := {render_type(ext.carrier, env)}.")
    holes = " _" * len(cu.plans[ext.species].record.abstractions)
    for m in cu.collections[name].nf.order:
        lines.append(
            f"  Definition {m} := "
            f"effective_collection.({ext.species}.rf_{m}{holes})."
        )
    lines.append(f"End {name}.")
    return "\n".join(lines)


def emit_comp(cu) -> str:
    blocks: list[str] = []
    for kind, name in cu.decl_order:
        with cu.writing(name):
            if kind == "union":
                blocks.append(_union_comp(cu.unions[name], cu.collections))
            elif kind == "species":
                blocks.append(_species_comp(cu, name))
            else:
                blocks.append(_collection_comp(cu, name))
    return "\n\n".join(blocks) + "\n"


def _union_comp(u: UnionTypeDecl, collections: dict) -> str:
    arms = []
    for con, args in u.constructors:
        if args:
            payload = " * ".join(_comp_arg(t, collections) for t in args)
            arms.append(f"| {con} of {payload}")
        else:
            arms.append(f"| {con}")
    return f"type {u.name} = " + " ".join(arms)


def _comp_arg(t: Type, collections: dict) -> str:
    """An arrow in parentheses, as a constructor argument, a tuple item or
    an arrow's argument."""
    text = _comp_type(t, collections)
    return f"({text})" if isinstance(t, TArrow) else text


def _comp_type(t: Type, collections: dict) -> str:
    """A collection's carrier is its representation."""
    match t:
        case TCon(name):
            return name
        case TCollCarrier(name):
            return _comp_type(collections[name].carrier, collections)
        case TTuple(items):
            return "(" + " * ".join([_comp_arg(i, collections) for i in items]) + ")"
        case TArrow(a, b):
            return f"{_comp_arg(a, collections)} -> {_comp_type(b, collections)}"
    raise ValueError(f"cannot render type {t!r}")


def _species_comp(cu, name: str) -> str:
    nf: NFSpecies = cu.species[name]
    plan: SpeciesPlan = cu.plans[name]
    lines = [f"module {name} = struct"]
    for gp in plan.generators.values():
        if gp.kind != "let":
            continue
        lines.append(_generator_comp(nf, gp))
    if plan.record is not None:
        lines.extend(_record_comp(nf, plan))
    if plan.create is not None:
        lines.extend(_create_comp(nf, plan))
    lines.append("end")
    return "\n".join(lines)


def _generator_comp(nf: NFSpecies, plan: MethodGeneratorPlan) -> str:
    env = _render_env(nf, "comp", "abst_", None)
    kept = [_tree_text(l.tag, env) for l in plan.lifts if l.abstract and not l.logical]
    params = "".join(f" ({n})" for n in kept)
    params += "".join(f" ({n})" for n, _ in plan.value_params)
    keyword = "let rec" if plan.rec else "let"
    assert plan.body is not None
    return f"  {keyword} {plan.method}{params} = {render_body(plan.body, env)}"


def _record_comp(nf: NFSpecies, plan: SpeciesPlan) -> list[str]:
    record = plan.record
    assert record is not None
    fields = [f"rf_{m}" for m in record.fields if not nf.methods[m].is_logical]
    inner = f"{{ {' ; '.join(fields)} }}" if fields else "{ }"
    return [f"  type me_as_species = {inner}"]


def _create_comp(nf: NFSpecies, plan: SpeciesPlan) -> list[str]:
    create = plan.create
    assert create is not None
    env = _render_env(nf, "comp", "local_", "local_rep")
    params = "".join(f" ({_tree_text(l.tag, env)})" for l in create.outer if not l.logical)
    lines = [f"  let collection_create{params} ="]
    assigns = []
    for ld in create.locals:
        if ld.gen is None or nf.methods[ld.name].is_logical:
            continue
        lines.append(f"    let local_{ld.name} = {_genapp_text(ld.gen, env)} in")
        assigns.append(f"rf_{ld.name} = local_{ld.name}")
    record = f"{{ {' ; '.join(assigns)} }}" if assigns else "{ }"
    lines.append(f"    {record}")
    return lines


def _collection_comp(cu, name: str) -> str:
    ext: CollectionExtractionPlan = cu.extractions[name]
    env = RenderEnv("comp", module=name)
    lines = [f"module {name} = struct"]
    app = _genapp_text(ext.create, env)
    lines.append(f"  let effective_collection = {app}")
    nf = cu.collections[name].nf
    for m in nf.order:
        if nf.methods[m].is_logical:
            continue
        lines.append(
            f"  let {m} = effective_collection.{ext.species}.rf_{m}"
        )
    lines.append("end")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Surface printer: a parsed unit back to source, which `test_parser` parses
# again.  It prints expressions and types with the package's printers, and
# proofs with `proof_to_source` above.

from focml.ast import CollectionDecl, MethodDecl, SpeciesExpr  # noqa: E402


def method_to_source(m: MethodDecl, indent: str = "  ") -> list[str]:
    match m.kind:
        case "signature":
            return [f"{indent}signature {m.name} : {type_to_source(m.ty)};"]
        case "let":
            rec = "rec " if m.rec else ""
            params = ""
            if m.params:
                parts = [n if t is None else f"{n} : {type_to_source(t)}" for n, t in m.params]
                params = " (" + ", ".join(parts) + ")"
            ret = f" : {type_to_source(m.ret)}" if m.ret is not None else ""
            return [f"{indent}let {rec}{m.name}{params}{ret} = {expr_to_source(m.body)};"]
        case "property":
            return [f"{indent}property {m.name} : {expr_to_source(m.statement)};"]
        case "theorem":
            lines = [f"{indent}theorem {m.name} : {expr_to_source(m.statement)}"]
            lines.append(f"{indent}proof =")
            lines.extend(proof_to_source(m.proof, indent + "  "))
            lines.append(f"{indent};")
            return lines
        case "proof_of":
            lines = [f"{indent}proof of {m.name} ="]
            lines.extend(proof_to_source(m.proof, indent + "  "))
            lines.append(f"{indent};")
            return lines
        case _:
            raise ValueError(f"cannot print method kind {m.kind}")


def species_expr_to_source(se: SpeciesExpr) -> str:
    if not se.args:
        return se.name
    parts = []
    for a in se.args:
        parts.append(a.name if a.name is not None else expr_to_source(a.expr))
    return f"{se.name} (" + ", ".join(parts) + ")"


def unit_to_source(unit: CompilationUnit) -> str:
    """`unit` printed back to concrete syntax that reparses to an equal
    tree, for the parser's round trip."""
    chunks: list[str] = []
    for decl in unit.decls:
        match decl:
            case UnionTypeDecl(name, constructors):
                arms = []
                for con, args in constructors:
                    if args:
                        arms.append(f"{con} (" + ", ".join(type_to_source(t) for t in args) + ")")
                    else:
                        arms.append(con)
                chunks.append(f"type {name} = " + " | ".join(arms) + " ;;")
            case SpeciesDecl():
                lines = []
                header = f"species {decl.name}"
                if decl.params:
                    parts = []
                    for p in decl.params:
                        if p.kind == "is":
                            parts.append(f"{p.name} is {species_expr_to_source(p.interface)}")
                        else:
                            parts.append(f"{p.name} in {p.carrier}")
                    header += " (" + ", ".join(parts) + ")"
                lines.append(header + " =")
                for se in decl.inherits:
                    lines.append(f"  inherit {species_expr_to_source(se)};")
                if decl.representation is not None:
                    lines.append(f"  representation = {type_to_source(decl.representation)};")
                for m in decl.methods:
                    lines.extend(method_to_source(m))
                lines.append("end ;;")
                chunks.append("\n".join(lines))
            case CollectionDecl(name, implements):
                chunks.append(
                    f"collection {name} = implement {species_expr_to_source(implements)}; end ;;")
            case _:
                raise ValueError(f"cannot print declaration {decl!r}")
    return "\n\n".join(chunks) + "\n"
