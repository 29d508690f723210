"""Deep and long inputs: one unit per shape and depth, with a call to run.

Each shape nests one construct `n` levels deep (or chains it `n` long) in a
species with an `is` parameter, inherited by an heir that renames it, so
flattening copies and renames every tree.  `python tests/shapes.py` prints,
for each shape, the deepest depth up to a cap at which `check`, `deps`,
`emit`, `doc` and `eval` all succeed on the running Python: the floor over
the shapes is the compile limit the README documents.  Each step of its
bisection runs in a fresh process, so one step's memory is given back
before the next.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

FRAME = """type nat = | Zero | Succ (nat) ;;
species Ord = representation = int ; let lt (x : int, y : int) : bool = x <0x y ; end ;;
collection O = implement Ord ;;
species S (P is Ord) =
  representation = int ;
{methods}
end ;;
species H (Q is Ord) = inherit S (Q) ;{heir} end ;;
collection C = implement H (O) ;;
"""


def _unit(*methods: str, heir: str = "") -> str:
    """S with `methods`; H adds `heir`, a method it restates."""
    heir = f" {heir} ;" if heir else ""
    return FRAME.format(methods="\n".join(f"  {m} ;" for m in methods), heir=heir)


def _succ(n: int) -> str:
    return "Succ (" * n + "Zero" + ")" * n


def parens(n):
    body = "(" * n + "x" + ")" * n
    call = "C!f (" + "(" * n + "1" + ")" * n + ")"
    return _unit(f"let f (x : int) : int = {body}"), call, "1"


def plus(n):
    body = " + ".join(["x"] * n)
    return _unit(f"let f (x : int) : int = {body}"), "C!f (1)", str(n)


def ifs(n):
    body = "if x =0x 0 then 0 else " * n + "x"
    return _unit(f"let f (x : int) : int = {body}"), "C!f (5)", "5"


def calls(n):
    body = "inc (" * n + "x" + ")" * n
    unit = _unit("let inc (x : int) : int = x + 1", f"let f (x : int) : int = {body}")
    return unit, "C!f (1)", str(n + 1)


def matches(n):
    body = "match x with | y -> " * n + "y"
    return _unit(f"let f (x : int) : int = {body}"), "C!f (7)", "7"


def patterns(n):
    body = f"match x with | {_succ(n)} -> 1 | _ -> 0"
    return _unit(f"let f (x : nat) : int = {body}"), f"C!f ({_succ(n)})", "1"


def nots(n):
    statement = "all x : int, " + "~ " * n + "(x = x)"
    unit = _unit(
        "let one (x : int) : int = x",
        f"theorem t : {statement}\n  proof = by definition of one",
    )
    return unit, "C!one (1)", "1"


def restated(n):
    statement = "all x : int, " + "~ " * n + "(x = x)"
    unit = _unit(
        "let one (x : int) : int = x",
        f"theorem t : {statement}\n  proof = by definition of one",
        heir=f"property t : {statement}",
    )
    return unit, "C!one (1)", "1"


def implications(n):
    statement = "all x : int, " + "x = x -> " * n + "x = x"
    unit = _unit(
        "let one (x : int) : int = x",
        f"theorem t : {statement}\n  proof = by definition of one",
    )
    return unit, "C!one (1)", "1"


def bool_nots(n):
    body = "~~ " * n + "b"
    value = "false" if n % 2 else "true"
    return _unit(f"let f (b : bool) : bool = {body}"), "C!f (true)", value


def arrows(n):
    ty = "int -> " * n + "int"
    unit = _unit("let one (x : int) : int = x", f"let k (g : {ty}) : {ty} = g")
    return unit, "C!one (1)", "1"


def redeclared(n):
    ty = "int -> " * n + "int"
    unit = _unit(
        "let one (x : int) : int = x",
        f"let k (g : {ty}) : {ty} = g",
        heir=f"signature k : ({ty}) -> {ty}",
    )
    return unit, "C!one (1)", "1"


def proof(n):
    steps = "".join(f"<{d}>1 prove one (1) = 1\n" for d in range(1, n))
    steps += f"<{n}>1 qed by definition of one\n"
    steps += "".join(
        f"<{d}>2 qed by step <{d}>1 definition of one\n" for d in range(n - 1, 0, -1)
    )
    unit = _unit(
        "let one (x : int) : int = x",
        f"theorem t : all x : int, x = x\n  proof =\n{steps}",
    )
    return unit, "C!one (1)", "1"


def tuples(n):
    body = "(x, " * n + "x" + ")" * n
    ty = "(int * " * n + "int" + ")" * n
    unit = _unit(f"let f (x : int) : {ty} = {body}")
    return unit, "C!f (1)", "(1, " * n + "1" + ")" * n


BUILD = "let rec build (n : int) : nat = if n =0x 0 then Zero else Succ (build (n - 1))"


def value(n):
    return _unit(BUILD), f"C!build ({n})", _succ(n)


def equal_values(n):
    unit = _unit(BUILD, "let same (n : int) : bool = build (n) = build (n)")
    return unit, f"C!same ({n})", "true"


SHAPES: dict[str, Callable[[int], tuple[str, str, str]]] = {
    f.__name__: f
    for f in (
        parens, plus, ifs, calls, matches, patterns, nots, restated, implications,
        bool_nots, arrows, redeclared, proof, tuples, value, equal_values,
    )
}
COMMANDS = ("check", "deps", "emit", "doc", "eval")


def run(command: str, path: Path, call: str) -> tuple[int, str, str]:
    """`focml <command>` on one file through `cli.main`: exit code, stdout
    and stderr."""
    from focml.cli import main

    argv = {
        "emit": ["emit", str(path), "--logical", "-", "--comp", "-"],
        "eval": ["eval", str(path), "--call", call],
    }.get(command, [command, str(path)])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def passes(shape: str, n: int, path: Path) -> bool:
    """Whether every command succeeds on the shape at depth `n`."""
    source, call, expected = SHAPES[shape](n)
    path.write_text(source)
    for command in COMMANDS:
        code, out, err = run(command, path, call)
        assert "Traceback" not in err, err
        if code != 0:
            assert "error: DepthLimit:" in err, err
            return False
        if command == "eval":
            assert out == expected + "\n", out[:200]
    return True


# `passes` on the shape, depth and path in `sys.argv`, as a child process:
# exit code 0 if it passes and 3 if not (a failed assertion exits with 1)
STEP = """import shapes, sys
shape, n, path = sys.argv[1], int(sys.argv[2]), shapes.Path(sys.argv[3])
sys.exit(0 if shapes.passes(shape, n, path) else 3)
"""


def passes_apart(shape: str, n: int, path: Path) -> bool:
    """`passes` in a child process of its own, waited for before returning."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here), str(here.parent / "src")])}
    argv = [sys.executable, "-c", STEP, shape, str(n), str(path)]
    code = subprocess.run(argv, env=env).returncode
    if code not in (0, 3):
        raise RuntimeError(f"{shape} at depth {n}: the step exited with code {code}")
    return code == 0


def deepest(shape: str, path: Path, low: int = 1000, cap: int = 40_000) -> int:
    """The deepest passing depth in [low, cap], by bisection, one process a
    step: the steps hold no compiled unit in this process."""
    if not passes_apart(shape, low, path):
        return low - 1
    while low < cap:
        mid = (low + cap + 1) // 2
        if passes_apart(shape, mid, path):
            low = mid
        else:
            cap = mid - 1
    return low


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cap = int(sys.argv[1]) if len(sys.argv) > 1 else 40_000
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deep.fcl"
        for shape in sys.argv[2:] or SHAPES:
            print(shape, deepest(shape, path, cap=cap), flush=True)
