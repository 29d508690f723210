"""Static checks over the package's own source, read with `ast`."""

import ast
from pathlib import Path

import focml

SRC = Path(focml.__file__).parent


def unused_imports(text: str) -> list[str]:
    """The names `text` imports and never reads, except on a line marked
    `# noqa: F401`.  A name counts as read where it occurs as a name, also
    inside a string annotation or a string in a subscript."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                marked = (lines[alias.lineno - 1], lines[node.lineno - 1])
                if not any("# noqa: F401" in line for line in marked):
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.Subscript):
            annotations.append(node.slice)
        for annotation in annotations:
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        forward = ast.parse(sub.value, mode="eval")
                    except SyntaxError:  # a key, not a type
                        continue
                    used.update(n.id for n in ast.walk(forward) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def test_the_import_check_sees_each_kind_of_use():
    text = """
from __future__ import annotations
import os.path
from typing import TYPE_CHECKING
from .a import Kept, Spare, Marked  # noqa: F401
from .b import (
    Annotated,
    Forward,
    Quoted,
    Alone,  # noqa: F401
    Left,
)
if TYPE_CHECKING:
    from .c import Hidden

def f(x: Annotated, y: "Forward") -> dict[str, "Quoted | Hidden"]:
    return os.path.join(Kept)
"""
    assert unused_imports(text) == ["Left (line 11)"]
