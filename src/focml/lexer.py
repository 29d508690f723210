"""Tokenizer.

Notable tokens: proof bullets `<1>2` (lexed before the `<0x` operator, whose
prefix they share), the double semicolon that ends toplevel declarations, and
nested `(* ... *)` comments.

One master regex reads a token at a time, its alternatives in priority
order; positions come from the offset of the current line's first character.
A token is a named tuple, built with `tuple.__new__`: the one Python-level
call a token costs is its `Pos`, and a line break costs none.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import Pos
from .errors import CompileError, SYNTAX

KEYWORDS = {
    "species", "collection", "inherit", "implement", "representation",
    "signature", "let", "rec", "property", "theorem", "proof", "of", "end",
    "type", "is", "in", "all", "ex", "assume", "hypothesis", "prove", "qed",
    "by", "definition", "step", "admitted", "if", "then", "else", "match",
    "with", "true", "false", "Self",
}

# Longest first; every op is its own token kind.
OPERATORS = [
    ";;", "->", "/\\", "\\/", "<0x", "=0x", "~~", "&&",
    "(", ")", ",", ";", ":", "=", "!", "|", "*", "+", "-", "~",
]

# Blanks before a token are part of its match; a line break starts a match
# of its own, so that the line count moves; the end of the text is `end`.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    + "|".join(
        [
            r"(?P<newline>\n[ \t\r\n]*)",
            r"(?P<comment>\(\*)",  # its end is found by _comment_end
            r'(?P<string>"(?:[^"\\]|\\.)*")',
            r'(?P<unterminated>")',
            r"(?P<bullet><(?P<depth>\d+)>(?P<tag>[A-Za-z0-9]+))",
            r"(?P<ident>[a-z_][A-Za-z0-9_]*)",
            r"(?P<capid>[A-Z][A-Za-z0-9_]*)",
            r"(?P<int>\d+)",
            "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")",
            r"(?P<bad>.)",
            r"(?P<end>\Z)",
        ]
    )
    + ")",
    re.DOTALL,
)
_COMMENT_MARK = re.compile(r"\(\*|\*\)")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class Token(NamedTuple):
    kind: str  # 'ident' | 'capid' | 'int' | 'string' | 'bullet' | 'eof' | keyword | operator
    value: str
    pos: Pos
    bullet: tuple[int, str] | None = None


def _comment_end(text: str, i: int) -> int:
    """The end of the comment whose `(*` ends at `i`, or -1."""
    depth = 1
    for m in _COMMENT_MARK.finditer(text, i):
        depth += 1 if m.group() == "(*" else -1
        if not depth:
            return m.end()
    return -1


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    new = tuple.__new__
    line, bol = 1, 0  # the current line and the offset where it begins
    i = 0
    while True:
        m = match(text, i)
        kind = m.lastgroup
        i, j = m.start(kind), m.end()
        if kind == "newline":
            line += text.count("\n", i, j)
            bol = text.rindex("\n", i, j) + 1
            i = j
            continue
        value = m[kind]
        pos = Pos(line, i - bol + 1)
        if kind == "ident":
            append(new(Token, (value if value in KEYWORDS else "ident", value, pos, None)))
        elif kind == "op":
            append(new(Token, (value, value, pos, None)))
        elif kind == "capid":
            append(new(Token, ("Self" if value == "Self" else "capid", value, pos, None)))
        elif kind == "int":
            append(new(Token, ("int", value, pos, None)))
        elif kind == "bullet":
            append(new(Token, ("bullet", value, pos, (int(m["depth"]), m["tag"]))))
        elif kind == "end":
            append(new(Token, ("eof", "", pos, None)))
            return tokens
        else:
            if kind == "string":
                body = value[1:-1]
                body = _ESCAPE.sub(r"\1", body) if "\\" in body else body
                append(new(Token, ("string", body, pos, None)))
            elif kind == "comment":
                j = _comment_end(text, j)
                if j < 0:
                    raise CompileError(SYNTAX, "unterminated comment", pos)
            elif kind == "unterminated":
                raise CompileError(SYNTAX, "unterminated string literal", pos)
            elif kind == "bad":
                raise CompileError(SYNTAX, f"unexpected character {value!r}", pos)
            # a string or a comment may span lines
            lines = text.count("\n", i, j)
            if lines:
                line += lines
                bol = text.rindex("\n", i, j) + 1
        i = j
