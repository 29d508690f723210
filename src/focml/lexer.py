"""Tokenizer.

Notable tokens: proof bullets `<1>2`, the double semicolon that ends
toplevel declarations, and nested `(* ... *)` comments (lexed before the `(`
operator, whose character they start with).

One master regex reads the tokens in turn, its alternatives in priority
order.  Names, numbers and operators share one group, and a table gives the
kind of each; only line breaks, comments, strings, bullets and errors take
other branches.  Positions come from the offset of the current line's first
character.  A token and its `Pos` are named tuples, built with
`tuple.__new__`, so a token costs no Python-level call.
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

# The kind of a word: a keyword or an operator is its own kind, a name is
# told by its first letter, and any other word is a number (`\d` matches
# every Unicode digit).
_KINDS = {w: w for w in [*KEYWORDS, *OPERATORS]}
_FIRST = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz_", "ident"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "capid"),
}

# Blanks before a token are part of its match; a line break starts a match
# of its own, so that the line count moves; the end of the text is `end`.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    + "|".join(
        [
            r"(?P<comment>\(\*)",  # its end is found by _comment_end
            r"(?P<word>[A-Za-z_][A-Za-z0-9_]*|\d+|"
            + "|".join(map(re.escape, OPERATORS)) + ")",
            r"(?P<newline>\n[ \t\r\n]*)",
            r'(?P<string>"(?:[^"\\]|\\.)*")',
            r'(?P<unterminated>")',
            r"(?P<bullet><(?P<depth>\d+)>(?P<tag>[A-Za-z0-9]+))",
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
    new = tuple.__new__
    kinds, first = _KINDS, _FIRST
    line, bol = 1, 0  # the current line and the offset where it begins
    j = 0
    while True:  # a comment ends the scan: the next one starts after it
        for m in _TOKEN.finditer(text, j):
            group = m.lastgroup
            i, j = m.start(group), m.end()
            if group == "word":
                value = m[group]
                kind = kinds.get(value) or first.get(value[0], "int")
                append(new(Token, (kind, value, new(Pos, (line, i - bol + 1)), None)))
                continue
            if group == "newline":
                line += text.count("\n", i, j)
                bol = text.rindex("\n", i, j) + 1
                continue
            value = m[group]
            pos = new(Pos, (line, i - bol + 1))
            if group == "bullet":
                append(new(Token, ("bullet", value, pos, (int(m["depth"]), m["tag"]))))
            elif group == "string":
                body = value[1:-1]
                body = _ESCAPE.sub(r"\1", body) if "\\" in body else body
                append(new(Token, ("string", body, pos, None)))
            elif group == "comment":
                j = _comment_end(text, j)
                if j < 0:
                    raise CompileError(SYNTAX, "unterminated comment", pos)
            elif group == "end":
                append(new(Token, ("eof", "", pos, None)))
                return tokens
            elif group == "unterminated":
                raise CompileError(SYNTAX, "unterminated string literal", pos)
            else:
                raise CompileError(SYNTAX, f"unexpected character {value!r}", pos)
            # a string or a comment may span lines
            lines = text.count("\n", i, j)
            if lines:
                line += lines
                bol = text.rindex("\n", i, j) + 1
            if group == "comment":
                break
