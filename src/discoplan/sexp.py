"""Symbolic-expression reader with source spans and recoverable diagnostics.

The reader never raises on malformed text: every input yields a list of
forms plus a list of diagnostics. An error inside one form does not stop
the scan of its siblings. Symbols are case-insensitive and canonicalized
to lowercase; `;` starts a line comment.

Lexical rules: whitespace is what `str.isspace()` accepts, which is the
class `\\s` of a `str` regex; only LF starts a new line; a column counts
code points from 1, so CR and tab are one column each.

Cost model: one regex pass per line. `_TOKEN.finditer` skips blanks and
matches a whole token inside the regex engine, so the Python loop runs once
per token rather than once per character, and building the nodes dominates
what is left. Spans, atoms, lists and diagnostics are named tuples, so
reading a field is a C-level lookup. A named tuple's own constructor is a Python-level
function, so `read` builds its nodes with `tuple.__new__(cls, fields)`,
one C call per node; the nodes are the same as the constructor's.
"""
from __future__ import annotations

import re
from typing import NamedTuple


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class Diagnostic(NamedTuple):
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class SAtom(NamedTuple):
    text: str
    span: SourceSpan


class SList(NamedTuple):
    items: tuple
    span: SourceSpan


SNode = SAtom | SList

# One token per match: a parenthesis, a comment to the end of the row, or an
# atom. Blanks match no alternative, so `finditer` skips them.
_TOKEN = re.compile(r"[()]|;.*|[^\s();]+")

_new = tuple.__new__


def read(text: str, filename: str = "<input>") -> tuple[list[SNode], list[Diagnostic]]:
    """Read every top-level form; diagnostics instead of exceptions.

    Iterative, so arbitrarily deep nesting degrades into diagnostics rather
    than exhausting the interpreter stack.
    """
    diags: list[Diagnostic] = []
    top: list[SNode] = []
    items = top  # the items of the innermost unclosed list, or the top level
    # (open-paren span, enclosing items) for every unclosed list.
    stack: list[tuple[SourceSpan, list[SNode]]] = []
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(row):
            tok = m.group()
            if tok == "(":
                stack.append((_new(SourceSpan, (filename, line, m.start() + 1, 1)), items))
                items = []
            elif tok == ")":
                if not stack:
                    span = SourceSpan(filename, line, m.start() + 1)
                    diags.append(Diagnostic(span, "unbalanced closing parenthesis"))
                    continue
                span, outer = stack.pop()
                outer.append(_new(SList, (tuple(items), span)))
                items = outer
            elif tok[0] != ";":
                span = _new(SourceSpan, (filename, line, m.start() + 1, len(tok)))
                items.append(_new(SAtom, (tok.lower(), span)))
    while stack:
        span, outer = stack.pop()
        diags.append(Diagnostic(span, "unclosed parenthesis"))
        outer.append(SList(tuple(items), span))
        items = outer
    return top, diags
