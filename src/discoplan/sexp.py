"""Symbolic-expression reader: a plain reader, and one with source spans and
recoverable diagnostics.

Neither reader raises on malformed text. Symbols are case-insensitive and
canonicalized to lowercase; `;` starts a line comment. `read_plain` gives
the forms as nested tuples of atom strings, or None when a parenthesis does
not balance. `read` gives every input a list of forms plus a list of
diagnostics, and an error inside one form does not stop the scan of its
siblings. Its forms have the plain shape, and each node carries its span:
a `LocatedAtom` is a `str`, a `LocatedList` a `tuple`.

Lexical rules: whitespace is what `str.isspace()` accepts, which is the
class `\\s` of a `str` regex; only LF starts a new line; a column counts
code points from 1, so CR and tab are one column each.

Cost model: spans are built only on the diagnostic path. Well-formed input
is read by `read_plain`: one `_TOKEN.findall` over the whole text, then one
Python step per token that appends a lowercased string or closes a tuple.
`read` runs one regex pass per line: `_TOKEN.finditer` skips blanks and
matches a whole token inside the regex engine, and building a span and a
node per token dominates what is left. Callers read with `read_plain` first
and run `read` only when that read, or what they make of its forms, fails.
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


# One token per match: a parenthesis, a comment to the end of the row, or an
# atom. Blanks match no alternative, so `finditer` skips them.
_TOKEN = re.compile(r"[()]|;.*|[^\s();]+")


class LocatedAtom(str):
    """An atom of `read` as its text, carrying its `span`."""

    def __new__(cls, text: str, span: SourceSpan):
        self = str.__new__(cls, text)
        self.span = span
        return self


class LocatedList(tuple):
    """A list of `read` as the tuple of its items, carrying its `span`."""

    def __new__(cls, items, span: SourceSpan):
        self = tuple.__new__(cls, items)
        self.span = span
        return self


def read(text: str, filename: str = "<input>") -> tuple[list, list[Diagnostic]]:
    """Read every top-level form; diagnostics instead of exceptions.

    Iterative, so arbitrarily deep nesting degrades into diagnostics rather
    than exhausting the interpreter stack.
    """
    diags: list[Diagnostic] = []
    top: list = []
    items = top  # the items of the innermost unclosed list, or the top level
    # (open-paren span, enclosing items) for every unclosed list.
    stack: list[tuple[SourceSpan, list]] = []
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(row):
            tok = m.group()
            if tok == "(":
                stack.append((SourceSpan(filename, line, m.start() + 1), items))
                items = []
            elif tok == ")":
                if not stack:
                    span = SourceSpan(filename, line, m.start() + 1)
                    diags.append(Diagnostic(span, "unbalanced closing parenthesis"))
                    continue
                span, outer = stack.pop()
                outer.append(LocatedList(items, span))
                items = outer
            elif tok[0] != ";":
                span = SourceSpan(filename, line, m.start() + 1, len(tok))
                items.append(LocatedAtom(tok.lower(), span))
    while stack:
        span, outer = stack.pop()
        diags.append(Diagnostic(span, "unclosed parenthesis"))
        outer.append(LocatedList(items, span))
        items = outer
    return top, diags


def read_plain(text: str) -> list | None:
    """The top-level forms of `text`, each atom a lowercased `str` and each
    list a `tuple` of its items; None when a parenthesis does not balance.

    Equal to `read`'s forms with their spans stripped whenever `read` reports
    nothing; `read` reports something exactly when this gives None.
    """
    top: list = []
    items = top
    stack: list[list] = []
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append(items)
            items = []
        elif tok == ")":
            if not stack:
                return None
            outer = stack.pop()
            outer.append(tuple(items))
            items = outer
        elif tok[0] != ";":
            items.append(tok.lower())
    return None if stack else top

