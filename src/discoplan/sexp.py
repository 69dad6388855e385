"""Symbolic-expression reader: a plain reader, and one with source spans and
recoverable diagnostics.

Neither reader raises on malformed text. Symbols are case-insensitive and
canonicalized to lowercase; `;` starts a line comment. `read_plain` gives
the forms as nested tuples of atom strings, or None when a parenthesis does
not balance. `read` gives every input a list of forms plus a list of
diagnostics, and an error inside one form does not stop the scan of its
siblings; `locate` turns its forms into the plain shape, each node carrying
its span.

Lexical rules: whitespace is what `str.isspace()` accepts, which is the
class `\\s` of a `str` regex; only LF starts a new line; a column counts
code points from 1, so CR and tab are one column each.

Cost model: spans are built only on the diagnostic path. Well-formed input
is read by `read_plain`: one `_TOKEN.findall` over the whole text, then one
Python step per token that appends a lowercased string or closes a tuple.
`read` runs one regex pass per line: `_TOKEN.finditer` skips blanks and
matches a whole token inside the regex engine, and building a span and a
node per token dominates what is left. Spans, atoms, lists and diagnostics
are named tuples, so reading a field is a C-level lookup. A named tuple's
own constructor is a Python-level function, so `read` builds its nodes with
`tuple.__new__(cls, fields)`, one C call per node; the nodes are the same as
the constructor's. Callers read with `read_plain` first and run `read` and
`locate` only when that read, or what they make of its forms, fails.
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


def locate(forms: list[SNode]) -> list:
    """`read`'s forms in `read_plain`'s shape, every node carrying its span.

    Iterative: every list is made after the lists inside it, so nesting of
    any depth is converted without recursion.
    """
    lists = []
    todo = [f for f in forms if type(f) is SList]
    while todo:
        node = todo.pop()
        lists.append(node)
        todo.extend(i for i in node.items if type(i) is SList)
    made: dict[int, LocatedList] = {}

    def located(node):
        if type(node) is SAtom:
            return LocatedAtom(node.text, node.span)
        return made[id(node)]

    for node in reversed(lists):
        made[id(node)] = LocatedList(map(located, node.items), node.span)
    return [located(f) for f in forms]
