"""S-expression reader: pinned spans, agreement with the reference scanner, and
agreement of the plain reader and the located nodes with the spanned reader."""
import itertools
import random
import re
import sys

from hypothesis import given, settings, strategies as st

from discoplan.sexp import (
    Diagnostic,
    LocatedAtom,
    LocatedList,
    SAtom,
    SList,
    SourceSpan,
    locate,
    read,
    read_plain,
)
from _oracles import reference_read
from _worlds import CORPUS, DEEP_TEXTS, FUZZ_ALPHABET

SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
CORPUS_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.iterdir())]


def _atoms(forms):
    """Every atom as (text, line, column, length), in reading order."""
    out = []
    stack = list(reversed(forms))
    while stack:
        node = stack.pop()
        if isinstance(node, SAtom):
            out.append((node.text, node.span.line, node.span.column, node.span.length))
        else:
            stack.extend(reversed(node.items))
    return out


def test_crlf_line_endings_count_lines_at_lf_only():
    forms, diags = read("(a\r\n  b\r\n)\r\nc", "f")
    assert diags == []
    assert _atoms(forms) == [("a", 1, 2, 1), ("b", 2, 3, 1), ("c", 4, 1, 1)]
    assert forms[0].span == SourceSpan("f", 1, 1)


def test_a_tab_is_one_column():
    forms, diags = read("(\tgo\t\t?x)")
    assert diags == []
    assert _atoms(forms) == [("go", 1, 3, 2), ("?x", 1, 7, 2)]


def test_columns_count_code_points_not_bytes():
    forms, diags = read("(éLan ßx\n  ∀ b)")
    assert diags == []
    assert _atoms(forms) == [("élan", 1, 2, 4), ("ßx", 1, 7, 2), ("∀", 2, 3, 1), ("b", 2, 5, 1)]


def test_a_parenthesis_inside_a_comment_is_ignored():
    forms, diags = read("(a ; ) (\n b) ; (\n; )\nc")
    assert diags == []
    assert len(forms) == 2
    assert _atoms(forms) == [("a", 1, 2, 1), ("b", 2, 2, 1), ("c", 4, 1, 1)]


def test_unbalanced_close_at_the_start_of_line_three():
    forms, diags = read("(a)\n(b)\n) c", "f")
    assert diags == [Diagnostic(SourceSpan("f", 3, 1), "unbalanced closing parenthesis")]
    assert _atoms(forms) == [("a", 1, 2, 1), ("b", 2, 2, 1), ("c", 3, 3, 1)]


def test_nested_unclosed_lists_are_reported_innermost_first():
    forms, diags = read("(a\n  (b\n    (c", "f")
    assert [str(d) for d in diags] == [
        "f:3:5: unclosed parenthesis",
        "f:2:3: unclosed parenthesis",
        "f:1:1: unclosed parenthesis",
    ]
    (outer,) = forms
    assert isinstance(outer, SList)
    assert outer.items[1].items[1].span == SourceSpan("f", 3, 5)
    assert _atoms(forms) == [("a", 1, 2, 1), ("b", 2, 4, 1), ("c", 3, 6, 1)]


def _agrees(text: str) -> None:
    """`read` gives what the reference scanner gives, and `read_plain` and
    `locate` agree with `read` (see `_plain_agrees`)."""
    got = read(text, "f")
    want = reference_read(text, "f")
    assert got == want, repr(text)
    assert repr(got) == repr(want), repr(text)
    assert hash(tuple(got[0])) == hash(tuple(want[0])), repr(text)
    _plain_agrees(text)


def test_regex_blank_class_is_str_isspace():
    # The reader leaves blanks to `\s`; the reference scanner asks
    # `str.isspace()`. They must agree on every code point of this interpreter.
    blank = re.compile(r"\s")
    mismatched = [
        hex(c) for c in range(sys.maxunicode + 1)
        if bool(blank.match(chr(c))) != chr(c).isspace()
    ]
    assert mismatched == []


def test_reader_matches_reference_on_every_short_string():
    alphabet = "".join(dict.fromkeys(FUZZ_ALPHABET))
    for n in range(4):
        for chars in itertools.product(alphabet, repeat=n):
            _agrees("".join(chars))


def test_reader_matches_reference_on_random_strings_and_corpus_mutations():
    rng = random.Random(8)
    for i in range(3_000):
        if i % 3 == 0:
            base = rng.choice(CORPUS_TEXTS)
            pos = rng.randrange(len(base))
            glitch = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(1, 8)))
            _agrees(base[:pos] + glitch + base[pos + rng.randrange(0, 12):])
        else:
            _agrees("".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 160))))
    for text in CORPUS_TEXTS:
        _agrees(text)


def test_reader_matches_reference_on_every_blank_code_point():
    for ch in SPACES:
        _agrees(f"(a{ch}b{ch}){ch}c{ch}")
        _agrees(f"(a ;{ch}) b\n){ch}(")
        _agrees(f"{ch};{ch}(\n{ch}x")


def test_reader_matches_reference_on_crlf_text():
    for text in CORPUS_TEXTS:
        assert read_plain(text) is not None
        crlf = text.replace("\n", "\r\n")
        _agrees(crlf)
        _agrees(crlf.replace("(", "", 1))
        _agrees(crlf + ")\r\n")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from("();\n\r\t \x0b\x1c\x85\u2028"), st.characters())))
def test_reader_matches_reference_on_any_text(text):
    _agrees(text)


def _stripped(node):
    """A node of `read` with its spans stripped: an atom as its text, a list
    as the tuple of its items."""
    if isinstance(node, SAtom):
        return node.text
    return tuple(_stripped(item) for item in node.items)


def _located_agrees(node, located) -> None:
    """`located` is `node` in the plain shape, each located node with its span."""
    stack = [(node, located)]
    while stack:
        node, located = stack.pop()
        assert located.span == node.span
        if isinstance(node, SAtom):
            assert type(located) is LocatedAtom and located == node.text
        else:
            assert type(located) is LocatedList and len(located) == len(node.items)
            stack.extend(zip(node.items, located))


def _plain_agrees(text: str) -> None:
    """`read_plain` gives `read`'s forms without spans when `read` reports
    nothing, and None exactly when `read` reports a parenthesis; `locate`
    gives `read`'s forms in the plain shape with their spans."""
    forms, diags = read(text, "f")
    plain = read_plain(text)
    unbalanced = [
        d for d in diags
        if d.message in ("unbalanced closing parenthesis", "unclosed parenthesis")
    ]
    assert (plain is None) == bool(unbalanced), repr(text)
    if not diags:
        assert type(plain) is list, repr(text)
        assert plain == [_stripped(f) for f in forms], repr(text)
        pending = list(plain)
        while pending:
            node = pending.pop()
            assert type(node) in (str, tuple), repr(text)
            if type(node) is tuple:
                pending.extend(node)
    located = locate(forms)
    assert len(located) == len(forms)
    for node, loc in zip(forms, located):
        _located_agrees(node, loc)


def test_plain_reader_and_locate_take_any_depth_without_recursion():
    for text in DEEP_TEXTS:
        forms, diags = read(text, "f")
        assert (read_plain(text) is None) == bool(diags)
        for node, loc in zip(forms, locate(forms)):
            _located_agrees(node, loc)
    deepest = read_plain("(f " * 4_000 + "a" + ")" * 4_000)[0]
    for _ in range(3_999):
        deepest = deepest[1]
    assert deepest == ("f", "a")
