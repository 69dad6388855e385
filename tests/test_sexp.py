"""S-expression reader: pinned spans, agreement with the reference scanner, and
agreement of the plain reader with the located one."""
import itertools
import random
import re
import sys

from hypothesis import given, settings, strategies as st

from discoplan.sexp import Diagnostic, LocatedAtom, LocatedList, SourceSpan, read, read_plain
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
        if type(node) is LocatedAtom:
            out.append((str(node), node.span.line, node.span.column, node.span.length))
        else:
            stack.extend(reversed(node))
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
    assert type(outer) is LocatedList
    assert outer[1][1].span == SourceSpan("f", 3, 5)
    assert _atoms(forms) == [("a", 1, 2, 1), ("b", 2, 4, 1), ("c", 3, 6, 1)]


def _matches_reference(text: str) -> tuple[list, list[Diagnostic]]:
    """`read`'s forms and diagnostics, once they are found to be the
    reference scanner's: the same diagnostics, and one walk finds every node
    of the same type, text and span.

    A located node compares equal to a plain `str` or `tuple`, so `==` on
    the forms alone would not compare spans."""
    forms, diags = read(text, "f")
    want_forms, want_diags = reference_read(text, "f")
    assert repr(diags) == repr(want_diags), repr(text)
    assert len(forms) == len(want_forms), repr(text)
    pending = list(zip(forms, want_forms))
    while pending:
        got, want = pending.pop()
        assert type(got) is type(want) and type(got) in (LocatedAtom, LocatedList), repr(text)
        assert repr(got.span) == repr(want.span), repr(text)
        if type(got) is LocatedAtom:
            assert got == want, repr(text)
        else:
            assert len(got) == len(want), repr(text)
            pending.extend(zip(got, want))
    return forms, diags


def _agrees(text: str) -> None:
    """`read` gives what the reference scanner gives, and `read_plain` agrees
    with `read` (see `_plain_agrees`)."""
    _plain_agrees(text, *_matches_reference(text))


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


def _plain_agrees(text: str, forms: list, diags: list[Diagnostic]) -> None:
    """`read_plain` gives `read`'s forms `forms` as plain strings and tuples
    when `read` reports nothing, and None exactly when `read` reports a
    parenthesis."""
    plain = read_plain(text)
    unbalanced = [
        d for d in diags
        if d.message in ("unbalanced closing parenthesis", "unclosed parenthesis")
    ]
    assert (plain is None) == bool(unbalanced), repr(text)
    if not diags:
        assert type(plain) is list, repr(text)
        assert plain == forms, repr(text)
        pending = list(plain)
        while pending:
            node = pending.pop()
            assert type(node) in (str, tuple), repr(text)
            if type(node) is tuple:
                pending.extend(node)


def test_both_readers_take_any_depth_without_recursion():
    for text in DEEP_TEXTS:
        _, diags = _matches_reference(text)
        assert (read_plain(text) is None) == bool(diags)
    deepest = read_plain("(f " * 4_000 + "a" + ")" * 4_000)[0]
    for _ in range(3_999):
        deepest = deepest[1]
    assert deepest == ("f", "a")
