"""S-expression reader: pinned spans, and agreement with the reference scanner."""
import itertools
import random
import re
import sys

from hypothesis import given, settings, strategies as st

from discoplan.sexp import Diagnostic, SAtom, SList, SourceSpan, read
from _oracles import reference_read
from _worlds import CORPUS

# The fuzz alphabet of acceptance criterion 7.
FUZZ_ALPHABET = "()?#;ab1 \n\t-_~%\\\"'é("
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
    got = read(text, "f")
    want = reference_read(text, "f")
    assert got == want, repr(text)
    assert repr(got) == repr(want), repr(text)
    assert hash(tuple(got[0])) == hash(tuple(want[0])), repr(text)


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
        crlf = text.replace("\n", "\r\n")
        _agrees(crlf)
        _agrees(crlf.replace("(", "", 1))
        _agrees(crlf + ")\r\n")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from("();\n\r\t \x0b\x1c\x85\u2028"), st.characters())))
def test_reader_matches_reference_on_any_text(text):
    _agrees(text)
