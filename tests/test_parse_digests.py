"""Parse digests: what `parse_domain` and `parse_problem` return on fixed texts.

For each group of texts and each parser, one sha256 over the repr of every
value and the text of every diagnostic line, in order, must equal the one in
`parse_digests.json`. The groups are acceptance criterion 7's seed-4242 fuzz
texts, its three deep texts, and every corpus file. So a change that is
meant to keep parsing as it is, diagnostics byte for byte, is checked to do
so.

A change meant to alter what parsing returns regenerates the file, from the
repository root, with `PYTHONPATH=src python tests/test_parse_digests.py`,
and says so.
"""
import hashlib
import json
from pathlib import Path

import pytest

from discoplan.language import parse_domain, parse_problem
from _worlds import CORPUS, DEEP_TEXTS, fuzz_texts

DIGESTS = Path(__file__).resolve().parent / "parse_digests.json"
PARSERS = {"domain": parse_domain, "problem": parse_problem}


# Each group's texts as (text, filename); None keeps the parser's default name.
GROUPS = {
    "fuzz": lambda: [(text, None) for text in fuzz_texts()],
    "deep": lambda: [(text, None) for text in DEEP_TEXTS],
    "corpus": lambda: [(p.read_text(encoding="utf-8"), p.name) for p in sorted(CORPUS.iterdir())],
}


def _digest(parse, texts) -> str:
    h = hashlib.sha256()
    for text, filename in texts:
        value, diags = parse(text) if filename is None else parse(text, filename)
        h.update(repr(value).encode("utf-8") + b"\n")
        for d in diags:
            h.update(str(d).encode("utf-8") + b"\n")
        h.update(b"\x00\n")
    return h.hexdigest()


def _table(group: str) -> dict:
    texts = GROUPS[group]()
    return {f"{group}/{kind}": _digest(parse, texts) for kind, parse in PARSERS.items()}


@pytest.mark.parametrize("group", GROUPS)
def test_parsing_matches_its_digest(group):
    golden = json.loads(DIGESTS.read_text())
    assert _table(group) == {k: v for k, v in golden.items() if k.startswith(group + "/")}


if __name__ == "__main__":
    table = {}
    for group in GROUPS:
        table.update(_table(group))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
