"""Golden digests of what every corpus command prints.

Each `plan --emit json|text|dot` and `analyze` run through `cli_main`, on
every corpus pair under every flaw and reuse policy at `--max-nodes 3000`,
must print exactly what it printed when `golden_digests.json` was recorded:
the same exit code and the same sha256 of stdout and of stderr. So a change
that is meant to keep emitted plans byte-identical is checked to do so.

A change meant to alter emitted plans regenerates the file, from the
repository root, with `PYTHONPATH=src python tests/test_golden.py`, and
says so.
"""
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from discoplan.cli import cli_main
from discoplan.search import FLAW_POLICIES, REUSE_POLICIES

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
PAIRS = [
    ("discourse", "lucentio"),
    ("discourse", "multirole"),
    ("separation", "separation"),
    ("sidefx", "sidefx"),
    ("switches", "switches-demo"),
]
COMMANDS = {
    "plan-json": ["plan", "--emit", "json"],
    "plan-text": ["plan", "--emit", "text"],
    "plan-dot": ["plan", "--emit", "dot"],
    "analyze": ["analyze"],
}
CONFIGS = [
    (d, p, flaw, reuse) for d, p in PAIRS for flaw in FLAW_POLICIES for reuse in REUSE_POLICIES
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(domain, problem, flaw, reuse) -> dict:
    """{key: [exit code, stdout sha256, stderr sha256]} for each command of
    one configuration; input paths are relative to the repository root."""
    out = {}
    for name, command in COMMANDS.items():
        argv = command + [
            "--domain", f"corpus/{domain}.dpd",
            "--problem", f"corpus/{problem}.dpp",
            "--flaw-policy", flaw,
            "--reuse-policy", reuse,
            "--max-nodes", "3000",
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        out[f"{domain}/{problem}/{flaw}/{reuse}/{name}"] = [
            code, _sha(stdout.getvalue()), _sha(stderr.getvalue())
        ]
    return out


@pytest.mark.parametrize("config", CONFIGS, ids="-".join)
def test_corpus_output_matches_its_golden_digest(monkeypatch, config):
    monkeypatch.chdir(ROOT)
    golden = json.loads(DIGESTS.read_text())
    got = _digests(*config)
    assert got == {key: golden[key] for key in got}


if __name__ == "__main__":
    os.chdir(ROOT)
    table = {}
    for config in CONFIGS:
        table.update(_digests(*config))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
