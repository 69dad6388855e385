"""Golden digests of what every corpus command prints.

Each `plan --emit json|text|dot` and `analyze` run through `cli_main`, on
every corpus pair under every flaw and reuse policy at `--max-nodes 3000`,
must print exactly what it printed when `golden_digests.json` was recorded:
the same exit code and the same sha256 of stdout and of stderr. So a change
that is meant to keep emitted plans byte-identical is checked to do so.

`verify` is pinned the same way, on the file `plan --out` wrote (or on the
missing file, when `plan` found no solution), and for the two plans with a
decomposition link on four malformed copies of that file (see `MALFORMED`).

A change meant to alter emitted plans regenerates the file, from the
repository root, with `PYTHONPATH=src python tests/test_golden.py`, and
says so.
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile
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
# The pairs whose plans have a decomposition link, and the malformed copies
# of their plan files that `verify` is pinned on (see `_tamper`).
DECOMPOSING = ("lucentio", "multirole")
MALFORMED = ("no-schema", "no-constraints", "text-member", "numeric-condition")
CONFIGS = [
    (d, p, flaw, reuse) for d, p in PAIRS for flaw in FLAW_POLICIES for reuse in REUSE_POLICIES
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tamper(data: dict, name: str) -> None:
    """Make one `MALFORMED` copy: edit the first decomposition or causal link."""
    deco = data["decomposition_links"][0]
    if name == "no-schema":
        del deco["schema"]
    elif name == "no-constraints":
        del deco["constraints"]
    elif name == "text-member":
        deco["members"][0] = str(deco["members"][0])
    else:
        data["causal_links"][0]["condition"] = 5


def _run(argv) -> list:
    """[exit code, stdout sha256, stderr sha256] of one `cli_main` run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return [code, _sha(stdout.getvalue()), _sha(stderr.getvalue())]


def _digests(domain, problem, flaw, reuse) -> dict:
    """{key: [exit code, stdout sha256, stderr sha256]} for each command of
    one configuration. The commands run in a fresh directory and name the
    plan file alone, so no line they print depends on where the repository
    or that directory is."""
    key = f"{domain}/{problem}/{flaw}/{reuse}"
    inputs = [
        "--domain", str(ROOT / "corpus" / f"{domain}.dpd"),
        "--problem", str(ROOT / "corpus" / f"{problem}.dpp"),
    ]
    search = inputs + ["--flaw-policy", flaw, "--reuse-policy", reuse, "--max-nodes", "3000"]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, command in COMMANDS.items():
                out[f"{key}/{name}"] = _run(command + search)
            _run(["plan", "--out", "plan.json"] + search)
            out[f"{key}/verify"] = _run(["verify", "--plan", "plan.json"] + inputs)
            if problem in DECOMPOSING and os.path.exists("plan.json"):
                written = Path("plan.json").read_text(encoding="utf-8")
                for name in MALFORMED:
                    data = json.loads(written)
                    _tamper(data, name)
                    Path(f"{name}.plan.json").write_text(json.dumps(data), encoding="utf-8")
                    argv = ["verify", "--plan", f"{name}.plan.json"] + inputs
                    out[f"{key}/verify-{name}"] = _run(argv)
        finally:
            os.chdir(ROOT)
    return out


@pytest.mark.parametrize("config", CONFIGS, ids="-".join)
def test_corpus_output_matches_its_golden_digest(monkeypatch, config):
    monkeypatch.chdir(ROOT)
    golden = json.loads(DIGESTS.read_text())
    prefix = "/".join(config) + "/"
    assert _digests(*config) == {k: v for k, v in golden.items() if k.startswith(prefix)}


if __name__ == "__main__":
    os.chdir(ROOT)
    table = {}
    for config in CONFIGS:
        table.update(_digests(*config))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
