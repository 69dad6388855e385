"""Search-count digest: how each search ran, not only what it printed.

The golden digests pin what the commands print, but a solved `plan` prints
no `SearchStats`, so a search that reaches the same plan by another route
passes them. Each search here, run through `solve` directly, must end with
the outcome kind, `SearchStats` and `over_max_steps` (null for a solution)
recorded in `search_counts.json`. The searches are every corpus
configuration of `test_golden.py` at `max_nodes` 3000, and every problem of
the benchmark's `suite`, `scaled` and `regress` workloads at seed 1, the
regress twins included, each under the flags the benchmark plans it with.

A change meant to alter the search regenerates the file, from the
repository root, with `PYTHONPATH=src python tests/test_search_counts.py`,
and names each key that moved and why.
"""
import json
import tempfile
from pathlib import Path

import pytest

from discoplan.cli import _config, build_parser
from discoplan.language import parse_domain, parse_problem
from discoplan.search import SearchConfig, solve
from _worlds import bench_workload, load_domain, load_problem
from test_golden import CONFIGS

COUNTS = Path(__file__).resolve().parent / "search_counts.json"
WORKLOADS = ("suite", "scaled", "regress")


def _counts(domain, problem, config: SearchConfig) -> list:
    outcome = solve(domain, problem, config)
    stats = outcome.stats
    return [
        type(outcome).__name__,
        stats.nodes_expanded,
        stats.backtracks,
        stats.max_stack_depth,
        getattr(outcome, "over_max_steps", None),
    ]


def _corpus_counts(dname, pname, flaw, reuse) -> dict:
    config = SearchConfig(flaw_policy=flaw, reuse_policy=reuse, max_nodes=3000)
    counts = _counts(load_domain(f"{dname}.dpd"), load_problem(f"{pname}.dpp"), config)
    return {f"corpus/{dname}/{pname}/{flaw}/{reuse}": counts}


def _read(path: str, parse):
    value, diags = parse(Path(path).read_text(), path)
    assert value is not None, diags
    return value


def _workload_counts(name: str, out: Path) -> dict:
    """Counts per problem of one workload at seed 1, under its plan flags."""
    table = {}
    for case in bench_workload(name, 1, out).cases:
        domain = _read(case.domain, parse_domain)
        runs = [(case.pid, case.problem, case.plan_flags)]
        if case.twin is not None:
            runs.append((case.pid + "-twin", case.twin, ()))
        for pid, problem, flags in runs:
            args = build_parser().parse_args(
                ["plan", "--domain", case.domain, "--problem", problem, *flags]
            )
            table[f"{name}/{pid}"] = _counts(domain, _read(problem, parse_problem), _config(args))
    return table


@pytest.mark.parametrize("config", CONFIGS, ids="-".join)
def test_corpus_search_matches_its_recorded_counts(config):
    recorded = json.loads(COUNTS.read_text())
    got = _corpus_counts(*config)
    assert got == {key: recorded[key] for key in got}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_search_matches_its_recorded_counts(name, tmp_path):
    recorded = json.loads(COUNTS.read_text())
    got = _workload_counts(name, tmp_path)
    assert got == {k: v for k, v in recorded.items() if k.startswith(name + "/")}


if __name__ == "__main__":
    table = {}
    for config in CONFIGS:
        table.update(_corpus_counts(*config))
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            table.update(_workload_counts(name, Path(tmp) / name))
    COUNTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} search counts to {COUNTS}")
