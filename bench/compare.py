#!/usr/bin/env python3
"""Summarise one results file, or compare two, metric by metric.

    python3 bench/compare.py RESULTS                 # spread of each metric vs its bound
    python3 bench/compare.py PARENT CHANGE           # change against parent

A results file holds one JSON line per run, as `run.py --results` appends
them. Each row is one workload and metric: each side's median and
quartiles (statistics.quantiles, n=4), then for two files the share of
pairs the change won (runs paired in seed order, ties count for neither) and a
verdict. A regression ("WORSE") is a median worse by more than the bound,
when every change run is worse than every parent run or both sides' spreads
(quartile distance as a share of the median) are within the bound. Otherwise
the verdict is "unresolved" where either side's spread exceeds the bound,
unless every change run beats every parent run. A gain ("better") needs nine
tenths of the pairs, a median difference larger than the parent's quartile
distance, and no more failed commands than the parent on that workload.
Per-layer metrics have no bound and get no verdict.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict, Counter]:
    """(workload, metric) -> {seed: value}, and workload -> failed commands."""
    out: dict = defaultdict(dict)
    failed: Counter = Counter()
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            failed[run["workload"]] += run["result"]["failed"]
            for name, m in run["result"]["metrics"].items():
                out[(run["workload"], name)][run["seed"]] = m["value"]
    return out, failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def specs() -> dict:
    bench = json.loads(BENCHMARK.read_text())
    out = {m["name"]: m for m in bench["end_to_end"]}
    out.update({m["name"]: m for m in bench["per_layer"]})
    return out


def fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def summarise(path: str) -> None:
    spec = specs()
    print(f"{'workload':9} {'metric':32} {'n':>3} {'median [q1, q3]':>32} {'spread':>7} {'bound':>6}")
    runs, failed = load(path)
    for workload in sorted(failed):
        print(f"{workload}: {failed[workload]} failed commands")
    for (workload, name), by_seed in sorted(runs.items()):
        values = list(by_seed.values())
        bound = spec.get(name, {}).get("bound")
        s = spread(values)
        flag = ""
        if bound is not None:
            flag = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
        print(f"{workload:9} {name:32} {len(values):>3} {fmt(values):>32} {s:>7.3f} "
              f"{'' if bound is None else bound:>6} {flag}")


def compare(parent_path: str, change_path: str) -> None:
    spec = specs()
    (parent, parent_failed), (change, change_failed) = load(parent_path), load(change_path)
    for workload in sorted(set(parent_failed) | set(change_failed)):
        print(f"{workload}: failed commands {parent_failed[workload]} -> "
              f"{change_failed[workload]}")
    print(f"{'workload':9} {'metric':32} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'won':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        a, b = parent[key], change[key]
        m = spec.get(name, {})
        lower = m.get("better", "lower") == "lower"

        def better(x, y):
            return x < y if lower else x > y

        # Runs pair by seed; two series over different seeds pair in seed order.
        pairs = list(zip(sorted(a), sorted(b)))
        wins = sum(better(b[sb], a[sa]) for sa, sb in pairs)
        won = wins / len(pairs) if pairs else 0.0
        av, bv = list(a.values()), list(b.values())
        (aq1, am, aq3), (_, bm, _) = quartiles(av), quartiles(bv)
        delta = (bm - am) / abs(am) if am else 0.0
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            worse_by = delta if lower else -delta
            all_better = all(better(x, y) for x in bv for y in av)
            all_worse = all(better(y, x) for x in bv for y in av)
            wide = max(spread(av), spread(bv)) > bound
            if worse_by > bound and (all_worse or not wide):
                verdict = "WORSE"
            elif wide and not (all_better or all_worse):
                verdict = "unresolved"
            elif (better(bm, am) and won >= 0.9 and abs(bm - am) > aq3 - aq1
                  and change_failed[workload] <= parent_failed[workload]):
                verdict = "better"
            else:
                verdict = "no regression"
        print(f"{workload:9} {name:32} {fmt(av):>30} {fmt(bv):>30} {100 * delta:>7.1f}% "
              f"{100 * won:>4.0f}%  {verdict}")


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        summarise(argv[0])
    elif len(argv) == 2:
        compare(argv[0], argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
