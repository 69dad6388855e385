"""Seeded input generation for the three benchmark workloads.

Every workload is a list of passes over a fixed multiset of problems. The
seed chooses constant names and the order of problems, goals and init
literals; it never chooses which problem sizes appear, so every run of a
workload measures the same mix of cheap and expensive commands and its
medians and tails stay comparable across seeds.

All inputs are written as domain and problem files; the planner sees only
those files, never the generator.
"""
from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

# Scaled families. Switches never decompose; fanout problems decompose into a
# DAG whose shared cause is conveyed once. Audits enumerate every
# linearization of the primitives up to the oracle's cap of 5 000:
# switches-N has N! orders (capped from N = 7), fanout-N has 2N + 1
# primitives (capped from N = 4). Each pass holds six problems with
# exhaustive audits and three that hit the cap, so the verify median sits
# among the exhaustive audits and the p75 tail among the capped ones.
SCALED_SWITCHES = (3, 5, 6, 7, 8)
SCALED_FANOUT = (1, 2, 3, 4)

# Regress: goals whose only support needs a belief no operator can produce,
# so the search keeps regressing through combine-belief and builds ever
# deeper shared terms until the node budget runs out. One solve at this
# budget takes about a second; the per-node cost climbs steeply past it.
REGRESS_FLAGS = ("--max-depth", "2", "--max-nodes", "1000")
REGRESS_PROBLEMS = 3

SWITCH_LETTERS = ("a", "b", "c")


@dataclass
class Case:
    """One pipeline: plan `problem`, then verify its plan file, or the twin's."""

    pid: str
    domain: str
    problem: str
    plan_flags: tuple[str, ...] = ()
    # Regress plans end without a plan; their pipeline audits the plan of a
    # solvable twin problem instead, emitted during set-up.
    twin: str | None = None


@dataclass
class Workload:
    name: str
    cases: list[Case] = field(default_factory=list)
    # Commands that must exit with one of these codes.
    plan_exits: tuple[int, ...] = (0,)
    # Tail percentile reported as *_tail_ms: the highest rung of 50, 75, 90,
    # 99, 99.5, 99.75 and 99.9 that keeps at least ten samples beyond it in a
    # run of the benchmark's length.
    tail_pct: float = 90
    # One cheap case per domain, in generation order, run during set-up.
    warmup: list[Case] = field(default_factory=list)


def _name(rng: random.Random, taken: set[str]) -> str:
    while True:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if word not in taken:
            taken.add(word)
            return word


def _problem_text(name: str, domain: str, facts, init, goals) -> str:
    return "(problem {}\n  (domain {})\n  (facts {})\n  (init {})\n  (goal {}))\n".format(
        name, domain, " ".join(facts), " ".join(init), " ".join(goals)
    )


def _toggle_solvable(goal: tuple[tuple[str, bool], ...], max_len: int = 4) -> bool:
    """Breadth-first search over toggle.dpd's two ground operators from {p}."""
    frontier = {frozenset({"p"})}
    for _ in range(max_len + 1):
        if any(all((atom in s) == want for atom, want in goal) for s in frontier):
            return True
        nxt = set()
        for s in frontier:
            if "p" in s:
                nxt.add((s - {"p"}) | {"q"})
            if "q" in s:
                nxt.add(s | {"r"})
        frontier = nxt
    return False


def _fanout_texts(rng: random.Random, taken: set[str], n: int, credible: bool):
    """Problem text with n goal beliefs sharing one cause, plus the goal names."""
    cause = _name(rng, taken)
    goals = [_name(rng, taken) for _ in range(n)]
    facts = [f"(causes {cause} {g})" for g in goals]
    init = []
    if credible:
        init = [f"(credible {cause})"] + [f"(credible (causes {cause} {g}))" for g in goals]
        rng.shuffle(init)
    wanted = [f"(bel {g})" for g in goals]
    rng.shuffle(wanted)
    return facts, init, wanted


def build(workload: str, seed: int, corpus: Path, out: Path) -> Workload:
    """Write the workload's domain and problem files under `out` and list its cases."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)

    def put(fname: str, text: str) -> str:
        path = out / fname
        path.write_text(text)
        return str(path)

    def domain(fname: str) -> str:
        return put(fname, (corpus / fname).read_text())

    taken: set[str] = set()
    if workload == "suite":
        wl = Workload("suite", tail_pct=99.75)
        switches, toggle = domain("switches.dpd"), domain("toggle.dpd")
        discourse, sidefx = domain("discourse.dpd"), domain("sidefx.dpd")
        # The 208 three-switch problems of the acceptance soundness sweep.
        for init_bits in itertools.product((True, False), repeat=3):
            init = [
                f"({'on' if bit else 'off'} {s})" for s, bit in zip(SWITCH_LETTERS, init_bits)
            ]
            for wants in itertools.product((None, True, False), repeat=3):
                goal = [
                    f"({'on' if w else 'off'} {s})"
                    for s, w in zip(SWITCH_LETTERS, wants)
                    if w is not None
                ]
                if not goal:
                    continue
                pid = "sw-{}-{}".format(
                    "".join("1" if b else "0" for b in init_bits),
                    "".join("x" if w is None else ("1" if w else "0") for w in wants),
                )
                path = put(pid + ".dpp", _problem_text(pid, "switches", [], init, goal))
                wl.cases.append(Case(pid, switches, path))
        # The 17 toggle goal sets that are reachable from {p}.
        literals = [(a, True) for a in "pqr"] + [(a, False) for a in "pqr"]
        for n in range(1, 4):
            for combo in itertools.combinations(literals, n):
                if len({a for a, _ in combo}) != n or not _toggle_solvable(combo):
                    continue
                pid = f"tg-{len(wl.cases)}"
                goal = [f"({a})" if want else f"(not ({a}))" for a, want in combo]
                path = put(pid + ".dpp", _problem_text(pid, "toggle", [], ["(p)"], goal))
                wl.cases.append(Case(pid, toggle, path))
        for dom, fname in ((discourse, "lucentio.dpp"), (discourse, "multirole.dpp"),
                           (sidefx, "sidefx.dpp")):
            wl.cases.append(Case(fname[:-4], dom, domain(fname)))
        if len(wl.cases) != 228:
            raise RuntimeError(f"suite has {len(wl.cases)} problems, expected 228")
    elif workload == "scaled":
        wl = Workload("scaled", tail_pct=75)
        switches, discourse = domain("switches.dpd"), domain("discourse.dpd")
        for n in SCALED_SWITCHES:
            pid = f"switches-{n}"
            names = [_name(rng, taken) for _ in range(n)]
            init = [f"(off {x})" for x in names]
            goal = [f"(on {x})" for x in names]
            rng.shuffle(init)
            rng.shuffle(goal)
            path = put(pid + ".dpp", _problem_text(pid, "switches", [], init, goal))
            wl.cases.append(Case(pid, switches, path))
        for n in SCALED_FANOUT:
            pid = f"fanout-{n}"
            facts, init, goal = _fanout_texts(rng, taken, n, True)
            path = put(pid + ".dpp", _problem_text(pid, "discourse", facts, init, goal))
            wl.cases.append(Case(pid, discourse, path))
    elif workload == "regress":
        wl = Workload("regress", plan_exits=(1, 2), tail_pct=50)
        discourse = domain("discourse.dpd")
        for i in range(REGRESS_PROBLEMS):
            pid = f"regress-{i}"
            facts, _, goal = _fanout_texts(rng, taken, 1, False)
            path = put(pid + ".dpp", _problem_text(pid, "discourse", facts, [], goal))
            # The twin adds the credible beliefs that make the same goal solvable.
            cause = facts[0].split()[1]
            init = [f"(credible {cause})"] + [f"(credible {f})" for f in facts]
            twin = put(pid + "-twin.dpp", _problem_text(pid + "-twin", "discourse", facts, init, goal))
            wl.cases.append(Case(pid, discourse, path, REGRESS_FLAGS, twin))
    else:
        raise ValueError(f"unknown workload {workload}")
    seen = set()
    for case in wl.cases:
        if case.domain not in seen:
            seen.add(case.domain)
            wl.warmup.append(case)
    rng.shuffle(wl.cases)
    return wl
