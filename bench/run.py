#!/usr/bin/env python3
"""Benchmark of discoplan's plan -> verify command pipeline, end to end and per layer.

    python3 bench/run.py --workload suite|scaled|regress --seed N --seconds S --trace 0|1
                         [--results FILE]

Runs from the repository root (or any checkout of it) and imports the
planner from its src/ directory. One closed-loop client in one process
calls `discoplan.cli.cli_main` in process: `plan --emit json --out F`, then
`verify --plan F`. In-process calls keep interpreter start-up (about 140 ms
per process) out of commands that take a few milliseconds.

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 first runs untraced for a third of the time, then replays the same
passes with every layer wrapped (see layers.py) and reports the per-layer
metrics, including the traced / untraced wall-time ratio.

Every command's output is checked: exit codes against the expected verdict,
`sound` verdicts from verify, and byte-identical plan files across passes
over the same problem. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable summary. With --results the JSON is also appended to FILE, the
input that compare.py reads.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 9
# A run measures whole passes; the trace run spends this share of --seconds
# untraced before replaying the same passes traced.
TRACE_UNTRACED_SHARE = 1 / 3
# The host's CPU speed changes by up to a factor of two from one second to
# the next, and every timing of discoplan changes with it. `reference()` is
# fixed work of the same kind (arithmetic, tuples, dict lookups). It is timed
# after each segment of pipelines (REF_EVERY_S or more, and at the end of each
# pass) and around each set-up. Every end-to-end time in a segment is scaled
# by REF_MS / (the mean of the reference times on either side of it), so it
# reads as the time on a host where the reference takes REF_MS.
REF_MS = 20.0
REF_EVERY_S = 0.25


def reference() -> float:
    """Run the host-speed reference once and return its duration in seconds.

    Half of it is integer arithmetic; half walks chains of variable bindings
    held as tuples in a dict, the shape of term unification.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    bindings = {("?v", i): ("f", ("?v", i + 1), ("g", i % 7)) for i in range(2000)}
    for first in range(0, 2000, 40):
        var = ("?v", first)
        while var in bindings:
            var = bindings[var][1]
            total += 1
    return time.perf_counter() - start


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.truncated = 0


class Runner:
    """Runs and checks the commands of one workload against one import of discoplan."""

    def __init__(self, cli_main, verify_cap: int, wl: workloads.Workload, plans: Path,
                 tally: Tally):
        self.cli_main = cli_main
        self.verify_cap = verify_cap
        self.wl = wl
        self.plans = plans
        self.tally = tally
        self.tracer: layers.Tracer | None = None
        self.emitted: dict[str, str] = {}
        # Host-scaled latencies; `pending` holds (list, raw ms) until the
        # segment's closing reference is timed.
        self.plan_ms: list[float] = []
        self.verify_ms: list[float] = []
        self.pending: list[tuple[list[float], float]] = []
        self.factors: list[float] = []
        plans.mkdir(parents=True, exist_ok=True)

    def _command(self, pid: str, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        if tracer is not None:
            tracer.problem = pid
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer is not None:
                tracer.push("cli")
            try:
                code = self.cli_main(argv)
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                code = exc
            finally:
                if tracer is not None:
                    tracer.pop()
            elapsed = time.perf_counter() - start
        self.tally.attempted += 1
        return code, elapsed, out.getvalue(), err.getvalue()

    def _fail(self, pid: str, what: str) -> None:
        self.tally.failures.append(f"{pid}: {what}")

    def _plan(self, pid, domain, problem, flags, out_path: Path, exits, record: bool) -> bool:
        argv = ["plan", "--domain", domain, "--problem", problem, "--emit", "json",
                "--out", str(out_path), *flags]
        # A plan file left by an earlier pass must not pass for this one's.
        out_path.unlink(missing_ok=True)
        code, elapsed, _, err = self._command(pid, argv)
        if record:
            self.pending.append((self.plan_ms, 1e3 * elapsed))
        if code not in exits:
            self._fail(pid, f"plan exited {code!r}, expected one of {exits}: {err.strip()[:200]}")
            return False
        if code != 0:
            return True
        if not out_path.is_file():
            self._fail(pid, "plan exited 0 but wrote no plan file")
            return False
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        if self.emitted.setdefault(pid, digest) != digest:
            self._fail(pid, "emitted plan differs from an earlier pass")
            return False
        return True

    def _verify(self, pid, domain, problem, plan_path: Path, record: bool) -> None:
        argv = ["verify", "--domain", domain, "--problem", problem, "--plan", str(plan_path)]
        code, elapsed, out, err = self._command(pid, argv)
        if record:
            self.pending.append((self.verify_ms, 1e3 * elapsed))
        if code != 0 or not out.startswith("sound: "):
            self._fail(pid, f"verify exited {code!r}: {(out + err).strip()[:200]}")
            return
        if int(out.split()[1]) > self.verify_cap:
            self.tally.truncated += 1

    def pipeline(self, case: workloads.Case, record: bool = True) -> None:
        plan_path = self.plans / f"{case.pid}.plan.json"
        ok = self._plan(case.pid, case.domain, case.problem, case.plan_flags, plan_path,
                        self.wl.plan_exits, record)
        if case.twin is not None:
            self._verify(case.pid, case.domain, case.twin, self._twin_plan(case), record)
        elif ok:
            self._verify(case.pid, case.domain, case.problem, plan_path, record)

    def _twin_plan(self, case: workloads.Case) -> Path:
        return self.plans / f"{case.pid}-twin.plan.json"

    def warm_up(self) -> None:
        """Emit the twins' plans, then run one cheap pipeline per domain unrecorded."""
        for case in self.wl.cases:
            if case.twin is not None:
                self._plan(case.pid + "-twin", case.domain, case.twin, (), self._twin_plan(case),
                           (0,), False)
                self._verify(case.pid + "-twin", case.domain, case.twin, self._twin_plan(case),
                             False)
        for case in self.wl.warmup:
            if case.twin is None:
                self.pipeline(case, record=False)

    def measure(self, seconds: float, passes: int | None = None) -> tuple[int, float, float]:
        """Run whole passes: `passes` of them, or while the next is predicted to fit.

        Returns the passes run, their wall time and their host-scaled time,
        in seconds, both without the reference runs.
        """
        start = time.perf_counter()
        prev_ref = reference()
        wall = scaled = 0.0
        done = 0
        while True:
            seg_start = time.perf_counter()
            for i, case in enumerate(self.wl.cases):
                self.pipeline(case)
                seg = time.perf_counter() - seg_start
                if seg >= REF_EVERY_S or i == len(self.wl.cases) - 1:
                    ref = reference()
                    factor = REF_MS / (500 * (prev_ref + ref))
                    for samples, ms in self.pending:
                        samples.append(ms * factor)
                    self.pending.clear()
                    self.factors.append(factor)
                    wall += seg
                    scaled += seg * factor
                    prev_ref = ref
                    seg_start = time.perf_counter()
            done += 1
            if passes is not None:
                if done == passes:
                    return done, wall, scaled
            elif (time.perf_counter() - start) * (done + 1) / done > seconds:
                return done, wall, scaled


def set_up(workload: str, seed: int, work: Path, tally: Tally) -> Runner:
    """Import discoplan afresh, write the workload's inputs, and warm up."""
    for name in [m for m in sys.modules if m == "discoplan" or m.startswith("discoplan.")]:
        del sys.modules[name]
    shutil.rmtree(work, ignore_errors=True)
    cli = importlib.import_module("discoplan.cli")
    oracle = importlib.import_module("discoplan.oracle")
    cap = inspect.signature(oracle.verify_soundness).parameters["max_orders"].default
    wl = workloads.build(workload, seed, ROOT / "corpus", work / "inputs")
    runner = Runner(cli.cli_main, cap, wl, work / "plans", tally)
    runner.warm_up()
    return runner


def percentile(samples: list[float], pct: float) -> float:
    if len(samples) < 2:
        return samples[0]
    if pct == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=10_000, method="inclusive")[round(100 * pct) - 1]


def tail_note(name: str, samples: list[float], pct: float) -> str:
    beyond = len(samples) * (100 - pct) / 100
    note = f"{name}: p50 and p{pct:g} over {len(samples)} samples ({beyond:.0f} beyond p{pct:g})"
    if beyond < 10:
        note += " -- fewer than ten samples beyond the tail; lengthen the run"
    return note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("suite", "scaled", "regress"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=None, help="append the result JSON to this file")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "discoplan" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no discoplan sources and corpus under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        setup_times = []
        ref = reference()
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            runner = set_up(args.workload, args.seed, work, tally)
            setup_s = time.perf_counter() - start
            after = reference()
            setup_times.append(setup_s * REF_MS / (500 * (ref + after)))
            ref = after
        tracer = None
        if args.trace:
            untraced_passes, elapsed, untraced_s = runner.measure(
                args.seconds * TRACE_UNTRACED_SHARE)
            tracer = layers.Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                passes, _, traced_s = runner.measure(0, passes=untraced_passes)
            finally:
                tracer.uninstall()
                runner.tracer = None
        else:
            passes, elapsed, scaled_s = runner.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wl = runner.wl
    plans, verifies = runner.plan_ms, runner.verify_ms
    failed = len(tally.failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {wl.name}, seed {args.seed}: {len(wl.cases)} problems x {passes} passes "
          f"in {elapsed:.2f} s{' untraced, then again traced' if tracer else ''}, "
          f"host-scaled setup median {statistics.median(setup_times):.3f} s")
    if tracer is None:
        print(tail_note("plan", plans, wl.tail_pct))
        print(tail_note("verify", verifies, wl.tail_pct))
        q1, q2, q3 = statistics.quantiles(runner.factors, n=4)
        print(f"host-speed factor over {len(runner.factors)} segments: median {q2:.3f}, "
              f"quartiles {q1:.3f} and {q3:.3f}")
    print(f"fail_share {failed / tally.attempted:.4f} ({failed} of {tally.attempted} commands), "
          f"audits truncated at the linearization cap: {tally.truncated}")
    for line in tally.failures[:10]:
        print("FAILED " + line, file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "plan_p50_ms": (percentile(plans, 50), "ms"),
            "plan_tail_ms": (percentile(plans, wl.tail_pct), "ms"),
            "verify_p50_ms": (percentile(verifies, 50), "ms"),
            "verify_tail_ms": (percentile(verifies, wl.tail_pct), "ms"),
            "problems_per_s": (len(wl.cases) * passes / scaled_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": (1 - failed / tally.attempted, "share"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics = tracer.metrics(traced_s / untraced_s)
        shares = tracer.phase_shares()
        print("share of command time: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        first = metrics["search.node_us_first_quarter"]["value"]
        last = metrics["search.node_us_last_quarter"]["value"]
        print(f"per-node time: first quarter {first:.1f} us, last quarter {last:.1f} us")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": wl.name, "seed": args.seed, "passes": passes,
                                  "shares": shares})
        print(f"spans written to {trace_path}")

    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": metrics}
    if args.results:
        with open(args.results, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                                "seconds": args.seconds, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
