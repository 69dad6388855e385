"""Per-layer tracing by wrapping discoplan's public functions at runtime.

Nothing under src/ changes. `Tracer.install` replaces each traced function
with a wrapper that records a span (name, start, end, parent, problem id)
and rebinds every `discoplan.*` module attribute that still holds the
original object, because modules import each other's functions with
`from ... import` (search, plan, model and oracle all hold their own
`unify`). Generators are timed per `next()`; `Plan.evolve` is wrapped on
the class. A layer's self time is its span's duration minus the time its
child spans cover; a function left unwrapped counts as self time of the
layer that called it.

Aggregates are kept exactly for every call. Span records are kept in memory
up to `MAX_SPANS` (the rest are counted as dropped) and written when the
run ends.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Span records kept in full per run; later spans count only in the aggregates.
MAX_SPANS = 100_000

# module -> (function, span name); a span name's prefix is its layer.
TRACED = {
    "sexp": [("read", "sexp.read")],
    "language": [("parse_domain", "language.parse"), ("parse_problem", "language.parse")],
    "model": [
        ("validate_domain", "model.validate"),
        ("validate_problem", "model.validate"),
        ("kb_satisfy", "model.kb_satisfy"),
    ],
    "terms": [
        ("unify", "terms.unify"),
        ("unify_terms", "terms.unify_terms"),
        ("add_noncodesignation", "terms.noncodesig"),
    ],
    "plan": [
        ("detect_threats", "plan.detect_threats"),
        ("add_ordering", "plan.add_ordering"),
        ("Plan.evolve", "plan.evolve"),
    ],
    "search": [
        ("solve", "search.solve"),
        ("refine_causal", "search.refine_causal"),
        ("refine_decomposition", "search.refine_decomposition"),
        ("resolve_threat", "search.resolve_threat"),
        ("prune_unused", "search.prune_unused"),
    ],
    "intention": [("classify_effects", "intention.classify")],
    "emit": [("emit", "emit.emit"), ("plan_view_from_dict", "emit.reload")],
    "oracle": [("verify_soundness", "oracle.verify"), ("execute", "oracle.execute")],
}


class Tracer:
    def __init__(self):
        self.name_id: dict[str, int] = {}
        # Open spans: [name, start, child time, record index].
        self.stack: list[list] = []
        self.records: list = []
        self.dropped = 0
        self.problem = ""
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        # Inclusive time of spans opened directly by a command.
        self.phase_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # Per solve: start times of the nodes it expanded, and per-solve
        # (first quarter, last quarter) mean node times.
        self._node_starts: list[list[float]] = []
        self.node_quarters: list[tuple[float, float]] = []
        self.node_curve: defaultdict[int, list[float]] = defaultdict(list)
        self._restore: list = []
        self._verify_cap = None

    # -- spans ---------------------------------------------------------------

    def push(self, name: str) -> None:
        idx = len(self.records)
        if idx < MAX_SPANS:
            self.records.append(None)
        else:
            idx = -1
            self.dropped += 1
        self.stack.append([name, time.perf_counter(), 0.0, idx])

    def pop(self) -> None:
        end = time.perf_counter()
        name, start, child, idx = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            if parent[0] == "cli":
                self.phase_s[name] += dur
        if idx >= 0:
            parent = self.stack[-1][3] if self.stack else -1
            nid = self.name_id.setdefault(name, len(self.name_id))
            self.records[idx] = (nid, start, end, parent, self.problem)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            tracer.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name + "_calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                tracer.push(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.pop()
                tracer.counts["model.kb_bindings_yielded"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind each module attribute holding it."""
        mods = {k: m for k, m in sys.modules.items() if k == "discoplan" or k.startswith("discoplan.")}
        oracle = mods["discoplan.oracle"]
        self._verify_cap = inspect.signature(oracle.verify_soundness).parameters["max_orders"].default
        replace: dict[int, tuple] = {}
        for modname, entries in TRACED.items():
            mod = mods["discoplan." + modname]
            for attr, name in entries:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    self._restore.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr)
                if inspect.isgeneratorfunction(orig):
                    replace[id(orig)] = (orig, self._wrap_generator(name, orig))
                else:
                    replace[id(orig)] = (orig, self._wrap(name, orig))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- counting hooks, named after the span they follow ---------------------

    def _after_sexp_read(self, args, result):
        self.counts["sexp.bytes"] += len(args[0].encode())

    def _after_terms_unify(self, args, result):
        if result is not None:
            self.counts["terms.unify_ok"] += 1

    def _after_plan_detect_threats(self, args, result):
        self.counts["plan.threats_found"] += len(result)

    def _before_plan_detect_threats(self, args):
        # A detect_threats call made directly by solve starts a search node.
        if self.stack and self.stack[-1][0] == "search.solve":
            self._node_starts[-1].append(time.perf_counter())

    def _after_plan_add_ordering(self, args, result):
        if result is None:
            self.counts["plan.add_ordering_cycles"] += 1

    def _before_search_solve(self, args):
        self._node_starts.append([])

    def _after_search_solve(self, args, result):
        end = time.perf_counter()
        starts = self._node_starts.pop()
        self.counts["search.nodes"] += result.stats.nodes_expanded
        self.counts["search.backtracks"] += result.stats.backtracks
        if not starts:
            return
        durs = [b - a for a, b in zip(starts, starts[1:] + [end])]
        q = max(1, len(durs) // 4)
        self.node_quarters.append((sum(durs[:q]) / q, sum(durs[-q:]) / q))
        for i, d in enumerate(durs):
            self.node_curve[i * 20 // len(durs)].append(d)

    def _after_search_refine_causal(self, args, result):
        self.counts["search.successors_built"] += len(result)

    _after_search_refine_decomposition = _after_search_refine_causal
    _after_search_resolve_threat = _after_search_refine_causal

    def _after_intention_classify(self, args, result):
        self.counts["intention.labels"] += len(result.labels)

    def _after_emit_emit(self, args, result):
        self.counts["emit.bytes_out"] += len(result.encode())

    def _after_oracle_verify(self, args, result):
        self.counts["oracle.linearizations"] += result.linearizations_checked
        if result.linearizations_checked > self._verify_cap:
            self.counts["oracle.truncated"] += 1

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        s, c, n = self.self_s, self.calls, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        solve_s = self.total_s["search.solve"]
        first = [f for f, _ in self.node_quarters]
        last = [l for _, l in self.node_quarters]
        values = {
            "cli.self_s": (s["cli"], "s"),
            "sexp.read_s": (s["sexp.read"], "s"),
            "sexp.read_calls": (c["sexp.read"], "count"),
            "sexp.bytes_per_s": (ratio(n["sexp.bytes"], s["sexp.read"]), "B/s"),
            "language.parse_s": (s["language.parse"], "s"),
            "language.parse_calls": (c["language.parse"], "count"),
            "model.validate_s": (s["model.validate"], "s"),
            "model.kb_satisfy_s": (s["model.kb_satisfy"], "s"),
            "model.kb_satisfy_calls": (c["model.kb_satisfy_calls"], "count"),
            "model.kb_bindings_yielded": (n["model.kb_bindings_yielded"], "count"),
            "terms.unify_s": (
                s["terms.unify"] + s["terms.unify_terms"] + s["terms.noncodesig"], "s"
            ),
            "terms.unify_calls": (c["terms.unify"], "count"),
            "terms.unify_success_ratio": (ratio(n["terms.unify_ok"], c["terms.unify"]), "ratio"),
            "terms.unify_terms_calls": (c["terms.unify_terms"], "count"),
            "terms.noncodesig_calls": (c["terms.noncodesig"], "count"),
            "plan.detect_threats_s": (s["plan.detect_threats"], "s"),
            "plan.detect_threats_calls": (c["plan.detect_threats"], "count"),
            "plan.threats_found": (n["plan.threats_found"], "count"),
            "plan.evolve_s": (s["plan.evolve"], "s"),
            "plan.evolve_calls": (c["plan.evolve"], "count"),
            "plan.add_ordering_calls": (c["plan.add_ordering"], "count"),
            "plan.add_ordering_cycle_ratio": (
                ratio(n["plan.add_ordering_cycles"], c["plan.add_ordering"]), "ratio"
            ),
            "search.solve_s": (solve_s, "s"),
            "search.nodes": (n["search.nodes"], "count"),
            "search.backtracks": (n["search.backtracks"], "count"),
            "search.nodes_per_s": (ratio(n["search.nodes"], solve_s), "1/s"),
            "search.successors_built": (n["search.successors_built"], "count"),
            "search.successors_used_ratio": (
                ratio(n["search.nodes"], n["search.successors_built"]), "ratio"
            ),
            "search.refine_causal_s": (s["search.refine_causal"], "s"),
            "search.refine_decomposition_s": (s["search.refine_decomposition"], "s"),
            "search.resolve_threat_s": (s["search.resolve_threat"], "s"),
            "search.prune_unused_s": (s["search.prune_unused"], "s"),
            "search.node_us_first_quarter": (1e6 * ratio(sum(first), len(first)), "us"),
            "search.node_us_last_quarter": (1e6 * ratio(sum(last), len(last)), "us"),
            "intention.classify_s": (s["intention.classify"], "s"),
            "intention.labels": (n["intention.labels"], "count"),
            "emit.emit_s": (s["emit.emit"], "s"),
            "emit.bytes_out": (n["emit.bytes_out"], "B"),
            "emit.reload_s": (s["emit.reload"], "s"),
            "oracle.verify_s": (s["oracle.verify"] + s["oracle.execute"], "s"),
            "oracle.linearizations": (n["oracle.linearizations"], "count"),
            "oracle.truncated": (n["oracle.truncated"], "count"),
            "oracle.execute_calls": (c["oracle.execute"], "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def phase_shares(self) -> dict[str, float]:
        """Inclusive time of each step a command makes, as a share of all command time."""
        whole = self.total_s["cli"] or 1.0
        shares = {name: t / whole for name, t in sorted(self.phase_s.items())}
        shares["cli"] = self.self_s["cli"] / whole
        return shares

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            head = dict(header, spans=len(self.records) - self.records.count(None),
                        dropped_spans=self.dropped, names=list(self.name_id),
                        node_curve_us=[
                            1e6 * sum(v) / len(v) for _, v in sorted(self.node_curve.items())
                        ])
            f.write(json.dumps(head) + "\n")
            for rec in self.records:
                if rec is not None:
                    f.write(json.dumps(rec) + "\n")
