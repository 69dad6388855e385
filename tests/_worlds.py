"""Shared fixtures: corpus loading, programmatic domains, hand-built plans,
and the from-scratch check of a plan's structural invariants."""
from __future__ import annotations

import functools
import importlib.util
import random
import sys
from pathlib import Path

from discoplan.language import parse_domain, parse_problem
from discoplan.model import ActionOperator, Domain, Problem, establishments
from discoplan.plan import (
    KIND_COMPOSITE,
    KIND_FINAL,
    KIND_INITIAL,
    KIND_PRIMITIVE,
    OpenCondition,
    Plan,
    Step,
    UnexpandedComposite,
    _scan_threats,
    detect_threats,
    init_plan,
)
from discoplan.search import SearchConfig, _select_flaw, successors
from discoplan.terms import Constant, EMPTY_BINDINGS, Literal, Variable, unify

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_domain(name: str) -> Domain:
    domain, diags = parse_domain((CORPUS / name).read_text(), name)
    assert domain is not None, diags
    return domain


def load_problem(name: str) -> Problem:
    problem, diags = parse_problem((CORPUS / name).read_text(), name)
    assert problem is not None, diags
    return problem


@functools.cache
def _workloads_module():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def bench_workload(name: str, seed: int, out: Path):
    """The benchmark's workload `name` at `seed`, its files written under `out`."""
    return _workloads_module().build(name, seed, CORPUS, out)


# The fuzz alphabet of acceptance criterion 7.
FUZZ_ALPHABET = "()?#;ab1 \n\t-_~%\\\"'é("
# Three texts nested or unbalanced far past any recursion limit.
DEEP_TEXTS = ("(" * 30_000, ")" * 30_000, "(f " * 4_000 + "a" + ")" * 4_000)


def fuzz_texts():
    """Acceptance criterion 7's 10 000 seed-4242 texts: every fourth a corpus
    text with a random stretch replaced, the rest random over FUZZ_ALPHABET."""
    rng = random.Random(4242)
    corpus_texts = [
        (CORPUS / n).read_text()
        for n in ("discourse.dpd", "lucentio.dpp", "switches.dpd", "toggle.dpd")
    ]
    for i in range(10_000):
        if i % 4 == 0:
            base = rng.choice(corpus_texts)
            pos = rng.randrange(len(base))
            glitch = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(1, 8)))
            yield base[:pos] + glitch + base[pos + rng.randrange(0, 12):]
        else:
            yield "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 120)))


def lit(predicate: str, *args, positive: bool = True) -> Literal:
    return Literal(predicate, tuple(args), positive)


def make_plan(steps, orderings=(), links=(), bindings=EMPTY_BINDINGS, decos=(), flaws=()):
    """Assemble a Plan directly from raw pieces; initial must be sid 0, final sid 1."""
    return Plan(
        steps=tuple(steps),
        orderings=frozenset(orderings) | {(0, 1)},
        bindings=bindings,
        causal_links=tuple(links),
        decomposition_links=tuple(decos),
        flaws=tuple(flaws),
        next_sid=max(s.sid for s in steps) + 1,
        next_iid=max(s.sid for s in steps) + 2,
        domain_name="test",
        problem_name="test",
    )


def scan_flaws(plan: Plan) -> tuple[set, set]:
    """From-scratch flaw computation: (open conditions, unexpanded composites).

    The maintained agenda must always equal this scan.
    """
    supported = {(l.consumer, l.condition) for l in plan.causal_links}
    opens = {
        OpenCondition(s.sid, p)
        for s in plan.steps
        for p in s.preconditions
        if (s.sid, p) not in supported
    }
    unexpanded = {
        UnexpandedComposite(s.sid)
        for s in plan.steps
        if s.kind == KIND_COMPOSITE and s.sid not in plan._intervals
    }
    return opens, unexpanded


def reference_closure(steps, pairs) -> dict[int, frozenset[int]]:
    """The ordering closure by a walk from each of `steps`: the steps each one
    reaches through `pairs`. The planner extends closures incrementally; this
    is the from-scratch reference for it."""
    succ: dict[int, set[int]] = {s.sid: set() for s in steps}
    for a, b in pairs:
        if a in succ:
            succ[a].add(b)
    out: dict[int, frozenset[int]] = {}
    for sid in succ:
        seen: set[int] = set()
        stack = list(succ[sid])
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(succ.get(n, ()))
        out[sid] = frozenset(seen)
    return out


def check_invariants(plan: Plan) -> list[str]:
    """Structural invariant audit used by tests; empty list means healthy."""
    issues = []
    if not plan.is_acyclic:
        issues.append("ordering closure is cyclic")
    init, final = plan.initial.sid, plan.final.sid
    for s in plan.steps:
        if s.sid != init and not plan.reaches(init, s.sid):
            issues.append(f"initial does not precede step {s.sid}")
        if s.sid != final and not plan.reaches(s.sid, final):
            issues.append(f"step {s.sid} does not precede final")
    for link in plan.causal_links:
        if not plan.reaches(link.producer, link.consumer):
            issues.append(f"link {link.producer}->{link.consumer} not ordered")
        producer = plan.step(link.producer)
        found = establishments(
            plan.bindings, producer.effects, link.condition, producer.kind == KIND_INITIAL
        )
        if next(found, None) is None:
            issues.append(f"link condition {link.condition} matches no effect of {link.producer}")
        consumer = plan.step(link.consumer)
        if not any(unify(p, link.condition, plan.bindings) is not None for p in consumer.preconditions):
            issues.append(f"link condition {link.condition} matches no precondition of {link.consumer}")
    for d in plan.decomposition_links:
        for m in d.members:
            if not plan.reaches(d.begin, m):
                issues.append(f"member {m} not after begin {d.begin}")
            if not plan.reaches(m, d.end):
                issues.append(f"member {m} not before end {d.end}")
        parent = plan.step(d.parent)
        if plan.step(d.end).preconditions != parent.effects:
            issues.append(f"end {d.end} does not copy the effects of parent {d.parent}")
        if plan.step(d.begin).effects != parent.preconditions:
            issues.append(f"begin {d.begin} does not copy the preconditions of parent {d.parent}")
        # Threats derive across an expansion only if it moved every pair on
        # the parent onto the parent's boundaries.
        own = {(d.begin, d.parent), (d.parent, d.end)}
        for pair in sorted(plan.orderings - own):
            if d.parent in pair:
                issues.append(f"ordering {pair} names expanded parent {d.parent}")
    opens, unexpanded = scan_flaws(plan)
    agenda = set(plan.flaws)
    if agenda != opens | unexpanded:
        issues.append("flaw agenda differs from from-scratch scan")
    if plan._index != {s.sid: s for s in plan.steps}:
        issues.append("step index differs from the steps")
    if plan._reach != reference_closure(plan.steps, plan.orderings):
        issues.append("ordering closure differs from from-scratch closure")
    if detect_threats(plan) != [t for threats in _scan_threats(plan) for t in threats]:
        issues.append("threats differ from from-scratch scan")
    return issues


def flat_step(sid, name="act", pre=(), eff=(), kind=KIND_PRIMITIVE):
    return Step(sid, name, (), tuple(pre), tuple(eff), kind)


def boundary_steps(init_effects=(), final_pre=()):
    return (
        Step(0, "initial", (), (), tuple(init_effects), KIND_INITIAL),
        Step(1, "final", (), tuple(final_pre), (), KIND_FINAL),
    )


def step_leftmost(domain, problem, config=None, stop=None, limit=300):
    """Walk the leftmost search branch; return (visited plans, all successor lists).

    Successors come from `successors`, as in `solve`, so the depth bound of
    `config` applies; the step bound is applied here, as `solve` applies it.

    When `stop` is given, halt as soon as stop(plan, flaw) is true and return
    (plan, flaw) instead.
    """
    config = config or SearchConfig()
    plan = init_plan(problem)
    visited = [plan]
    successor_sets = []
    for _ in range(limit):
        threats = detect_threats(plan)
        flaw = _select_flaw(plan, threats, config.flaw_policy)
        if stop is not None and stop(plan, flaw):
            return plan, flaw
        if flaw is None:
            break
        succ = [
            p
            for p in successors(plan, flaw, domain, problem.facts, config)
            if len(p.steps) <= config.max_steps
        ]
        successor_sets.append((plan, flaw, succ))
        if not succ:
            break
        plan = succ[0]
        visited.append(plan)
    if stop is not None:
        raise AssertionError("stop condition never reached")
    return visited, successor_sets


def marks_domain() -> Domain:
    """One lifted operator with a delete effect; exercises separation."""
    x = Variable("x")
    return Domain(
        name="marks",
        predicates={"clean": 1, "marked": 1, "blank": 1},
        operators=(
            ActionOperator(
                "smudge",
                (x,),
                (lit("blank", x),),
                (lit("marked", x), lit("clean", x, positive=False)),
            ),
        ),
    )


def marks_problem() -> Problem:
    a, b = Constant("a"), Constant("b")
    return Problem(
        "marked-but-clean",
        "marks",
        init=(lit("clean", a), lit("blank", b), lit("blank", a)),
        goals=(lit("marked", Variable("y")), lit("clean", a)),
    )


_LINK_DOMAIN = """
(domain links
  (predicates (obj 1) (linked 2) (paired 2))
  (action (header (link ?x ?y))
    (pre (obj ?x) (obj ?y))
    (eff (linked ?x ?y))
    {bindings})
  (action (header (mark ?x ?y))
    (pre (linked ?x ?y))
    (eff (paired ?x ?y)))
  (action (header (pair ?x ?y)) (composite)
    (pre)
    (eff (paired ?x ?y)))
  (decomposition (header (pair ?x ?y))
    (steps (s (link ?x ?y)) (m (mark ?x ?y)))
    (links (s (linked ?x ?y) m) (m (paired ?x ?y) final))))
"""


def link_world(bindings, init, goal):
    """The links domain with `bindings` as `link`'s bindings clause (may be
    empty), and a problem with the given init and goal literal texts."""
    domain, diags = parse_domain(_LINK_DOMAIN.format(bindings=bindings), "links.dpd")
    assert domain is not None, diags
    problem, diags = parse_problem(
        f"(problem p (domain links) (init {init}) (goal {goal}))", "p.dpp"
    )
    assert problem is not None, diags
    return domain, problem
