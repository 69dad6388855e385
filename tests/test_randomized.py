"""Randomized cross-checks: bounded search against brute force, audits on every win,
the reachability prune against the unpruned search, and the search against
one that builds every successor list up front.

Domains are generated with delete effects and lifted parameters so threat
resolution and separation get real exercise. Bounds are matched: a plan of
at most five steps holds at most three primitives, the brute-force horizon.
"""
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from discoplan import search as search_module
from discoplan.emit import plan_to_dict, plan_view_from_dict
from discoplan.language import parse_domain, parse_problem
from discoplan.model import ActionOperator, Domain, Problem, validate_domain, validate_problem
from discoplan.oracle import verify_soundness
from discoplan.search import BudgetExceeded, SearchConfig, Solution, solve
from discoplan.terms import Constant, Literal, Variable, variables_in
from _oracles import brute_force, eager_solve
from _worlds import load_domain, load_problem
from test_golden import CONFIGS, PAIRS

CONSTS = [Constant("a"), Constant("b")]
PREDS = [("p", 1), ("q", 1), ("r", 0)]


def _literal(rng, var, positive_only=False):
    name, arity = rng.choice(PREDS)
    pool = CONSTS + ([var] if var is not None else [])
    args = tuple(rng.choice(pool) for _ in range(arity))
    positive = True if positive_only else rng.random() < 0.6
    return Literal(name, args, positive)


def _operator(rng, k):
    var = Variable("x") if rng.random() < 0.6 else None
    params = (var,) if var is not None else ()
    pre = tuple(_literal(rng, var) for _ in range(rng.randrange(0, 3)))
    eff = tuple(dict.fromkeys(_literal(rng, var) for _ in range(rng.randrange(1, 3))))
    atoms = {}
    for e in eff:
        key = (e.predicate, e.args)
        if key in atoms and atoms[key] != e.positive:
            return None  # contradictory effect pair
        atoms[key] = e.positive
    if any(variables_in(l) for l in pre + eff) and var is None:
        return None
    return ActionOperator(f"op{k}", params, pre, eff)


def _domain(rng, i):
    ops = [op for k in range(rng.randrange(2, 4)) if (op := _operator(rng, k))]
    if not ops:
        return None
    return Domain(f"rd{i}", dict(PREDS), {}, tuple(ops))


def _problem(rng, domain):
    init = tuple(
        dict.fromkeys(_literal(rng, None, positive_only=True) for _ in range(rng.randrange(0, 3)))
    )
    goals = tuple(dict.fromkeys(_literal(rng, None) for _ in range(rng.randrange(1, 3))))
    return Problem("rp", domain.name, init=init, goals=goals)


def _cases(rng, count=150):
    """The first `count` valid (domain, problem) pairs drawn from `rng`."""
    checked = 0
    while checked < count:
        domain = _domain(rng, checked)
        if domain is None or validate_domain(domain):
            continue
        problem = _problem(rng, domain)
        if validate_problem(domain, problem):
            continue
        checked += 1
        yield domain, problem


def test_random_domains_agree_with_brute_force_and_audit_clean():
    config = SearchConfig(max_steps=5, max_nodes=30_000)
    solved = 0
    for domain, problem in _cases(random.Random(2024)):
        sequences = brute_force(domain, problem, 3)
        outcome = solve(domain, problem, config)
        assert not isinstance(outcome, BudgetExceeded)
        found = isinstance(outcome, Solution)
        assert found == bool(sequences), (
            [str(g) for g in problem.goals],
            [str(x) for x in problem.init],
            [(op.name, [str(p) for p in op.preconditions], [str(e) for e in op.effects])
             for op in domain.operators],
        )
        if found:
            solved += 1
            report = verify_soundness(outcome.plan, problem)
            assert report.ok, report.violations
            # The emitted plan file must audit exactly as the live plan does.
            reloaded = verify_soundness(plan_view_from_dict(plan_to_dict(outcome.plan)), problem)
            assert (reloaded.violations, reloaded.linearizations_checked) == (
                report.violations, report.linearizations_checked)
    assert solved >= 30  # the generator must produce a real mix


def test_generated_domains_do_not_depend_on_string_hashing():
    # Effects, init and goals keep the order they were drawn in, so every
    # process checks the same domains whatever its string hash seed.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = "import random, test_randomized as t; print(list(t._cases(random.Random(2024))))"
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] and outputs[0] == outputs[1]


def _everything_reachable(domain, init):
    return set(domain.predicates), {op.name for op in domain.operators}


def _solved(case):
    """(outcome kind, plan file of a solution, goals proven unreachable) of one solve."""
    out = solve(*case)
    plan = plan_to_dict(out.plan) if isinstance(out, Solution) else None
    return type(out).__name__, plan, getattr(out, "unreachable", ())


def test_the_reachability_prune_changes_no_outcome_or_plan(monkeypatch):
    # Each case is solved with the relaxed-reachability prune, and again with
    # every predicate and operator called reachable. Wherever the unpruned
    # run ends within its budget, both give the same outcome and plan file.
    random_config = SearchConfig(max_steps=5, max_nodes=30_000)
    cases = [
        (domain, problem, random_config)
        for seed in range(1, 41)
        for domain, problem in _cases(random.Random(seed))
    ]
    # Every corpus configuration that solves at all does so within 13 nodes;
    # the two that spend any budget are compared on nothing.
    cases += [
        (load_domain(f"{d}.dpd"), load_problem(f"{p}.dpp"),
         SearchConfig(flaw_policy=flaw, reuse_policy=reuse, max_nodes=300))
        for d, p, flaw, reuse in CONFIGS
    ]
    pruned = [_solved(case) for case in cases]
    monkeypatch.setattr(search_module, "_relaxed_reachable", _everything_reachable)
    for case, got in zip(cases, pruned):
        kind, plan, unreachable = _solved(case)
        assert unreachable == ()
        if kind != "BudgetExceeded":
            assert got[:2] == (kind, plan)
    # A goal proven unreachable has no plan, and the proof is not vacuous.
    root_pruned = [case for case, got in zip(cases, pruned) if got[2]]
    assert len(root_pruned) > 1000
    for domain, problem, _ in root_pruned:
        assert brute_force(domain, problem, 3) == []


def _outcome(out):
    """(outcome kind, stats, step-bound drops, plan file of a solution)."""
    plan = plan_to_dict(out.plan) if isinstance(out, Solution) else None
    return type(out).__name__, out.stats, getattr(out, "over_max_steps", None), plan


def test_the_search_ends_as_the_eager_search_does():
    # Bounds small enough that budgets run out with successors over the
    # step bound still unbuilt on the stack, and that searches exhaust.
    cases = [
        (domain, problem, SearchConfig(max_nodes=3, max_steps=4))
        for seed in range(1, 11)
        for domain, problem in _cases(random.Random(seed))
    ]
    cases += [
        (load_domain(f"{d}.dpd"), load_problem(f"{p}.dpp"),
         SearchConfig(flaw_policy=flaw, reuse_policy=reuse, max_nodes=50, max_steps=10))
        for d, p, flaw, reuse in CONFIGS
    ]
    # The root has two steps: a bound of one drops every child, never it.
    cases += [
        (load_domain(f"{d}.dpd"), load_problem(f"{p}.dpp"), SearchConfig(max_steps=1))
        for d, p in PAIRS
    ]
    kinds = Counter()
    for case in cases:
        got = _outcome(solve(*case))
        assert got == _outcome(eager_solve(*case))
        kinds[got[0], bool(got[2])] += 1
    assert kinds["BudgetExceeded", True] > 1 and kinds["Exhausted", True] > 1
    assert kinds["Solution", False] > 500
    # Three of multirole's twelve drops sit among successors not yet taken
    # when its 50-node budget runs out.
    config = SearchConfig(flaw_policy="fifo", reuse_policy="prefer-reuse", max_nodes=50, max_steps=10)
    out = solve(load_domain("discourse.dpd"), load_problem("multirole.dpp"), config)
    assert out.over_max_steps == 12


HIERARCHY = """
(domain hierarchy
  (predicates (have 0) (missing 0) (done 0))
  (action (header (top)) (composite) (pre) (eff (done)))
  (action (header (blocked)) (pre (missing)) (eff (done)))
  (action (header (direct)) (pre (have)) (eff (done)))
  (decomposition (header (top))
    (steps (s1 (blocked)))
    (links (s1 (done) final))))
"""


def test_a_composite_whose_only_schema_is_unreachable_is_not_searched(monkeypatch):
    domain, diags = parse_domain(HIERARCHY, "hierarchy")
    assert domain is not None, diags
    problem, diags = parse_problem("(problem h (domain hierarchy) (init (have)) (goal (done)))", "h")
    assert problem is not None, diags
    # `blocked` needs `missing`, which nothing adds, so `top`'s only schema
    # cannot be realized: only the primitive route is searched.
    assert search_module._relaxed_reachable(domain, problem.init) == (
        {"have", "done"}, {"direct"})
    config = SearchConfig()
    got = solve(domain, problem, config)
    monkeypatch.setattr(search_module, "_relaxed_reachable", _everything_reachable)
    reference = solve(domain, problem, config)
    assert isinstance(got, Solution) and isinstance(reference, Solution)
    assert [s.name for s in got.plan.steps] == ["initial", "final", "direct"]
    assert plan_to_dict(got.plan) == plan_to_dict(reference.plan)
    assert got.stats.nodes_expanded < reference.stats.nodes_expanded
