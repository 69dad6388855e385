"""Acceptance criteria. Each test prints one PASS/FAIL line for its criterion."""
import itertools
import time
from contextlib import contextmanager

import pytest

from discoplan.cli import cli_main
from discoplan.emit import plan_to_dict, plan_view_from_dict
from discoplan.intention import classify_effects
from discoplan.language import parse_domain, parse_problem, serialize_domain, serialize_problem
from discoplan.model import Problem
from discoplan.oracle import verify_soundness
from discoplan.search import SearchConfig, Solution, solve
from discoplan.terms import Compound, Constant, Literal, apply
from _oracles import brute_force, recursive_intended
from _worlds import CORPUS, DEEP_TEXTS, fuzz_texts, lit, load_domain, load_problem

A, B, C = Constant("a"), Constant("b"), Constant("c")
L = Constant("l")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def _switch_suite_problems():
    """Every init of three switches against every consistent on/off goal."""
    domain = load_domain("switches.dpd")
    problems = []
    switches = [A, B, C]
    for init_bits in itertools.product((True, False), repeat=3):
        init = tuple(
            lit("on", s) if bit else lit("off", s) for s, bit in zip(switches, init_bits)
        )
        for wants in itertools.product((None, True, False), repeat=3):
            goal = tuple(
                lit("on", s) if want else lit("off", s)
                for s, want in zip(switches, wants)
                if want is not None
            )
            if not goal:
                continue
            name = "sw-" + "".join("10"[not b] for b in init_bits) + "-" + "".join(
                "x" if w is None else ("1" if w else "0") for w in wants
            )
            problems.append((domain, Problem(name, "switches", init=init, goals=goal)))
    return problems


def _toggle_solvable_problems():
    domain = load_domain("toggle.dpd")
    atoms = ["p", "q", "r"]
    problems = []
    for n in range(1, 4):
        for combo in itertools.combinations(
            [lit(a) for a in atoms] + [lit(a, positive=False) for a in atoms], n
        ):
            preds = [l.predicate for l in combo]
            if len(set(preds)) != len(preds):
                continue
            problem = Problem("tg", "toggle", init=(lit("p"),), goals=tuple(combo))
            if brute_force(domain, problem, 4):
                problems.append((domain, problem))
    return problems


@pytest.fixture(scope="module")
def suite_solutions():
    """Solved and audited problem suite reused across criteria 2 and 5."""
    cases = _switch_suite_problems() + _toggle_solvable_problems()
    cases.append((load_domain("discourse.dpd"), load_problem("lucentio.dpp")))
    cases.append((load_domain("discourse.dpd"), load_problem("multirole.dpp")))
    cases.append((load_domain("sidefx.dpd"), load_problem("sidefx.dpp")))
    solutions = []
    started = time.perf_counter()
    for domain, problem in cases:
        outcome = solve(domain, problem)
        solutions.append((domain, problem, outcome))
    elapsed = time.perf_counter() - started
    return solutions, elapsed


def test_criterion_1_supported_belief_plan_structure():
    with criterion(1, "discourse plan reproduces the supported-belief subplan"):
        domain = load_domain("discourse.dpd")
        problem = load_problem("lucentio.dpp")
        started = time.perf_counter()
        outcome = solve(domain, problem)
        elapsed = time.perf_counter() - started
        assert isinstance(outcome, Solution)
        assert elapsed < 1.0
        assert outcome.stats.nodes_expanded < 10_000
        plan = outcome.plan
        supports = [s for s in plan.steps if s.name == "support"]
        assert len(supports) == 1
        (deco,) = plan.decomposition_links
        assert deco.parent == supports[0].sid
        fairest = Compound("fairest", (L, B))
        modeled = Compound("modeled", (L, B))
        causes = Compound("causes", (fairest, modeled))

        def sig(sid):
            s = plan.step(sid)
            args = tuple(
                str(apply(plan.bindings, Literal("x", (a,))).args[0]) for a in s.params
            )
            return (s.name, args)

        assert sorted(sig(m) for m in deco.members) == sorted(
            [
                ("cause-to-believe", (str(fairest),)),
                ("cause-to-believe", (str(causes),)),
                ("combine-belief", (str(fairest), str(modeled))),
            ]
        )
        boundary_kinds = {plan.step(deco.begin).kind, plan.step(deco.end).kind}
        assert boundary_kinds == {"begin-subplan", "end-subplan"}
        assert any(l.consumer == deco.end for l in plan.causal_links)


def test_criterion_2_soundness_suite(suite_solutions):
    with criterion(2, "every suite solution passes the soundness audit"):
        solutions, solve_elapsed = suite_solutions
        started = time.perf_counter()
        checked = 0
        failures = []
        for domain, problem, outcome in solutions:
            if not isinstance(outcome, Solution):
                failures.append((problem.name, "no solution"))
                continue
            report = verify_soundness(outcome.plan, problem)
            reloaded = verify_soundness(plan_view_from_dict(plan_to_dict(outcome.plan)), problem)
            assert (reloaded.violations, reloaded.linearizations_checked) == (
                report.violations, report.linearizations_checked), problem.name
            checked += 1
            if not report.ok:
                failures.append((problem.name, report.violations))
        audit_elapsed = time.perf_counter() - started
        assert checked >= 100
        assert failures == []
        assert solve_elapsed + audit_elapsed < 60.0


def test_criterion_3_desk_scale_completeness():
    with criterion(3, "bounded search agrees with brute force on every toggle goal"):
        domain = load_domain("toggle.dpd")
        atoms = ["p", "q", "r"]
        literals = [lit(a) for a in atoms] + [lit(a, positive=False) for a in atoms]
        config = SearchConfig(max_steps=8, max_nodes=100_000)
        disagreements = []
        cases = 0
        for n in range(0, 4):
            for combo in itertools.combinations(literals, n):
                preds = [l.predicate for l in combo]
                if len(set(preds)) != len(preds):
                    continue
                problem = Problem("tg", "toggle", init=(lit("p"),), goals=tuple(combo))
                sequences = brute_force(domain, problem, 4)
                outcome = solve(domain, problem, config)
                cases += 1
                if isinstance(outcome, Solution) != bool(sequences):
                    disagreements.append(
                        ([str(l) for l in combo], type(outcome).__name__, len(sequences))
                    )
        assert cases == 27
        assert disagreements == []


def test_criterion_4_dag_plans_share_a_step():
    with criterion(4, "multi-role problem yields a DAG plan, smaller than the tree run"):
        domain = load_domain("discourse.dpd")
        problem = load_problem("multirole.dpp")
        shared = solve(domain, problem)
        assert isinstance(shared, Solution)
        links = shared.plan.decomposition_links
        assert len(links) == 2
        overlaps = set(links[0].members) & set(links[1].members)
        assert overlaps, "no step is a member of two decomposition links"
        tree = solve(domain, problem, SearchConfig(reuse_policy="prefer-new"))
        assert isinstance(tree, Solution)

        def ctb_count(plan):
            return sum(1 for s in plan.steps if s.name == "cause-to-believe")

        assert ctb_count(shared.plan) < ctb_count(tree.plan)
        tree_overlaps = set(tree.plan.decomposition_links[0].members) & set(
            tree.plan.decomposition_links[1].members
        )
        assert not tree_overlaps


def test_criterion_5_intention_classification(suite_solutions):
    with criterion(5, "side effects match the schematic scenario and the recursive oracle"):
        domain = load_domain("sidefx.dpd")
        problem = load_problem("sidefx.dpp")
        outcome = solve(domain, problem)
        assert isinstance(outcome, Solution)
        plan = outcome.plan
        report = classify_effects(plan)
        side = {
            (plan.step(l.step).name, str(l.effect))
            for l in report.labels
            if not l.intended
        }
        assert side == {("show-chart", "(bored)"), ("give-punchline", "(tired)")}

        solutions, _ = suite_solutions
        mismatches = 0
        for _, _, out in solutions:
            if not isinstance(out, Solution):
                continue
            got = {
                (l.step, l.effect_index): l.intended
                for l in classify_effects(out.plan).labels
            }
            if got != recursive_intended(out.plan):
                mismatches += 1
        assert mismatches == 0


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "identical runs produce byte-identical plan files"):
        out_a = tmp_path / "a.plan.json"
        out_b = tmp_path / "b.plan.json"
        argv = [
            "plan",
            "--domain", str(CORPUS / "discourse.dpd"),
            "--problem", str(CORPUS / "multirole.dpp"),
        ]
        assert cli_main(argv + ["--out", str(out_a)]) == 0
        assert cli_main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


def test_criterion_7_parser_robustness():
    with criterion(7, "fuzzed inputs never crash and the corpus round-trips"):
        for text in DEEP_TEXTS:
            domain, diags = parse_domain(text)
            assert domain is not None or diags
        for text in fuzz_texts():
            domain, diags = parse_domain(text)
            assert domain is not None or diags
            problem, pdiags = parse_problem(text)
            assert problem is not None or pdiags
        for name in ("discourse.dpd", "separation.dpd", "sidefx.dpd", "switches.dpd",
                     "toggle.dpd"):
            domain = load_domain(name)
            reparsed, diags = parse_domain(serialize_domain(domain))
            assert diags == [] and reparsed == domain
        for name in ("lucentio.dpp", "multirole.dpp", "separation.dpp", "sidefx.dpp",
                     "switches-demo.dpp"):
            problem = load_problem(name)
            reparsed, diags = parse_problem(serialize_problem(problem))
            assert diags == [] and reparsed == problem
