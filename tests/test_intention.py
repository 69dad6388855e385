"""Intended-effect classification against the recursive reference reading."""
import pytest

import discoplan.intention
from discoplan.intention import classify_effects
from discoplan.model import Problem
from discoplan.plan import CausalLink
from discoplan.search import SearchConfig, Solution, solve
from discoplan.terms import Constant
from _oracles import recursive_intended
from _worlds import lit, load_domain, load_problem, marks_domain, marks_problem

L = Constant("l")


def _solve(dname, pname):
    out = solve(load_domain(dname), load_problem(pname))
    assert isinstance(out, Solution)
    return out.plan


def test_decomposition_extras_are_side_effects():
    # The two subplan steps each assert one condition used nowhere; exactly
    # those two conditions come out as side effects of the decomposition.
    plan = _solve("sidefx.dpd", "sidefx.dpp")
    report = classify_effects(plan)
    side = {
        (plan.step(l.step).name, str(l.effect))
        for l in report.labels
        if not l.intended
    }
    assert side == {("show-chart", "(bored)"), ("give-punchline", "(tired)")}
    intended = {
        (plan.step(l.step).name, str(l.effect)) for l in report.labels if l.intended
    }
    assert ("present", "(informed)") in intended
    assert ("present", "(entertained)") in intended
    assert ("tell-story", "(curious)") in intended
    assert ("tell-story", "(amused)") in intended


def test_single_step_plan_effect_is_intended():
    domain = load_domain("switches.dpd")
    problem = Problem("t", "switches", init=(lit("off", L),), goals=(lit("on", L),))
    out = solve(domain, problem)
    plan = out.plan
    report = classify_effects(plan)
    (step,) = [s for s in plan.steps if s.name == "turn-on"]
    on_label = next(
        l for l in report.labels if l.step == step.sid and l.effect == lit("on", L)
    )
    assert on_label.intended
    assert on_label.chain[0].consumer == plan.final.sid


def test_classification_requires_flawless_plan():
    domain = load_domain("switches.dpd")
    problem = Problem("t", "switches", init=(lit("off", L),), goals=(lit("on", L),))
    from discoplan.plan import init_plan

    with pytest.raises(ValueError):
        classify_effects(init_plan(problem))


def _suite_plans():
    cases = [
        ("discourse.dpd", "lucentio.dpp", None),
        ("discourse.dpd", "multirole.dpp", None),
        ("sidefx.dpd", "sidefx.dpp", None),
        ("switches.dpd", "switches-demo.dpp", None),
        ("discourse.dpd", "multirole.dpp", SearchConfig(reuse_policy="prefer-new")),
    ]
    for dname, pname, config in cases:
        out = solve(load_domain(dname), load_problem(pname), config)
        assert isinstance(out, Solution)
        yield out.plan
    out = solve(marks_domain(), marks_problem())
    assert isinstance(out, Solution)
    yield out.plan


def test_labels_match_recursive_reference_on_all_suite_solutions():
    for plan in _suite_plans():
        report = classify_effects(plan)
        want = recursive_intended(plan)
        got = {(l.step, l.effect_index): l.intended for l in report.labels}
        assert got == want


def test_partition_covers_every_effect_exactly_once():
    for plan in _suite_plans():
        report = classify_effects(plan)
        pairs = [(l.step, l.effect_index) for l in report.labels]
        assert len(pairs) == len(set(pairs))
        want = {(s.sid, i) for s in plan.steps for i in range(len(s.effects))}
        assert set(pairs) == want
        intended = {(l.step, l.effect_index) for l in report.labels if l.intended}
        side = {(l.step, l.effect_index) for l in report.labels if not l.intended}
        assert intended | side == want
        assert not (intended & side)


def test_chains_end_at_the_top_level_final_step():
    for plan in _suite_plans():
        report = classify_effects(plan)
        for l in report.labels:
            if not l.intended:
                assert l.chain is None
                continue
            last = l.chain[-1]
            assert last.consumer == plan.final.sid
            # every causal hop is a real link of the plan
            for hop in l.chain:
                if hasattr(hop, "producer"):
                    assert CausalLink(hop.producer, hop.condition, hop.consumer) in plan.causal_links


def test_adding_a_goal_link_flips_a_side_effect():
    plan = _solve("sidefx.dpd", "sidefx.dpp")
    report = classify_effects(plan)
    flippable = [l for l in report.labels if not l.intended]
    for label in flippable:
        step = plan.step(label.step)
        effect = step.effects[label.effect_index]
        boosted = plan.evolve(
            causal_links=plan.causal_links + (CausalLink(label.step, effect, plan.final.sid),)
        )
        after = classify_effects(boosted)
        (relabeled,) = [
            l for l in after.labels if (l.step, l.effect_index) == (label.step, label.effect_index)
        ]
        assert relabeled.intended


def test_classification_applies_each_literal_object_once(monkeypatch):
    plan = _solve("discourse.dpd", "multirole.dpp")
    conditions = {id(l.condition) for l in plan.causal_links}
    applied = []
    apply = discoplan.intention.apply

    def counted(bindings, literal):
        applied.append(id(literal))
        return apply(bindings, literal)

    monkeypatch.setattr(discoplan.intention, "apply", counted)
    labels = classify_effects(plan).labels
    # Some link conditions are effects too: an end step's preconditions are
    # its parent's effect objects.
    assert len(applied) == len(set(applied))
    assert conditions <= set(applied)
    monkeypatch.undo()
    assert labels == classify_effects(plan).labels
