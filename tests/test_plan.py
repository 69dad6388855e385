"""Plan structure: orderings, threats, flaw agenda."""
import gc
import itertools
import random
import weakref
from dataclasses import replace

import pytest

from discoplan import plan as plan_module
from discoplan.plan import (
    KIND_BEGIN,
    KIND_END,
    KIND_INITIAL,
    KIND_PRIMITIVE,
    CausalLink,
    DecompositionLink,
    OpenCondition,
    Step,
    Threat,
    add_ordering,
    detect_threats,
    init_plan,
)
from discoplan.model import Problem, establishments, kb_satisfy
from discoplan.terms import Compound, Constant, EMPTY_BINDINGS, Variable, unify_terms
from _oracles import (
    brute_force_threats,
    conflict_by_enumeration,
    floyd_warshall,
)
from _worlds import boundary_steps, check_invariants, flat_step, lit, make_plan, scan_flaws

L, B = Constant("l"), Constant("b")
MODELED = Compound("modeled", (L, B))


def test_init_plan_has_two_steps_and_the_goal_open():
    problem = Problem("p", "d", goals=(lit("bel", MODELED),))
    plan = init_plan(problem)
    assert len(plan.steps) == 2
    assert plan.initial.kind == "initial" and not plan.initial.preconditions
    assert plan.final.kind == "final" and not plan.final.effects
    assert len(plan.flaws) == 1
    assert isinstance(plan.flaws[0], OpenCondition)


def test_init_plan_empty_goals_is_flawless():
    plan = init_plan(Problem("p", "d"))
    assert plan.flaws == ()
    assert not detect_threats(plan)


def test_establishments_yield_each_unifying_effect_in_declaration_order():
    x, c = Variable("x", 2), Constant("c")
    producer = flat_step(2, eff=(lit("p", x), lit("p", c), lit("q", c)))
    first, second = establishments(EMPTY_BINDINGS, producer.effects, lit("p", c), False)
    assert first.resolve(x) == c
    assert second.resolve(x) == x


CLOSED_WORLD_CASES = [
    (KIND_INITIAL, ("q",), lit("p", Variable("x", 1), positive=False), True),
    (KIND_INITIAL, ("p",), lit("p", Variable("x", 1), positive=False), False),
    (KIND_INITIAL, ("p",), lit("p", B, positive=False), True),
    (KIND_INITIAL, ("q",), lit("p", L), False),
    (KIND_PRIMITIVE, ("q",), lit("p", Variable("x", 1), positive=False), False),
]


@pytest.mark.parametrize("kind, init, condition, supported", CLOSED_WORLD_CASES)
def test_establishments_support_by_closed_world(kind, init, condition, supported):
    # Closed-world support: the initial step, a negative condition, and no
    # initial atom that unifies with the condition's atom.
    producer = flat_step(0, eff=tuple(lit(name, L) for name in init), kind=kind)
    got = list(establishments(EMPTY_BINDINGS, producer.effects, condition, kind == KIND_INITIAL))
    assert got == ([EMPTY_BINDINGS] if supported else [])


@pytest.mark.parametrize(
    "init, condition",
    [(init, c) for kind, init, c, _ in CLOSED_WORLD_CASES if kind == KIND_INITIAL],
)
def test_initial_step_support_and_kb_matching_agree(init, condition):
    # The same literals as the initial step's effects and as the facts: the
    # causal refiner and the kb matcher decide support alike. The lifted
    # negative case pins agreement only; ROADMAP item 1 questions its outcome.
    initial = init_plan(Problem("p", "d", init=tuple(lit(name, L) for name in init))).initial
    closed_world = initial.kind == KIND_INITIAL
    by_step = list(establishments(EMPTY_BINDINGS, initial.effects, condition, closed_world))
    by_kb = list(kb_satisfy(initial.effects, [condition], EMPTY_BINDINGS))
    assert by_step == by_kb


def test_init_plan_agenda_matches_scan():
    problem = Problem("p", "d", init=(lit("q", L),), goals=(lit("bel", MODELED), lit("q", L)))
    plan = init_plan(problem)
    opens, unexpanded = scan_flaws(plan)
    assert set(plan.flaws) == opens | unexpanded


def _chain_plan():
    steps = boundary_steps() + (flat_step(2, "a"), flat_step(3, "b"), flat_step(4, "c"))
    orderings = {(0, 2), (0, 3), (0, 4), (2, 1), (3, 1), (4, 1), (2, 3)}
    return make_plan(steps, orderings)


# Two unary predicates and a 0-ary one, so the threat scan's signature
# filter both admits and rejects steps.
ARITY = {"on": 1, "at": 1, "ready": 0}


def _random_flat_literal(rng, terms, positive=True):
    predicate = rng.choice(sorted(ARITY))
    return lit(predicate, *(rng.choice(terms) for _ in range(ARITY[predicate])), positive=positive)


def _random_flat_plan(rng, n_mid=5):
    mids = []
    for i in range(2, 2 + n_mid):
        effs = tuple(
            _random_flat_literal(rng, [L, B, Variable("v", i)], positive=rng.random() < 0.6)
            for _ in range(rng.randrange(1, 3))
        )
        mids.append(flat_step(i, f"s{i}", eff=effs))
    steps = boundary_steps() + tuple(mids)
    orderings = {(0, s.sid) for s in mids} | {(s.sid, 1) for s in mids}
    for a, b in itertools.combinations([s.sid for s in mids], 2):
        if rng.random() < 0.3:
            orderings.add((a, b))
    links = []
    pairs = [(a, b) for a in [s.sid for s in mids] for b in [s.sid for s in mids] if (a, b) in orderings]
    for a, b in pairs:
        if rng.random() < 0.5:
            links.append(CausalLink(a, _random_flat_literal(rng, [L, B]), b))
    return make_plan(steps, orderings, links)


def test_detect_threats_unordered_deleter():
    steps = boundary_steps() + (
        flat_step(2, "maker", eff=(lit("bel", L),)),
        flat_step(3, "user", pre=(lit("bel", L),)),
        flat_step(4, "wrecker", eff=(lit("bel", L, positive=False),)),
    )
    orderings = {(0, s, ) and (0, s) for s in (2, 3, 4)} | {(s, 1) for s in (2, 3, 4)} | {(2, 3)}
    link = CausalLink(2, lit("bel", L), 3)
    plan = make_plan(steps, orderings, (link,))
    threats = detect_threats(plan)
    assert [(t.step, t.link) for t in threats] == [(4, link)]


def test_detect_threats_gone_when_ordered_after_consumer():
    steps = boundary_steps() + (
        flat_step(2, "maker", eff=(lit("bel", L),)),
        flat_step(3, "user", pre=(lit("bel", L),)),
        flat_step(4, "wrecker", eff=(lit("bel", L, positive=False),)),
    )
    orderings = {(0, s) for s in (2, 3, 4)} | {(s, 1) for s in (2, 3, 4)} | {(2, 3), (3, 4)}
    plan = make_plan(steps, orderings, (CausalLink(2, lit("bel", L), 3),))
    assert detect_threats(plan) == []


def test_detect_threats_matches_brute_force_on_random_plans():
    rng = random.Random(17)
    for _ in range(60):
        plan = _random_flat_plan(rng, n_mid=4)
        got = [(t.step, t.link) for t in detect_threats(plan)]
        assert got == brute_force_threats(plan)


def test_threat_conflict_test_matches_ground_enumeration():
    # possible-unification semantics equals existence of a conflicting
    # ground completion, checked over a small constant universe
    rng = random.Random(29)
    constants = [L, B, Constant("c")]
    for _ in range(200):
        x = Variable("x", rng.randrange(3))
        e_args = (rng.choice(constants + [x]),)
        c_args = (rng.choice(constants + [Variable("y", rng.randrange(3))]),)
        effect = lit("on", *e_args, positive=rng.random() < 0.5)
        condition = lit("on", *c_args, positive=rng.random() < 0.5)
        from discoplan.terms import unify

        got = unify(effect, condition.negate(), EMPTY_BINDINGS) is not None
        want = conflict_by_enumeration(effect, condition, EMPTY_BINDINGS, constants)
        assert got == want


def test_add_ordering_cycle_fails():
    plan = _chain_plan()
    plan2 = add_ordering(plan, 3, 4)
    assert plan2 is not None
    assert add_ordering(plan2, 4, 3) is None
    assert add_ordering(plan2, 3, 3) is None


def test_add_ordering_enables_betweenness():
    plan = _chain_plan()
    plan2 = add_ordering(plan, 2, 4)
    plan3 = add_ordering(plan2, 4, 3)
    assert plan3.reaches(2, 4) and plan3.reaches(4, 3)
    assert not plan3.reaches(4, 2) and not plan3.reaches(3, 4)


def test_transitive_closure_matches_floyd_warshall():
    rng = random.Random(5)
    for _ in range(50):
        plan = _random_flat_plan(rng)
        sids = [s.sid for s in plan.steps]
        want = floyd_warshall(sids, plan.orderings)
        for a in sids:
            for b in sids:
                assert plan.reaches(a, b) == want[(a, b)]


def test_invariant_checker_accepts_healthy_plan():
    plan = _chain_plan()
    link = CausalLink(2, lit("on", L), 3)
    steps = list(plan.steps)
    steps[2] = flat_step(2, "a", eff=(lit("on", L),))
    steps[3] = flat_step(3, "b", pre=(lit("on", L),))
    healthy = make_plan(tuple(steps), plan.orderings, (link,))
    assert check_invariants(healthy) == []


def test_evolve_reuses_the_closure_only_while_steps_and_orderings_stay():
    plan = init_plan(Problem("p", "d", goals=(lit("bel", MODELED),)))
    same = plan.evolve(flaws=(), next_iid=9)
    assert same._index is plan._index and same._reach is plan._reach
    assert same == replace(plan, flaws=(), next_iid=9)
    grown = plan.evolve(
        steps=plan.steps + (flat_step(2),), orderings=plan.orderings | {(0, 2), (2, 1)}
    )
    assert grown.reaches(0, 2) and grown.reaches(2, 1) and 2 not in plan._index
    # Dropping a step builds the child afresh, from an empty closure.
    pruned = grown.evolve(steps=plan.steps, orderings=plan.orderings)
    assert pruned == plan and pruned._reach == plan._reach and pruned._index == plan._index
    with pytest.raises(TypeError):
        plan.evolve(no_such_field=1)


def _deleter_plan(wrecker_after_user=False, deleted=L):
    """A link 2 -> 3 on (bel l) and a step 4 deleting (bel `deleted`),
    ordered after 3 or not."""
    steps = boundary_steps() + (
        flat_step(2, "maker", eff=(lit("bel", L),)),
        flat_step(3, "user", pre=(lit("bel", L),)),
        flat_step(4, "wrecker", eff=(lit("bel", deleted, positive=False),)),
    )
    orderings = {(0, s) for s in (2, 3, 4)} | {(s, 1) for s in (2, 3, 4)} | {(2, 3)}
    if wrecker_after_user:
        orderings.add((3, 4))
    return make_plan(steps, orderings, (CausalLink(2, lit("bel", L), 3),))


def test_maintained_threats_keep_link_then_step_order():
    plan = _deleter_plan()
    link = plan.causal_links[0]
    assert detect_threats(plan) == [Threat(4, link)]
    child = plan.evolve(
        steps=plan.steps + (flat_step(5, "wrecker", eff=(lit("bel", L, positive=False),)),),
        orderings=plan.orderings | {(0, 5), (5, 1)},
    )
    assert detect_threats(child) == [Threat(4, link), Threat(5, link)]
    assert check_invariants(child) == []


def test_a_kept_threat_is_retested_when_the_bindings_grow():
    v = Variable("v")
    plan = _deleter_plan(deleted=v)
    assert detect_threats(plan) == [Threat(4, plan.causal_links[0])]
    # Step 5's effect has no link's signature, so only the binding ?v = b
    # makes the child visit the link, and the kept threat no longer unifies.
    child = plan.evolve(
        steps=plan.steps + (flat_step(5, "bystander", eff=(lit("credible", L),)),),
        orderings=plan.orderings | {(0, 5), (5, 1)},
        bindings=unify_terms(v, B, plan.bindings),
    )
    assert child._base is plan
    assert detect_threats(child) == []
    assert check_invariants(child) == []


def test_a_fresh_step_is_tested_only_against_links_of_its_signature(monkeypatch):
    bel, credible = lit("bel", L), lit("credible", L)
    steps = boundary_steps() + (
        flat_step(2, "maker", eff=(bel, credible)),
        flat_step(3, "user", pre=(bel, credible)),
    )
    orderings = {(0, 2), (0, 3), (2, 3), (2, 1), (3, 1)}
    plan = make_plan(steps, orderings, (CausalLink(2, bel, 3), CausalLink(2, credible, 3)))
    assert detect_threats(plan) == []
    visited = []
    link_threats = plan_module._link_threats

    def recorded_link_threats(plan, link, *args):
        visited.append(link)
        return link_threats(plan, link, *args)

    monkeypatch.setattr(plan_module, "_link_threats", recorded_link_threats)
    doubter = flat_step(4, "doubter", eff=(credible.negate(),))
    child = plan.evolve(steps=plan.steps + (doubter,), orderings=plan.orderings | {(0, 4), (4, 1)})
    assert detect_threats(child) == [Threat(4, plan.causal_links[1])]
    assert visited == [plan.causal_links[1]]
    assert check_invariants(child) == []


def _expand_wrecker(plan, end_preconditions=None):
    """`plan` with step 4 expanded into boundary steps 5..6 and no members,
    its pairs moved onto them as an expansion moves them; the end step copies
    the wrecker's effects unless `end_preconditions`."""
    wrecker = plan.step(4)
    if end_preconditions is None:
        end_preconditions = wrecker.effects
    begin = Step(5, KIND_BEGIN, (), (), wrecker.preconditions, KIND_BEGIN)
    end = Step(6, KIND_END, (), tuple(end_preconditions), (), KIND_END)
    moved = {(a, 5) if b == 4 else (6, b) if a == 4 else (a, b) for a, b in plan.orderings}
    return plan.evolve(
        steps=plan.steps + (begin, end),
        orderings=frozenset(moved | {(5, 4), (4, 6)}),
        decomposition_links=plan.decomposition_links + (DecompositionLink(4, 5, 6, (), ()),),
        flaws=tuple(OpenCondition(6, p) for p in end.preconditions),
    )


@pytest.mark.parametrize("wrecker_after_user", [False, True])
def test_an_expansion_derives_its_threats_from_its_parent(wrecker_after_user):
    plan = _deleter_plan(wrecker_after_user)
    threats = [] if wrecker_after_user else [Threat(4, plan.causal_links[0])]
    assert detect_threats(plan) == threats
    # Step 4 now spans boundary steps 5..6, ordered as step 4 was, so its
    # threat is kept if it may fall between maker and user and none is added.
    child = _expand_wrecker(plan)
    assert child._base is plan
    assert (child.begin_of(4), child.end_of(4)) == (5, 6)
    assert detect_threats(child) == threats
    assert check_invariants(child) == []


def test_a_change_of_members_alone_keeps_the_maintained_threats():
    plan = _expand_wrecker(_deleter_plan())
    assert detect_threats(plan)
    (d,) = plan.decomposition_links
    child = plan.evolve(decomposition_links=(d._replace(members=(4,)),))
    assert child._base is plan
    assert detect_threats(child) == detect_threats(plan)
    assert check_invariants(child) == []


def test_invariants_flag_boundary_steps_that_do_not_copy_the_parent():
    plan = _deleter_plan(wrecker_after_user=True)
    assert check_invariants(_expand_wrecker(plan)) == []
    broken = _expand_wrecker(plan, end_preconditions=(lit("bel", L),))
    assert check_invariants(broken) == ["end 6 does not copy the effects of parent 4"]


def test_a_plan_drops_its_ancestor_once_its_threats_are_known():
    plan = _deleter_plan()
    assert detect_threats(plan)
    child = plan.evolve(orderings=plan.orderings | {(3, 4)})
    parent = weakref.ref(plan)
    del plan
    gc.collect()
    assert parent() is not None
    assert detect_threats(child) == []
    gc.collect()
    assert parent() is None
