"""The refinement search: causal, decompositional, threats, pruning, determinism."""
import gc
import random
from functools import partial

import pytest

from discoplan import plan as plan_module, search as search_module
from discoplan.language import parse_domain, parse_problem
from discoplan.model import (
    ActionOperator,
    BindingConstraint,
    DecompositionSchema,
    Domain,
    LinkTemplate,
    Problem,
    StepTemplate,
    establishments,
    kb_satisfy,
)
from discoplan.plan import (
    KIND_BEGIN,
    KIND_COMPOSITE,
    KIND_END,
    KIND_INITIAL,
    CausalLink,
    DecompositionLink,
    OpenCondition,
    Step,
    Threat,
    UnexpandedComposite,
    add_ordering,
    detect_threats,
    init_plan,
)
from discoplan.search import (
    BudgetExceeded,
    Exhausted,
    SearchConfig,
    SearchStats,
    Solution,
    _link_options,
    prune_unused,
    refine_causal,
    refine_decomposition,
    resolve_threat,
    solve,
)
from discoplan.oracle import verify_soundness
from discoplan.terms import (
    EMPTY_BINDINGS,
    Compound,
    Constant,
    Literal,
    Variable,
    add_noncodesignation,
    apply,
    extensions,
    unify_terms,
)
from _oracles import brute_force, brute_force_threats, decompose_by_product, operators_achieving
from _worlds import (
    boundary_steps,
    check_invariants,
    flat_step,
    link_world,
    lit,
    load_domain,
    load_problem,
    make_plan,
    marks_domain,
    marks_problem,
    reference_closure,
    step_leftmost,
)

L, B = Constant("l"), Constant("b")
FAIREST = Compound("fairest", (L, B))
MODELED = Compound("modeled", (L, B))
CAUSES = Compound("causes", (FAIREST, MODELED))
# No operator adds `credible` and no initial fact holds it, so `bel` is
# unreachable and the search ends at the root. Its twin, with `(credible c)`,
# is relaxed-reachable but still unsolvable: combine-belief regresses through
# ever deeper shared terms until the node budget runs out, a long search.
UNREACHABLE = "(problem r (domain discourse) (facts (causes c g)) (init) (goal (bel g)))"
REGRESS = "(problem r (domain discourse) (facts (causes c g)) (init (credible c)) (goal (bel g)))"
CORPUS_PROBLEMS = [
    ("discourse.dpd", "lucentio.dpp"),
    ("discourse.dpd", "multirole.dpp"),
    ("sidefx.dpd", "sidefx.dpp"),
    ("switches.dpd", "switches-demo.dpp"),
]


def applied_step_names(plan):
    return {
        s.sid: (s.name, tuple(str(apply(plan.bindings, Literal("x", (a,)))) for a in s.params))
        for s in plan.steps
    }


def test_solve_discourse_reproduces_the_supported_subplan():
    domain = load_domain("discourse.dpd")
    problem = load_problem("lucentio.dpp")
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    plan = out.plan
    supports = [s for s in plan.steps if s.name == "support"]
    assert len(supports) == 1
    (deco,) = plan.decomposition_links
    member_sigs = sorted(
        (plan.step(m).name, tuple(str(apply(plan.bindings, lit("x", a)).args[0]) for a in plan.step(m).params))
        for m in deco.members
    )
    assert member_sigs == [
        ("cause-to-believe", (str(CAUSES),)),
        ("cause-to-believe", (str(FAIREST),)),
        ("combine-belief", (str(FAIREST), str(MODELED))),
    ]
    assert any(l.consumer == deco.end for l in plan.causal_links)
    assert check_invariants(plan) == []


def test_solve_trivial_goal_links_initial_to_final():
    domain = load_domain("switches.dpd")
    problem = Problem("t", "switches", init=(lit("on", L),), goals=(lit("on", L),))
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    assert len(out.plan.steps) == 2
    assert out.plan.causal_links == (CausalLink(0, out.plan.final.preconditions[0], 1),)


def test_solve_is_deterministic():
    domain = load_domain("discourse.dpd")
    problem = load_problem("multirole.dpp")
    a = solve(domain, problem)
    b = solve(domain, problem)
    assert a == b


def test_refine_causal_offers_both_operators_for_open_belief():
    domain = load_domain("discourse.dpd")
    problem = load_problem("lucentio.dpp")
    plan = init_plan(problem)
    succ = refine_causal(plan, plan.flaws[0], domain)
    names = [p.steps[-1].name for p in succ]
    assert "support" in names and "cause-to-believe" in names


def test_refine_causal_reuses_initial_with_zero_new_steps():
    domain = load_domain("switches.dpd")
    problem = Problem("t", "switches", init=(lit("on", L),), goals=(lit("on", L),))
    plan = init_plan(problem)
    succ = refine_causal(plan, plan.flaws[0], domain)
    assert len(succ[0].steps) == len(plan.steps)
    assert succ[0].causal_links[0].producer == 0


def test_refine_causal_successor_count_matches_exhaustive_scan():
    domain = load_domain("discourse.dpd")
    problem = load_problem("multirole.dpp")
    visited, successor_sets = step_leftmost(domain, problem)
    for plan, flaw, succ in successor_sets:
        if not isinstance(flaw, OpenCondition):
            continue
        reusable = 0
        for s in plan.steps:
            if s.sid == flaw.consumer or s.kind == "final":
                continue
            found = establishments(plan.bindings, s.effects, flaw.condition, s.kind == KIND_INITIAL)
            if next(found, None) is None:
                continue
            if add_ordering(plan, s.sid, flaw.consumer) is None:
                continue
            reusable += 1
        applicable = len(operators_achieving(domain, apply(plan.bindings, flaw.condition)))
        assert len(succ) == reusable + applicable


# The causal successors as `refine_causal` built them before it tested the
# producer-before-consumer ordering on the parent: every plan step is tried,
# and each successor is evolved with its link, then once per added ordering
# and once more for an end-subplan membership. Kept as the reference for the
# one-evolve construction.
def _two_step_membership(plan, producer, consumer):
    plan = add_ordering(plan, producer, consumer)
    if plan is None or plan.step(consumer).kind != "end-subplan":
        return plan
    for i, d in enumerate(plan.decomposition_links):
        if d.end != consumer:
            continue
        if producer in d.members or producer == d.begin or producer == d.parent:
            return plan
        if plan.reaches(plan.end_of(producer), d.begin):
            return plan
        plan = add_ordering(plan, d.begin, producer)
        if plan is None:
            return None
        links = list(plan.decomposition_links)
        links[i] = d._replace(members=tuple(sorted(d.members + (producer,))))
        return plan.evolve(decomposition_links=tuple(links))
    return plan


def _two_step_refine_causal(plan, flaw, domain):
    out = []
    consumer = plan.step(flaw.consumer)
    flaws = tuple(f for f in plan.flaws if f != flaw)
    new_sid, new_iid = plan.next_sid, plan.next_iid
    signature = (flaw.condition.predicate, flaw.condition.positive)
    fresh = tuple(
        search_module._fresh_step(op, new_sid, new_iid, consumer.depth)
        for op in domain.operators
        if signature in {(e.predicate, e.positive) for e in op.effects}
    )
    for s, constraints in tuple((s, ()) for s in plan.steps) + fresh:
        if s.sid == flaw.consumer or s.kind == "final":
            continue
        found = establishments(plan.bindings, s.effects, flaw.condition, s.kind == KIND_INITIAL)
        b = next(found, None)
        # A fresh step brings its operator's eq/neq constraints, renamed with it.
        for c in constraints:
            if b is None:
                break
            if c.kind == "eq":
                b = unify_terms(c.left, c.right, b)
            else:
                b = add_noncodesignation(b, c.left, c.right)
        if b is None:
            continue
        link = CausalLink(s.sid, flaw.condition, flaw.consumer)
        if s.sid != new_sid:
            child = plan.evolve(bindings=b, causal_links=plan.causal_links + (link,), flaws=flaws)
        else:
            opened = tuple(OpenCondition(new_sid, p) for p in s.preconditions)
            if s.kind == "composite":
                opened += (UnexpandedComposite(new_sid),)
            child = plan.evolve(
                steps=plan.steps + (s,),
                orderings=plan.orderings | {(0, new_sid), (new_sid, 1)},
                bindings=b,
                causal_links=plan.causal_links + (link,),
                flaws=flaws + opened,
                next_sid=new_sid + 1,
                next_iid=new_iid + 1,
            )
        child = _two_step_membership(child, s.sid, flaw.consumer)
        if child is not None:
            out.append(child)
    return out


SUCCESSOR_FIELDS = (
    "steps",
    "orderings",
    "bindings",
    "causal_links",
    "decomposition_links",
    "flaws",
    "next_sid",
    "next_iid",
)


def _causal_successors_checked(plan, flaw, domain):
    """`refine_causal`'s successors, after checking them against the reference:
    the same list, equal in every field, closure and threats."""
    got = refine_causal(plan, flaw, domain)
    want = _two_step_refine_causal(plan, flaw, domain)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        # Plain booleans: a regress plan's deep terms make slow assertion diffs.
        differing = [f for f in SUCCESSOR_FIELDS if getattr(g, f) != getattr(w, f)]
        assert not differing
        assert g._reach == w._reach
        assert detect_threats(g) == detect_threats(w)
    return got


def _subgoal_domain():
    """The composite `top` adds (p) and (q), but its schema links only (p) to
    the end step, so the end step's (q) stays open."""
    p, q, r = lit("p"), lit("q"), lit("r")
    return Domain(
        name="subgoals",
        predicates={"p": 0, "q": 0, "r": 0},
        operators=(
            ActionOperator("top", (), (q,), (p, q), composite=True),
            ActionOperator("mk-p", (), (), (p, q)),
            ActionOperator("mk-q", (), (), (q,)),
            ActionOperator("mk-qr", (), (), (q, r)),
        ),
        schemata=(
            DecompositionSchema(
                "top", (), steps=(StepTemplate("s1", "mk-p", ()),),
                links=(LinkTemplate("s1", p, "final"),),
            ),
        ),
    )


def _open_subgoal_plan(domain):
    """`top` (step 2) expanded into begin 5, end 6 and member 7 (mk-p), with
    the end step's (q) open. Step 3 (mk-q) supplies top's (q), so it precedes
    the begin step; step 4 (mk-qr) supplies the goal (r), unordered with the
    subplan; the initial step holds (q)."""
    p, q, r = lit("p"), lit("q"), lit("r")
    steps = boundary_steps(init_effects=(q,), final_pre=(p, r)) + (
        flat_step(2, "top", pre=(q,), eff=(p, q), kind="composite"),
        flat_step(3, "mk-q", eff=(q,)),
        flat_step(4, "mk-qr", eff=(q, r)),
    )
    orderings = {(0, s) for s in (2, 3, 4)} | {(s, 1) for s in (2, 3, 4)} | {(3, 2)}
    links = (CausalLink(2, p, 1), CausalLink(3, q, 2), CausalLink(4, r, 1))
    plan = make_plan(steps, orderings, links, flaws=(UnexpandedComposite(2),))
    (expanded,) = refine_decomposition(plan, UnexpandedComposite(2), domain, ())
    return expanded


def test_causal_successors_into_an_end_step_match_the_two_step_reference():
    domain = _subgoal_domain()
    plan = _open_subgoal_plan(domain)
    flaw = OpenCondition(6, lit("q"))
    assert plan.step(6).kind == "end-subplan" and flaw in plan.flaws
    detect_threats(plan)
    succ = _causal_successors_checked(plan, flaw, domain)
    outcome = []
    for child in succ:
        producer = child.causal_links[-1].producer
        (deco,) = child.decomposition_links
        outcome.append((producer, child.step(producer).name, producer in deco.members))
        assert child.reaches(producer, 6) and check_invariants(child) == []
    # The composite (2) ends at the end step, so ordering it before that
    # step is a cycle and it gets no successor.
    assert outcome == [
        (0, "initial", False),  # ordered before the begin step: stays out
        (3, "mk-q", False),  # ordered before the begin step: stays out
        (4, "mk-qr", True),  # unordered with the subplan: joins
        (5, "begin-subplan", False),  # the begin step itself
        (7, "mk-p", True),  # already a member
        (8, "top", True),  # each fresh step joins
        (8, "mk-p", True),
        (8, "mk-q", True),
        (8, "mk-qr", True),
    ]
    # A joining producer is ordered after the begin step; only the unordered
    # reused one needed a new pair for it.
    assert (5, 4) in succ[2].orderings and (5, 4) not in plan.orderings
    assert all((5, 8) in child.orderings for child in succ[5:])


def test_causal_successors_match_the_two_step_reference_along_searches(monkeypatch):
    domain = load_domain("discourse.dpd")
    visited, _ = step_leftmost(domain, load_problem("multirole.dpp"))
    expanded = []

    def recorded_detect_threats(plan):
        expanded.append(plan)
        return detect_threats(plan)

    monkeypatch.setattr(search_module, "detect_threats", recorded_detect_threats)
    solve(domain, _regress_problem(), SearchConfig(max_depth=2, max_nodes=200))
    assert len(expanded) == 200
    compared = built = 0
    for plan in visited + expanded:
        detect_threats(plan)
        for flaw in plan.flaws:
            if isinstance(flaw, OpenCondition):
                built += len(_causal_successors_checked(plan, flaw, domain))
                compared += 1
    assert compared > 200 and built > compared


@pytest.mark.parametrize(
    "bindings, init, goal",
    [
        ("(bindings (neq ?x ?y))", "(obj a)", "(linked a a)"),
        ("(bindings (neq ?x ?y))", "(obj a) (obj b)", "(linked a ?w) (paired ?w ?v)"),
        ("(bindings (eq ?x ?y))", "(obj a) (obj b)", "(linked a ?w) (paired b ?v)"),
    ],
)
def test_causal_successors_match_the_two_step_reference_under_operator_bindings(
    monkeypatch, bindings, init, goal
):
    domain, problem = link_world(bindings, init, goal)
    expanded = []

    def recorded_detect_threats(plan):
        expanded.append(plan)
        return detect_threats(plan)

    monkeypatch.setattr(search_module, "detect_threats", recorded_detect_threats)
    solve(domain, problem, SearchConfig(max_nodes=60))
    compared = 0
    for plan in expanded:
        detect_threats(plan)
        for flaw in plan.flaws:
            if isinstance(flaw, OpenCondition):
                _causal_successors_checked(plan, flaw, domain)
                compared += 1
    assert compared
    # At the root, `link` as a fresh step for (linked a a) would make a
    # link(a, a) that its neq forbids: the step gets no successor.
    if init == "(obj a)":
        root = init_plan(problem)
        assert _causal_successors_checked(root, root.flaws[0], domain) == []


def test_refine_decomposition_single_kb_binding():
    domain = load_domain("discourse.dpd")
    problem = load_problem("lucentio.dpp")
    plan, flaw = step_leftmost(
        domain, problem, stop=lambda p, f: isinstance(f, UnexpandedComposite)
    )
    succ = refine_decomposition(plan, flaw, domain, problem.facts)
    assert len(succ) == 1
    child = succ[0]
    (deco,) = child.decomposition_links
    constraint = apply(child.bindings, deco.constraints[0])
    assert constraint == lit("causes", FAIREST, MODELED)


def test_refine_decomposition_no_schema_backtracks():
    domain = Domain(
        name="d",
        predicates={"g": 0},
        operators=(ActionOperator("top", (), (), (lit("g"),), composite=True),),
    )
    problem = Problem("p", "d", goals=(lit("g"),))
    plan = init_plan(problem)
    succ = refine_causal(plan, plan.flaws[0], domain)
    expansion = next(f for f in succ[0].flaws if isinstance(f, UnexpandedComposite))
    assert refine_decomposition(succ[0], expansion, domain, problem.facts) == []


def _cycle_world(schema):
    """The domain whose one schema for `top` is `schema`, and a plan whose
    composite step 2 (top) establishes (g) for step 3 (act), ordered after it."""
    g, h = lit("g"), lit("h")
    domain = Domain(
        name="loop",
        predicates={"g": 0, "h": 0},
        operators=(
            ActionOperator("top", (), (), (g,), composite=True),
            ActionOperator("act", (), (g,), (h,)),
            ActionOperator("other", (), (), (h,)),
        ),
        schemata=(schema,),
    )
    steps = boundary_steps() + (
        Step(2, "top", (), (), (g,), KIND_COMPOSITE),
        flat_step(3, "act", pre=(g,), eff=(h,)),
    )
    orderings = {(0, 2), (2, 1), (0, 3), (3, 1), (2, 3)}
    plan = make_plan(steps, orderings, (CausalLink(2, g, 3),), flaws=(UnexpandedComposite(2),))
    return domain, plan


REUSE_ACT = DecompositionSchema("top", (), steps=(StepTemplate("s", "act", ()),))
OTHER_BOTH_WAYS = DecompositionSchema(
    "top",
    (),
    steps=(StepTemplate("s", "other", ()), StepTemplate("t", "other", ())),
    orderings=(("s", "t"), ("t", "s")),
)


@pytest.mark.parametrize(
    "schema, policy",
    [
        pytest.param(REUSE_ACT, "prefer-reuse", id="reused-member-after-the-parent"),
        pytest.param(OTHER_BOTH_WAYS, "both-branches", id="schema-orderings-both-ways"),
    ],
)
def test_an_expansion_that_closes_a_cycle_gets_no_successor(schema, policy):
    domain, plan = _cycle_world(schema)
    assert refine_decomposition(plan, plan.flaws[0], domain, (), policy) == []


def test_an_expansion_reusing_a_step_ordered_after_the_parent_is_cyclic():
    domain, plan = _cycle_world(REUSE_ACT)
    # Under both branches only the fresh act step is left.
    (child,) = refine_decomposition(plan, plan.flaws[0], domain, ())
    assert child.decomposition_links[0].members == (6,) and check_invariants(child) == []
    # Reusing step 3 as the expansion would: (2, 3) becomes (5, 3), and step
    # 3 joins the subplan from begin 4 to end 5. The pairs on the parent that
    # are dropped are implied by those added.
    begin = Step(4, KIND_BEGIN, (), (), (), KIND_BEGIN, 1)
    end = Step(5, KIND_END, (), (lit("g"),), (), KIND_END, 1)
    cyclic = plan.evolve(
        steps=plan.steps + (begin, end),
        orderings=frozenset({(0, 4), (4, 2), (2, 5), (5, 1), (0, 3), (3, 1), (5, 3), (4, 3), (3, 5)}),
        decomposition_links=(DecompositionLink(2, 4, 5, (3,), ()),),
        flaws=(),
    )
    assert not cyclic.is_acyclic
    assert cyclic.reaches(3, 3) and cyclic.reaches(5, 5)
    assert cyclic._reach == reference_closure(cyclic.steps, cyclic.orderings)


def test_refine_decomposition_can_share_a_member_between_parents():
    domain = load_domain("discourse.dpd")
    problem = load_problem("multirole.dpp")

    def second_expansion(plan, flaw):
        return isinstance(flaw, UnexpandedComposite) and len(plan.decomposition_links) == 1

    plan, flaw = step_leftmost(domain, problem, stop=second_expansion)
    succ = refine_decomposition(plan, flaw, domain, problem.facts)
    existing = set(plan.decomposition_links[0].members)
    sharing = [
        p
        for p in succ
        if set(p.decomposition_links[1].members) & existing
    ]
    assert sharing, "no successor shares a step between both decomposition links"


def _threat_fixture(extra_orderings=()):
    steps = boundary_steps() + (
        flat_step(2, "maker", eff=(lit("on", L),)),
        flat_step(3, "user", pre=(lit("on", L),)),
        flat_step(4, "wrecker", eff=(lit("on", L, positive=False),)),
    )
    orderings = {(0, s) for s in (2, 3, 4)} | {(s, 1) for s in (2, 3, 4)} | {(2, 3)}
    orderings |= set(extra_orderings)
    link = CausalLink(2, lit("on", L), 3)
    plan = make_plan(steps, orderings, (link,))
    return plan, Threat(4, link)


def test_resolve_threat_ground_unordered_promotes_and_demotes():
    plan, threat = _threat_fixture()
    assert [t for t in detect_threats(plan)] == [threat]
    succ = resolve_threat(plan, threat)
    assert len(succ) == 2
    promoted, demoted = succ
    assert promoted.reaches(3, 4)
    assert demoted.reaches(4, 2)
    for child in succ:
        assert threat not in detect_threats(child)


def test_resolve_threat_forced_inside_interval_is_dead():
    plan, threat = _threat_fixture(extra_orderings={(2, 4), (4, 3)})
    assert resolve_threat(plan, threat) == []


def test_resolve_threat_separation_blocks_unification():
    x = Variable("x", 9)
    steps = boundary_steps() + (
        flat_step(2, "maker", eff=(lit("on", L),)),
        flat_step(3, "user", pre=(lit("on", L),)),
        flat_step(4, "wrecker", eff=(lit("on", x, positive=False),)),
    )
    orderings = {(0, s) for s in (2, 3, 4)} | {(s, 1) for s in (2, 3, 4)} | {(2, 3)}
    link = CausalLink(2, lit("on", L), 3)
    plan = make_plan(steps, orderings, (link,))
    threat = Threat(4, link)
    succ = resolve_threat(plan, threat)
    # promotion, demotion, and one separation pair (x vs l)
    assert len(succ) == 3
    separated = succ[-1]
    assert separated.bindings.distinct
    assert threat not in detect_threats(separated)


def test_resolve_threat_drops_a_separation_that_leaves_another_effect_harmful():
    x, y = Variable("x", 9), Variable("y", 9)
    steps = boundary_steps() + (
        flat_step(2, "maker", eff=(lit("on", L),)),
        flat_step(3, "user", pre=(lit("on", L),)),
        flat_step(4, "wrecker", eff=(lit("on", x, positive=False), lit("on", y, positive=False))),
    )
    orderings = {(0, s) for s in (2, 3, 4)} | {(s, 1) for s in (2, 3, 4)} | {(2, 3)}
    link = CausalLink(2, lit("on", L), 3)
    plan = make_plan(steps, orderings, (link,))
    threat = Threat(4, link)
    assert detect_threats(plan) == [threat]
    succ = resolve_threat(plan, threat)
    # x != l leaves (not (on ?y)) harmful and y != l leaves (not (on ?x)):
    # only promotion and demotion remain.
    assert len(succ) == 2
    assert succ[0].reaches(3, 4) and succ[1].reaches(4, 2)
    for child in succ:
        assert not child.bindings.distinct
        assert threat not in detect_threats(child)


def test_resolve_threat_successors_strictly_reduce_link_threats():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(2, 5)
        steps = list(boundary_steps())
        orderings = set()
        for i in range(2, 2 + n):
            pos = rng.random() < 0.5
            steps.append(
                flat_step(
                    i,
                    f"s{i}",
                    eff=(lit("on", rng.choice([L, B]), positive=pos),),
                )
            )
            orderings |= {(0, i), (i, 1)}
        maker, user = 2, 3
        steps[2] = flat_step(2, "maker", eff=(lit("on", L),))
        steps[3] = flat_step(3, "user", pre=(lit("on", L),))
        orderings.add((2, 3))
        link = CausalLink(2, lit("on", L), 3)
        plan = make_plan(tuple(steps), orderings, (link,))
        for threat in detect_threats(plan):
            before = sum(1 for t in detect_threats(plan) if t.link == threat.link)
            for child in resolve_threat(plan, threat):
                after = sum(1 for t in detect_threats(child) if t.link == threat.link)
                assert after < before


def test_prune_removes_step_with_no_outgoing_link():
    domain = load_domain("switches.dpd")
    problem = Problem("t", "switches", init=(lit("on", L),), goals=(lit("on", L),))
    out = solve(domain, problem)
    plan = out.plan
    dangler = flat_step(9, "dangler", eff=(lit("off", B),))
    bloated = plan.evolve(
        steps=plan.steps + (dangler,),
        orderings=plan.orderings | {(0, 9), (9, 1)},
        next_sid=10,
    )
    pruned = prune_unused(bloated)
    assert all(s.sid != 9 for s in pruned.steps)
    assert pruned.causal_links == plan.causal_links


def test_prune_cascades_to_fixpoint():
    # b feeds only a; a feeds nothing; both must go
    steps = boundary_steps((), (lit("g"),)) + (
        flat_step(2, "root", eff=(lit("g"),)),
        flat_step(3, "a", pre=(lit("m"),), eff=(lit("u"),)),
        flat_step(4, "b", eff=(lit("m"),)),
    )
    orderings = {(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1), (4, 3)}
    links = (
        CausalLink(2, lit("g"), 1),
        CausalLink(4, lit("m"), 3),
    )
    plan = make_plan(steps, orderings, links)
    pruned = prune_unused(plan)
    assert {s.sid for s in pruned.steps} == {0, 1, 2}
    assert len(pruned.causal_links) == 1


def test_prune_preserves_orderings_mediated_by_removed_steps():
    # x < m < y with the middle step unused: after pruning, x must still
    # precede y or new linearizations (and threats) could appear
    steps = boundary_steps((), (lit("g"),)) + (
        flat_step(2, "x", eff=(lit("g"),)),
        flat_step(3, "m", eff=(lit("waste"),)),
        flat_step(4, "y", eff=(lit("g2"),)),
    )
    orderings = {(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1), (2, 3), (3, 4)}
    links = (
        CausalLink(2, lit("g"), 1),
        CausalLink(4, lit("g2"), 1),
    )
    final = steps[1].__class__(
        1, "final", (), (lit("g"), lit("g2")), (), "final"
    )
    plan = make_plan((steps[0], final) + steps[2:], orderings, links)
    pruned = prune_unused(plan)
    assert {s.sid for s in pruned.steps} == {0, 1, 2, 4}
    assert pruned.reaches(2, 4)


def test_prune_keeps_fully_linked_solution_unchanged():
    domain = load_domain("discourse.dpd")
    problem = load_problem("lucentio.dpp")
    out = solve(domain, problem)
    assert prune_unused(out.plan) == out.plan


def test_pruned_plan_still_passes_the_audit():
    domain = load_domain("switches.dpd")
    problem = load_problem("switches-demo.dpp")
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    pruned = prune_unused(out.plan)
    assert verify_soundness(pruned, problem).ok


def test_solution_plans_satisfy_solution_invariants():
    for dname, pname in CORPUS_PROBLEMS:
        domain, problem = load_domain(dname), load_problem(pname)
        out = solve(domain, problem)
        assert isinstance(out, Solution)
        plan = out.plan
        assert plan.flaws == ()
        assert detect_threats(plan) == []
        assert check_invariants(plan) == []
        supported = {}
        for l in plan.causal_links:
            supported[(l.consumer, l.condition)] = supported.get((l.consumer, l.condition), 0) + 1
        for s in plan.steps:
            for p in s.preconditions:
                assert supported.get((s.sid, p)) == 1
        for s in plan.steps:
            if s.kind == "composite":
                assert sum(1 for d in plan.decomposition_links if d.parent == s.sid) == 1


def test_invariants_hold_on_every_visited_plan_and_successor():
    for dname, pname in [
        ("discourse.dpd", "multirole.dpp"),
        ("switches.dpd", "switches-demo.dpp"),
    ]:
        domain, problem = load_domain(dname), load_problem(pname)
        visited, successor_sets = step_leftmost(domain, problem)
        for plan in visited:
            assert check_invariants(plan) == []
        for _, _, succ in successor_sets:
            for child in succ:
                assert check_invariants(child) == []


def test_separation_solution_is_sound():
    domain, problem = marks_domain(), marks_problem()
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    assert out.plan.bindings.distinct
    assert verify_soundness(out.plan, problem).ok


def test_nested_composites_expand_with_increasing_depth():
    domain = Domain(
        name="nest",
        predicates={"g": 0},
        operators=(
            ActionOperator("outer", (), (), (lit("g"),), composite=True),
            ActionOperator("inner", (), (), (lit("g"),), composite=True),
            ActionOperator("work", (), (), (lit("g"),)),
        ),
        schemata=(
            DecompositionSchema(
                "outer", (), steps=(StepTemplate("i1", "inner", ()),),
                links=(LinkTemplate("i1", lit("g"), "final"),),
            ),
            DecompositionSchema(
                "inner", (), steps=(StepTemplate("w", "work", ()),),
                links=(LinkTemplate("w", lit("g"), "final"),),
            ),
        ),
    )
    problem = Problem("n", "nest", goals=(lit("g"),))
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    depths = {s.name: s.depth for s in out.plan.steps}
    assert depths["outer"] == 0 and depths["inner"] == 1 and depths["work"] == 2
    assert verify_soundness(out.plan, problem).ok
    # a depth budget of one prunes the nested route; whatever the search
    # returns instead, no step may sit deeper than the bound
    shallow = solve(domain, problem, SearchConfig(max_depth=1))
    assert isinstance(shallow, Solution)
    assert max(s.depth for s in shallow.plan.steps) <= 1


def test_unsolvable_within_bounds_is_exhausted_not_budget():
    domain = load_domain("switches.dpd")
    impossible = Problem(
        "imp", "switches", init=(lit("off", L),), goals=(lit("on", L), lit("off", L))
    )
    out = solve(domain, impossible, SearchConfig(max_steps=6))
    assert isinstance(out, Exhausted)


def test_node_budget_exhaustion_is_reported():
    domain = load_domain("switches.dpd")
    impossible = Problem(
        "imp", "switches", init=(lit("off", L),), goals=(lit("on", L), lit("off", L))
    )
    out = solve(domain, impossible, SearchConfig(max_nodes=2))
    assert isinstance(out, BudgetExceeded)


def test_regress_search_counts_are_pinned():
    config = SearchConfig(max_depth=2, max_nodes=1000)
    out = solve(load_domain("discourse.dpd"), _regress_problem(), config)
    assert isinstance(out, BudgetExceeded)
    assert out.stats == SearchStats(nodes_expanded=1000, backtracks=880, max_stack_depth=125)


def test_an_unreachable_goal_ends_the_search_before_the_first_node():
    problem, diags = parse_problem(UNREACHABLE, "r")
    assert problem is not None, diags
    out = solve(load_domain("discourse.dpd"), problem, SearchConfig(max_depth=2, max_nodes=1000))
    assert out == Exhausted(SearchStats(0, 0, 0), unreachable=problem.goals)


def _fanout_problem(n):
    """n goal beliefs whose shared cause is credible: one support per goal."""
    goals = [f"g{i}" for i in range(n)]
    problem, diags = parse_problem(
        "(problem f (domain discourse) (facts {}) (init (credible c) {}) (goal {}))".format(
            " ".join(f"(causes c {g})" for g in goals),
            " ".join(f"(credible (causes c {g}))" for g in goals),
            " ".join(f"(bel {g})" for g in goals),
        ),
        "f",
    )
    assert problem is not None, diags
    return problem


def _regress_problem():
    problem, diags = parse_problem(REGRESS, "r")
    assert problem is not None, diags
    return problem


def _audit_every_node(monkeypatch):
    """Make `solve` run check_invariants on each plan it expands; returns the
    list of plans audited so far."""
    audited = []

    def detect_threats_after_audit(plan):
        assert check_invariants(plan) == []
        audited.append(plan)
        return detect_threats(plan)

    monkeypatch.setattr(search_module, "detect_threats", detect_threats_after_audit)
    return audited


def test_maintained_threats_and_closure_match_a_scan_at_every_regress_node(monkeypatch):
    audited = _audit_every_node(monkeypatch)
    config = SearchConfig(max_depth=2, max_nodes=300)
    out = solve(load_domain("discourse.dpd"), _regress_problem(), config)
    assert isinstance(out, BudgetExceeded)
    assert len(audited) == out.stats.nodes_expanded == 300
    # The nodes reach past expansions, whose threats derive from their
    # parents' as every other child's do.
    assert any(p.decomposition_links for p in audited)
    assert any(detect_threats(p) for p in audited)


@pytest.mark.parametrize("policy", ["threats-first", "fifo", "lifo"])
def test_maintained_threats_and_closure_match_a_scan_under_each_flaw_policy(monkeypatch, policy):
    # fifo and lifo pick a threat by its position, so the order must match too.
    audited = _audit_every_node(monkeypatch)
    worlds = [(load_domain(dname), load_problem(pname)) for dname, pname in CORPUS_PROBLEMS]
    # Most fanout nodes sit below an expansion.
    worlds.append((load_domain("discourse.dpd"), _fanout_problem(5)))
    for domain, problem in worlds:
        config = SearchConfig(flaw_policy=policy, max_nodes=400)
        out = solve(domain, problem, config)
        assert len(audited) == out.stats.nodes_expanded
        audited.clear()


def _check_threats_by_brute_force(monkeypatch):
    """Make `solve` compare detect_threats with the unfiltered brute-force
    scan of every (link, step) pair at each node; returns the list of each
    node's threat count so far."""
    counts = []

    def checked_detect_threats(plan):
        threats = detect_threats(plan)
        assert [(t.step, t.link) for t in threats] == brute_force_threats(plan)
        counts.append(len(threats))
        return threats

    monkeypatch.setattr(search_module, "detect_threats", checked_detect_threats)
    return counts


@pytest.mark.parametrize("policy", ["threats-first", "fifo"])
@pytest.mark.parametrize(
    "pair",
    [
        ("sidefx.dpd", partial(load_problem, "sidefx.dpp")),
        ("switches.dpd", partial(load_problem, "switches-demo.dpp")),
        ("discourse.dpd", partial(_fanout_problem, 5)),
    ],
)
def test_signature_filtered_threats_match_brute_force_at_every_node(monkeypatch, policy, pair):
    counts = _check_threats_by_brute_force(monkeypatch)
    out = solve(load_domain(pair[0]), pair[1](), SearchConfig(flaw_policy=policy))
    assert isinstance(out, Solution)
    assert len(counts) == out.stats.nodes_expanded


def test_signature_filtered_threats_match_brute_force_at_every_regress_node(monkeypatch):
    # The solves above meet no threat; this one meets many, in threat sets
    # maintained across evolve, expansions included.
    counts = _check_threats_by_brute_force(monkeypatch)
    config = SearchConfig(max_depth=2, max_nodes=200)
    out = solve(load_domain("discourse.dpd"), _regress_problem(), config)
    assert len(counts) == out.stats.nodes_expanded == 200
    assert sum(counts) > 0


def test_threat_detection_examines_under_a_tenth_of_the_link_step_pairs(monkeypatch):
    examined = 0
    link_step_pairs = 0
    threatens = plan_module._threatens

    def counted_threatens(*args):
        nonlocal examined
        examined += 1
        return threatens(*args)

    def sized_detect_threats(plan):
        nonlocal link_step_pairs
        link_step_pairs += len(plan.causal_links) * len(plan.steps)
        return detect_threats(plan)

    monkeypatch.setattr(plan_module, "_threatens", counted_threatens)
    monkeypatch.setattr(search_module, "detect_threats", sized_detect_threats)
    config = SearchConfig(max_depth=2, max_nodes=1000)
    out = solve(load_domain("discourse.dpd"), _regress_problem(), config)
    assert out.stats == SearchStats(nodes_expanded=1000, backtracks=880, max_stack_depth=125)
    # A rescan of every link against every step at every node examines all
    # of `link_step_pairs`; only new links, new steps and known threats are examined.
    assert 0 < examined * 10 < link_step_pairs


def test_only_the_root_scans_its_threats_from_scratch(monkeypatch):
    scratch_scans = examined = 0
    scan_threats, threatens = plan_module._scan_threats, plan_module._threatens

    def counted_scan_threats(plan, base=None):
        nonlocal scratch_scans
        scratch_scans += base is None
        return scan_threats(plan, base)

    def counted_threatens(*args):
        nonlocal examined
        examined += 1
        return threatens(*args)

    monkeypatch.setattr(plan_module, "_scan_threats", counted_scan_threats)
    monkeypatch.setattr(plan_module, "_threatens", counted_threatens)
    out = solve(load_domain("discourse.dpd"), _fanout_problem(8), SearchConfig(max_steps=1000))
    assert isinstance(out, Solution)
    # Expansion children derive their threats from their parents' too, so
    # only the root, which has no links, is scanned from scratch.
    assert scratch_scans == 1
    assert examined == 456


def test_kb_matching_and_link_assignment_leave_no_reference_cycles():
    facts = load_problem("multirole.dpp").facts
    x = Variable("x")
    label_step = {
        "start": flat_step(0, eff=(lit("p", L), lit("p", B))),
        "final": flat_step(1, pre=(lit("p", x),)),
    }
    links = [LinkTemplate("start", lit("p", x), "final")]
    options = partial(_link_options, label_step, {1: [0]})
    gc.collect()
    gc.disable()
    try:
        assert len(list(kb_satisfy(facts, [lit("causes", x, Variable("y"))], EMPTY_BINDINGS))) > 1
        bindings, chosen = next(extensions(links, options, EMPTY_BINDINGS))
        assert chosen == (((1, 0), CausalLink(0, lit("p", x), 1)),)
        assert bindings.codesignates(x, L)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_link_options_skip_a_precondition_an_earlier_link_took():
    x, y = Variable("x"), Variable("y")
    label_step = {
        "start": flat_step(0, eff=(lit("p", L), lit("p", B))),
        "final": flat_step(1, pre=(lit("p", x), lit("p", y))),
    }
    links = [LinkTemplate("start", lit("p", x), "final")] * 2
    options = partial(_link_options, label_step, {1: [0, 1]})
    taken = [
        tuple(key for key, _ in chosen)
        for _, chosen in extensions(links, options, EMPTY_BINDINGS)
    ]
    # The first link's effect binds ?x, so the second link uses the same
    # effect, and takes whichever precondition the first one left.
    assert taken == [((1, 0), (1, 1)), ((1, 1), (1, 0))] * 2


PICK = """
(domain pick (kb-predicates (likes 2)) (predicates (done 1) (greeted 1))
  (action (header (serve ?x)) (composite) (pre) (eff (done ?x)))
  (action (header (finish ?x ?y)) (pre) (eff (done ?x) (greeted ?y)))
  (decomposition (header (serve ?x))
    (constraints (likes ?x ?y) (not (likes ?y ?x)))
    (steps (s1 (finish ?x ?y))) (links (s1 (done ?x) final))))
"""


@pytest.mark.parametrize("swapped", [False, True])
def test_the_order_of_kb_constraints_does_not_change_the_plan(swapped):
    # The negative constraint is tested once the positive one has bound ?y,
    # in either declaration order, so serve(a) expands into finish(a, c).
    text = PICK
    if swapped:
        text = text.replace(
            "(likes ?x ?y) (not (likes ?y ?x))", "(not (likes ?y ?x)) (likes ?x ?y)"
        )
    domain, diags = parse_domain(text, "pick")
    assert domain is not None, diags
    problem, diags = parse_problem(
        "(problem p (domain pick) (facts (likes a b) (likes b a) (likes a c)) (goal (done a)))", "p"
    )
    assert problem is not None, diags
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    plan = out.plan
    finish = [s for s in plan.steps if s.name == "finish"]
    assert [tuple(plan.bindings.resolve(t) for t in s.params) for s in finish] == [
        (Constant("a"), Constant("c"))
    ]
    assert [s.name for s in plan.steps if s.name == "serve"] == ["serve"]


def _twin_marks_world():
    """Two step templates of one action, which may both match one plan step."""
    a, b, m = Variable("a"), Variable("b"), Variable("m")
    x, y = Constant("x"), Constant("y")
    domain = Domain(
        name="twins",
        predicates={"ok": 0, "marked": 1},
        kb_predicates={"rel": 1},
        operators=(
            ActionOperator("pick2", (), (), (lit("ok"),), composite=True),
            ActionOperator("mark", (m,), (), (lit("marked", m),)),
            ActionOperator("finish", (), (), (lit("ok"),)),
        ),
        schemata=(
            DecompositionSchema(
                "pick2",
                (),
                constraints=(lit("rel", a), lit("rel", b)),
                steps=(
                    StepTemplate("s1", "mark", (a,)),
                    StepTemplate("s2", "mark", (b,)),
                    StepTemplate("s3", "finish", ()),
                ),
                links=(LinkTemplate("s3", lit("ok"), "final"),),
            ),
        ),
    )
    goals = (lit("marked", x), lit("marked", y), lit("ok"))
    return domain, Problem("p", "twins", facts=(lit("rel", x), lit("rel", y)), goals=goals)


def test_refine_decomposition_matches_a_product_then_filter_enumeration():
    discourse = load_domain("discourse.dpd")
    worlds = [
        (discourse, load_problem("lucentio.dpp")),
        (discourse, load_problem("multirole.dpp")),
        (load_domain("sidefx.dpd"), load_problem("sidefx.dpp")),
        (discourse, _fanout_problem(3)),
        (discourse, _fanout_problem(5)),
        _twin_marks_world(),
    ]
    compared = adopting = 0
    for domain, problem in worlds:
        visited, successor_sets = step_leftmost(domain, problem, SearchConfig(max_steps=1000))
        nodes = visited + [p for _, _, succ in successor_sets for p in succ]
        for plan in nodes:
            for flaw in plan.flaws:
                if not isinstance(flaw, UnexpandedComposite):
                    continue
                for policy in search_module.REUSE_POLICIES:
                    got = refine_decomposition(plan, flaw, domain, problem.facts, policy)
                    assert got == decompose_by_product(plan, flaw, domain, problem.facts, policy)
                    compared += 1
                    adopting += any(
                        set(c.decomposition_links[-1].members) & {s.sid for s in plan.steps}
                        for c in got
                    )
    # The nodes include expansions that may adopt steps already in the plan.
    assert compared > 400 and adopting > 50


def test_decomposition_builds_each_consistent_realization_once(monkeypatch):
    expand, refine = search_module._expand, search_module.refine_decomposition
    calls = children = 0

    def counted_expand(*args):
        nonlocal calls
        calls += 1
        return expand(*args)

    def counted_refine(*args):
        nonlocal children
        out = refine(*args)
        children += len(out)
        return out

    monkeypatch.setattr(search_module, "_expand", counted_expand)
    monkeypatch.setattr(search_module, "refine_decomposition", counted_refine)
    out = solve(load_domain("discourse.dpd"), _fanout_problem(8), SearchConfig(max_steps=1000))
    assert isinstance(out, Solution)
    # Building every combination of reuse choices and filtering it afterwards
    # makes 1 534 calls for the same 15 children.
    assert calls == children == 15


def test_solve_follows_an_operator_term_deeper_than_the_recursion_limit():
    # The chain validate_domain accepts (see test_model.py): renaming the
    # operator apart and unifying its effect with the goal take no
    # recursion per level.
    x = Variable("x")

    def chain(inner):
        for _ in range(1200):
            inner = Compound("f", (inner,))
        return inner

    op = ActionOperator("act", (x,), (), (lit("p", chain(x)),))
    domain = Domain(name="d", predicates={"p": 1}, operators=(op,))
    out = solve(domain, Problem("deep", "d", goals=(lit("p", chain(B)),)))
    assert isinstance(out, Solution)
    (step,) = [s for s in out.plan.steps if s.name == "act"]
    assert out.plan.bindings.resolve(step.params[0]) == B


def test_flaw_policies_all_reach_a_solution():
    domain = load_domain("switches.dpd")
    problem = load_problem("switches-demo.dpp")
    for policy in ("threats-first", "fifo", "lifo"):
        out = solve(domain, problem, SearchConfig(flaw_policy=policy))
        assert isinstance(out, Solution), policy
        assert verify_soundness(out.plan, problem).ok


def test_schema_static_bindings_filter_kb_matches():
    x, y = Constant("x"), Constant("y")
    a, b = Variable("a"), Variable("b")
    domain = Domain(
        name="pairs",
        predicates={"ok": 0, "marked": 1},
        kb_predicates={"rel": 1},
        operators=(
            ActionOperator("pick2", (), (), (lit("ok"),), composite=True),
            ActionOperator("mark", (Variable("m"),), (), (lit("marked", Variable("m")),)),
            ActionOperator("finish", (), (), (lit("ok"),)),
        ),
        schemata=(
            DecompositionSchema(
                "pick2",
                (),
                constraints=(lit("rel", a), lit("rel", b)),
                steps=(
                    StepTemplate("s1", "mark", (a,)),
                    StepTemplate("s2", "mark", (b,)),
                    StepTemplate("s3", "finish", ()),
                ),
                links=(LinkTemplate("s3", lit("ok"), "final"),),
                bindings=(BindingConstraint("neq", a, b),),
            ),
        ),
    )
    problem = Problem("p", "pairs", facts=(lit("rel", x), lit("rel", y)), goals=(lit("ok"),))
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    (deco,) = out.plan.decomposition_links
    instantiated = [apply(out.plan.bindings, c) for c in deco.constraints]
    # without the neq constraint the leftmost kb match would pick x twice
    assert instantiated == [lit("rel", x), lit("rel", y)]


def _relay_domain():
    return Domain(
        name="relay",
        predicates={"thing": 0, "done": 0},
        operators=(
            ActionOperator("top", (), (), (lit("done"),), composite=True),
            ActionOperator("maker", (), (), (lit("thing"),)),
            ActionOperator("user", (), (lit("thing"),), (lit("done"),)),
        ),
        schemata=(
            DecompositionSchema(
                "top",
                (),
                steps=(StepTemplate("x", "maker", ()), StepTemplate("y", "user", ())),
                links=(
                    LinkTemplate("x", lit("thing"), "y"),
                    LinkTemplate("y", lit("done"), "final"),
                ),
            ),
        ),
    )


def _relay_expansion_fixture(user_supported):
    """A plan holding one user step and one unexpanded top composite.

    The user step's precondition is either already causally supported or
    still open, steering whether a schema link may adopt it.
    """
    from discoplan.plan import Step

    thing, done = lit("thing"), lit("done")
    initial = Step(0, "initial", (), (), (thing,), "initial")
    final = Step(1, "final", (), (done,), (), "final")
    user = Step(2, "user", (), (thing,), (done,), "primitive")
    top = Step(3, "top", (), (), (done,), "composite")
    links = [CausalLink(3, done, 1)]
    flaws = [UnexpandedComposite(3)]
    if user_supported:
        links.append(CausalLink(0, thing, 2))
    else:
        flaws.append(OpenCondition(2, thing))
    plan = make_plan(
        (initial, final, user, top),
        orderings={(0, 2), (2, 1), (0, 3), (3, 1)},
        links=tuple(links),
        flaws=tuple(flaws),
    )
    return plan, UnexpandedComposite(3)


def test_internal_link_cannot_resupply_a_supported_reused_step():
    domain = _relay_domain()

    plan, flaw = _relay_expansion_fixture(user_supported=True)
    succ = refine_decomposition(plan, flaw, domain, ())
    assert succ, "fresh realizations must still exist"
    for child in succ:
        (deco,) = child.decomposition_links
        assert 2 not in deco.members  # the supported user is never adopted

    open_plan, flaw = _relay_expansion_fixture(user_supported=False)
    succ = refine_decomposition(open_plan, flaw, domain, ())
    adopting = [c for c in succ if 2 in c.decomposition_links[0].members]
    assert adopting, "an open user step is adoptable"
    child = adopting[0]
    # the schema link now supports the adopted step's precondition
    assert not any(
        isinstance(f, OpenCondition) and f.consumer == 2 for f in child.flaws
    )
    assert any(l.consumer == 2 and l.condition == lit("thing") for l in child.causal_links)


def test_alternative_schemata_are_backtrackable_choice_points():
    # First schema's constraint never holds, so search must fall through to
    # the second schema for the same composite action.
    a = Variable("a")
    domain = Domain(
        name="two-ways",
        predicates={"done": 0, "step-taken": 1},
        kb_predicates={"blessed": 1, "cursed": 1},
        operators=(
            ActionOperator("goal-act", (), (), (lit("done"),), composite=True),
            ActionOperator("move", (Variable("m"),), (), (lit("step-taken", Variable("m")), lit("done"))),
        ),
        schemata=(
            DecompositionSchema(
                "goal-act", (),
                constraints=(lit("cursed", a),),
                steps=(StepTemplate("s1", "move", (a,)),),
                links=(LinkTemplate("s1", lit("done"), "final"),),
            ),
            DecompositionSchema(
                "goal-act", (),
                constraints=(lit("blessed", a),),
                steps=(StepTemplate("s1", "move", (a,)),),
                links=(LinkTemplate("s1", lit("done"), "final"),),
            ),
        ),
    )
    problem = Problem(
        "p", "two-ways", facts=(lit("blessed", Constant("x")),), goals=(lit("done"),)
    )
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    (deco,) = out.plan.decomposition_links
    instantiated = [apply(out.plan.bindings, c) for c in deco.constraints]
    assert instantiated == [lit("blessed", Constant("x"))]
    assert verify_soundness(out.plan, problem).ok


def test_prefer_reuse_commits_to_an_adoptable_step():
    # With an open user step available, prefer-reuse offers only the
    # adopting realization, while the default also keeps a fresh branch.
    domain = _relay_domain()
    plan, flaw = _relay_expansion_fixture(user_supported=False)
    committed = refine_decomposition(plan, flaw, domain, (), "prefer-reuse")
    assert committed
    assert all(2 in child.decomposition_links[0].members for child in committed)
    both = refine_decomposition(plan, flaw, domain, (), "both-branches")
    assert len(both) > len(committed)
    assert any(2 not in child.decomposition_links[0].members for child in both)


def test_prefer_reuse_falls_back_to_fresh_steps():
    # nothing to reuse on the first expansion, so prefer-reuse must still
    # instantiate the schema steps
    domain = load_domain("discourse.dpd")
    problem = load_problem("lucentio.dpp")
    out = solve(domain, problem, SearchConfig(reuse_policy="prefer-reuse"))
    assert isinstance(out, Solution)
    assert verify_soundness(out.plan, problem).ok


def test_dead_schema_branch_backtracks_to_a_nested_composite():
    # Supporting the top proposition directly dead-ends (its cause is not
    # credible), so search must back out of that whole expansion and nest a
    # support one level down instead.
    L, B = Constant("l"), Constant("b")
    deep, mid, top = (Compound(n, (L, B)) for n in ("deep", "mid", "top"))
    domain = load_domain("discourse.dpd")
    problem = Problem(
        "nested",
        "discourse",
        facts=(lit("causes", deep, mid), lit("causes", mid, top)),
        init=(
            lit("credible", deep),
            lit("credible", Compound("causes", (deep, mid))),
            lit("credible", Compound("causes", (mid, top))),
        ),
        goals=(lit("bel", top),),
    )
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    assert out.stats.backtracks > 0
    (deco,) = out.plan.decomposition_links
    assert apply(out.plan.bindings, out.plan.step(deco.parent).effects[0]) == lit("bel", mid)
    assert verify_soundness(out.plan, problem).ok


def test_exploratory_abstract_interleaving():
    # Two composite steps whose subplans interact through a shared resource.
    # Records whether bounded search still finds some plan; the restriction
    # on interleavings of abstract steps is not a gating property here.
    domain = Domain(
        name="inter",
        predicates={"free": 0, "done-a": 0, "done-b": 0},
        operators=(
            ActionOperator("taska", (), (), (lit("done-a"),), composite=True),
            ActionOperator("taskb", (), (), (lit("done-b"),), composite=True),
            ActionOperator("grab-a", (), (lit("free"),), (lit("done-a"), lit("free", positive=False))),
            ActionOperator("grab-b", (), (lit("free"),), (lit("done-b"), lit("free", positive=False))),
            ActionOperator("release", (), (), (lit("free"),)),
        ),
        schemata=(
            DecompositionSchema(
                "taska", (), steps=(StepTemplate("g", "grab-a", ()), StepTemplate("r", "release", ())),
                links=(LinkTemplate("g", lit("done-a"), "final"),),
                orderings=(("g", "r"),),
            ),
            DecompositionSchema(
                "taskb", (), steps=(StepTemplate("g", "grab-b", ()), StepTemplate("r", "release", ())),
                links=(LinkTemplate("g", lit("done-b"), "final"),),
                orderings=(("g", "r"),),
            ),
        ),
    )
    problem = Problem("i", "inter", init=(lit("free"),), goals=(lit("done-a"), lit("done-b")))
    out = solve(domain, problem, SearchConfig(max_steps=24))
    assert isinstance(out, (Solution, Exhausted, BudgetExceeded))
    if isinstance(out, Solution):
        assert verify_soundness(out.plan, problem).ok


@pytest.mark.parametrize(
    "bindings, init, goal, args",
    [
        ("(bindings (neq ?x ?y))", "(obj a)", "(linked a a)", None),
        ("(bindings (neq ?x ?y))", "(obj a) (obj b)", "(linked a ?w)", ["a", "b"]),
        ("(bindings (eq ?x ?y))", "(obj a) (obj b)", "(linked a b)", None),
    ],
)
def test_a_fresh_step_keeps_its_operators_bindings(bindings, init, goal, args):
    domain, problem = link_world(bindings, init, goal)
    out = solve(domain, problem)
    if args is None:
        assert isinstance(out, Exhausted)
        assert brute_force(domain, problem, 2) == []
        return
    assert isinstance(out, Solution)
    (step,) = [s for s in out.plan.steps if s.name == "link"]
    assert [str(out.plan.bindings.resolve(a)) for a in step.params] == args
    assert verify_soundness(out.plan, problem).ok


def test_a_fresh_schema_step_keeps_its_operators_bindings():
    domain, problem = link_world("(bindings (neq ?x ?y))", "(obj a)", "(paired a a)")
    plan = init_plan(problem)
    (parent,) = [p for p in refine_causal(plan, plan.flaws[0], domain) if p.steps[-1].name == "pair"]
    flaw = UnexpandedComposite(parent.steps[-1].sid)
    # The one realization makes a fresh link(a, a), which its neq forbids.
    assert refine_decomposition(parent, flaw, domain, problem.facts) == []
    assert decompose_by_product(parent, flaw, domain, problem.facts) == []
    loose = link_world("", "(obj a)", "(paired a a)")[0]
    assert len(refine_decomposition(parent, flaw, loose, problem.facts)) == 1
