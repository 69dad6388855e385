"""Executor, brute-force enumerator, and soundness auditor."""
import itertools
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from discoplan import oracle
from discoplan.emit import plan_to_dict, plan_view_from_dict
from discoplan.language import parse_domain, parse_problem
from discoplan.model import ActionOperator, BindingConstraint, Domain, Problem
from discoplan.oracle import execute, verify_soundness
from discoplan.plan import KIND_COMPOSITE, CausalLink, Step
from discoplan.search import FLAW_POLICIES, REUSE_POLICIES, SearchConfig, Solution, solve
from discoplan.terms import (
    EMPTY_BINDINGS,
    ArityMismatchError,
    BindingSet,
    Compound,
    Constant,
    Variable,
    apply,
    is_ground,
    unify,
    unify_terms,
)
from _oracles import (
    GroundAction,
    UniverseTooLargeError,
    audit_by_reexecution,
    brute_force,
    floyd_warshall,
    ground_actions,
    link_checks_by_full_scan,
    orders_consistent_with,
    reexecute_orders,
)
from _worlds import (
    bench_workload,
    boundary_steps,
    flat_step,
    link_world,
    lit,
    load_domain,
    load_problem,
    make_plan,
)

A, B = Constant("a"), Constant("b")


def ga(name, pre=(), eff=()):
    return GroundAction(name, name, (), tuple(pre), tuple(eff))


def test_execute_empty_sequence_is_success():
    trace = execute([lit("p", A)], [])
    assert trace.ok
    assert trace.final_state == {lit("p", A)}  # state untouched


def test_execute_fails_on_present_negative_precondition():
    step = ga("s", pre=(lit("bel", A, positive=False),))
    trace = execute([lit("bel", A)], [step])
    assert trace.outcome == "failed-precondition"
    assert trace.failed_step == "s"
    assert trace.failed_condition == lit("bel", A, positive=False)


def test_execute_applies_deletes_then_adds():
    step = ga("s", pre=(lit("p", A),), eff=(lit("p", A, positive=False), lit("q", A)))
    trace = execute([lit("p", A)], [step])
    assert trace.ok
    assert trace.final_state == {lit("q", A)}


def test_execute_is_history_free():
    s1 = ga("s1", eff=(lit("p", A),))
    s2 = ga("s2", pre=(lit("p", A),), eff=(lit("q", A),))
    full = execute([], [s1, s2])
    tail = execute(full.entries[0].after, [s2])
    assert tail.final_state == full.final_state


def test_execute_rejects_nonground_steps():
    step = ga("s", eff=(lit("p", Variable("x")),))
    with pytest.raises(ValueError):
        execute([], [step])


def test_every_linearization_of_the_discourse_solution_executes():
    domain = load_domain("discourse.dpd")
    problem = load_problem("lucentio.dpp")
    out = solve(domain, problem)
    plan = out.plan
    goals = [apply(plan.bindings, g) for g in plan.final.preconditions]
    prims = [s.sid for s in plan.steps if s.kind == "primitive"]
    before = {(a, b) for a in prims for b in prims if plan.reaches(a, b)}
    count = 0
    for order in orders_consistent_with(prims, before):
        steps = []
        for sid in order:
            s = plan.step(sid)
            steps.append(
                ga(
                    str(sid),
                    pre=tuple(apply(plan.bindings, p) for p in s.preconditions),
                    eff=tuple(apply(plan.bindings, e) for e in s.effects),
                )
            )
        trace = execute(problem.init, steps)
        assert trace.ok
        for g in goals:
            assert g.atom() in trace.final_state if g.positive else g.atom() not in trace.final_state
        count += 1
    assert count >= 1


def test_audit_checks_every_order_a_permutation_filter_accepts():
    # the audit's enumerator against brute force; the composite step is
    # phantom and must not appear in any order
    rng = random.Random(13)
    for _ in range(25):
        prims = list(range(2, 8))
        orderings = {(0, s) for s in prims + [8]} | {(s, 1) for s in prims + [8]}
        orderings |= {(a, b) for a, b in itertools.combinations(prims, 2) if rng.random() < 0.3}
        steps = boundary_steps() + tuple(flat_step(s, f"s{s}") for s in prims)
        steps += (flat_step(8, "top", kind=KIND_COMPOSITE),)
        plan = make_plan(steps, orderings)
        want = orders_consistent_with(prims, orderings)
        report = verify_soundness(plan, Problem("p", "d"))
        assert report.linearizations_checked == len(want)


def _random_audit_plan(rng):
    """Up to seven primitives over three ground atoms, randomly ordered.

    Preconditions and goals are drawn without regard to the effects, so some
    orders fail a precondition, some miss a goal, and some do both.
    """
    pool = [lit("p", A), lit("p", B), lit("q", A)]

    def draw(k):
        return [l if rng.random() < 0.6 else l.negate() for l in rng.sample(pool, k)]

    prims = list(range(2, 2 + rng.randint(1, 7)))
    steps = boundary_steps(rng.sample(pool, rng.randint(0, 2)), draw(rng.randint(0, 2)))
    steps += tuple(
        flat_step(s, f"s{s}", pre=draw(rng.randint(0, 1)), eff=draw(rng.randint(1, 2)))
        for s in prims
    )
    orderings = {(0, s) for s in prims} | {(s, 1) for s in prims}
    orderings |= {(a, b) for a, b in itertools.combinations(prims, 2) if rng.random() < 0.2}
    return make_plan(steps, orderings)


def _corpus_views():
    """The solved plan of four corpus problems, reloaded, with its problem."""
    for dname, pname in [
        ("discourse.dpd", "lucentio.dpp"),
        ("discourse.dpd", "multirole.dpp"),
        ("sidefx.dpd", "sidefx.dpp"),
        ("switches.dpd", "switches-demo.dpp"),
    ]:
        problem = load_problem(pname)
        yield plan_view_from_dict(plan_to_dict(solve(load_domain(dname), problem).plan, None)), problem


def _corpus_views_with_orderings_dropped(rng):
    for view, problem in _corpus_views():
        for _ in range(4):
            kept = frozenset(o for o in view.orderings if 1 in o or rng.random() < 0.5)
            yield view._replace(orderings=kept), problem


def _total_orders(plan):
    prims = [s.sid for s in plan.steps if s.kind == "primitive"]
    reach = floyd_warshall([s.sid for s in plan.steps], plan.orderings)
    return len(orders_consistent_with(prims, [p for p, r in reach.items() if r]))


def _order_violations(report):
    return [(v.code, v.message) for v in report.violations if v.code in ("execution", "goal")]


def test_audit_matches_reexecuting_every_order_from_scratch():
    # Every cap from 0 to one past the number of orders on the random plans,
    # so a reused subtree that straddles the cap is caught wherever it falls.
    # The one plan past 1 000 orders (1 680, most of them failing) would take
    # 12 s swept in full, so it gets the ends of the range only.
    rng = random.Random(29)
    codes = Counter()
    for _ in range(60):
        plan = _random_audit_plan(rng)
        total = _total_orders(plan)
        runs = reexecute_orders(plan, total)
        caps = range(total + 2) if total <= 1_000 else (0, 1, 37, total - 1, total, total + 1)
        for cap in caps:
            report = verify_soundness(plan, Problem("p", "d"), max_orders=cap)
            assert _order_violations(report) == [f for found in runs[: cap + 1] for f in found]
            assert report.linearizations_checked == min(total, cap + 1)
        codes.update(code for found in runs for code, _ in found)
    for plan, problem in _corpus_views_with_orderings_dropped(rng):
        total = _total_orders(plan)
        for cap in (0, 1, 37, 5_000):
            report = verify_soundness(plan, problem, max_orders=cap)
            want, checked = audit_by_reexecution(plan, cap)
            assert _order_violations(report) == want
            assert report.linearizations_checked == checked == min(total, cap + 1)
            codes.update(code for code, _ in want)
    assert codes["execution"] > 100 and codes["goal"] > 100


@pytest.mark.parametrize(
    "steps, goals",
    [
        # Prefixes (2, 3) and (3, 2) leave {4} unplaced; the first reaches
        # (p a) and every completion keeps it, the second does not.
        (
            (
                flat_step(2, "clear", eff=(lit("p", A, positive=False),)),
                flat_step(3, "set", eff=(lit("p", A),)),
                flat_step(4, "other", eff=(lit("q", B),)),
            ),
            (lit("p", A),),
        ),
        # Prefix (2, 3) executes and leaves {4} unplaced in the initial state;
        # prefix (3, 2) fails at step 3 and reaches the same pair, so its
        # completion must still be taken and reported.
        (
            (
                flat_step(2, "set", eff=(lit("p", A),)),
                flat_step(3, "use", pre=(lit("p", A),), eff=(lit("p", A, positive=False),)),
                flat_step(4, "other", eff=(lit("q", B),)),
            ),
            (),
        ),
    ],
    ids=["same-unplaced-set-other-state", "failing-and-clean-prefix-same-pair"],
)
def test_audit_reuses_a_subtree_only_for_a_clean_prefix_in_the_same_state(steps, goals):
    prims = [s.sid for s in steps]
    plan = make_plan(
        boundary_steps((), goals) + steps, {(0, s) for s in prims} | {(s, 1) for s in prims}
    )
    for cap in range(_total_orders(plan) + 2):
        report = verify_soundness(plan, Problem("p", "d"), max_orders=cap)
        want, checked = audit_by_reexecution(plan, cap)
        assert _order_violations(report) == want
        assert report.linearizations_checked == checked
    assert want


def test_audit_applies_each_unplaced_set_and_state_pair_once(monkeypatch):
    # Seven unordered primitives: the capped audit takes 5 001 orders, and
    # executing each from the initial state would take seven transitions per
    # order. Each of the 2**7 (unplaced set, state) pairs is expanded once,
    # one transition per step it can place next: 7 * 2**6 in all.
    transitions = 0
    transition = oracle._transition

    def counted(*args):
        nonlocal transitions
        transitions += 1
        return transition(*args)

    monkeypatch.setattr(oracle, "_transition", counted)
    prims = list(range(2, 9))
    steps = boundary_steps() + tuple(
        flat_step(s, f"s{s}", eff=(lit("p", Constant(f"c{s}")),)) for s in prims
    )
    plan = make_plan(steps, {(0, s) for s in prims} | {(s, 1) for s in prims})
    report = verify_soundness(plan, Problem("p", "d"))
    assert report.ok and report.linearizations_checked == 5_001
    assert transitions <= 7 * 2**6


LINK_CODES = ("support", "order", "produce", "threat", "subplan")


def _reloaded(case):
    """The solved plan of a benchmark case, reloaded, and its problem."""
    domain, _ = parse_domain(Path(case.domain).read_text(), case.domain)
    problem, _ = parse_problem(Path(case.problem).read_text(), case.problem)
    return plan_view_from_dict(plan_to_dict(solve(domain, problem).plan, None)), problem


def _scaled_views(out):
    """The solved plan of each `scaled` benchmark problem of seed 1, reloaded."""
    for case in bench_workload("scaled", 1, out).cases:
        yield _reloaded(case)


def _tampered(view, rng):
    """The view with a link dropped, a link reversed, an unordered deleter of a
    link's condition injected, and each subplan goal linked from outside;
    three draws of each of the first three."""
    links = view.causal_links
    new = max(s.sid for s in view.steps) + 1
    for _ in range(3):
        i = rng.randrange(len(links))
        yield view._replace(causal_links=links[:i] + links[i + 1:])
        reversed_link = CausalLink(links[i].consumer, links[i].condition, links[i].producer)
        yield view._replace(causal_links=links[:i] + (reversed_link,) + links[i + 1:])
        undoes = rng.choice(links).condition.negate()
        yield view._replace(
            steps=view.steps + (Step(new, "saboteur", (), (), (undoes,), "primitive"),),
            orderings=view.orderings | {(0, new), (new, 1)},
        )
    for d in view.decomposition_links:
        for victim in [l for l in links if l.consumer == d.end]:
            yield view._replace(
                steps=view.steps
                + (Step(new, "outsider", (), (), (victim.condition,), "primitive"),),
                orderings=view.orderings | {(0, new), (new, 1), (new, d.end)},
                causal_links=tuple(l for l in links if l != victim)
                + (CausalLink(new, victim.condition, d.end),),
            )


def test_audit_link_checks_match_a_full_scan(tmp_path):
    # The indexed support and threat scans against the loops that scan every
    # link per precondition and every step per link. The link checks do not
    # depend on the order cap, so the tampered views are audited at cap 0.
    rng = random.Random(31)
    cases = [(_random_audit_plan(rng), Problem("p", "d"), 5_000) for _ in range(60)]
    cases += [(plan, problem, 5_000) for plan, problem in _corpus_views_with_orderings_dropped(rng)]
    for view, problem in itertools.chain(_corpus_views(), _scaled_views(tmp_path)):
        cases += [(tampered, problem, 0) for tampered in _tampered(view, rng)]
    codes = Counter()
    for plan, problem, cap in cases:
        report = verify_soundness(plan, problem, max_orders=cap)
        found = [(v.code, v.message) for v in report.violations if v.code in LINK_CODES]
        assert found == link_checks_by_full_scan(plan)
        codes.update(code for code, _ in found)
    assert min(codes[code] for code in LINK_CODES) > 10, codes


def _unordered_plan(links, prims, preconditions=0):
    """`links` links from the initial to the final step, each for one (p ci),
    and `prims` unordered primitives, each adding its own (q dj) after
    `preconditions` preconditions (p ci); no effect is a (not (p ...))."""
    conditions = [lit("p", Constant(f"c{i}")) for i in range(links)]
    ids = range(2, 2 + prims)
    steps = boundary_steps(conditions, conditions) + tuple(
        flat_step(s, f"s{s}", pre=conditions[:preconditions], eff=(lit("q", Constant(f"d{s}")),))
        for s in ids
    )
    orderings = {(0, s) for s in ids} | {(s, 1) for s in ids}
    return make_plan(steps, orderings, [CausalLink(0, c, 1) for c in conditions])


def _counted(monkeypatch, name, plan):
    calls = 0
    original = getattr(oracle, name)

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    with monkeypatch.context() as patched:
        patched.setattr(oracle, name, counted)
        verify_soundness(plan, Problem("p", "d", init=plan.steps[0].effects))
    return calls


def _link_tests(monkeypatch, plan):
    """How many link tests an audit of `plan` makes; each asks whether some
    effect of a list unifies with a condition."""
    tests = 0
    unifier = oracle._unifier

    def counting_unifier(bindings):
        unifies = unifier(bindings)

        def counted(literals, lit):
            nonlocal tests
            tests += 1
            return unifies(literals, lit)

        return counted

    with monkeypatch.context() as patched:
        patched.setattr(oracle, "_unifier", counting_unifier)
        verify_soundness(plan, Problem("p", "d", init=plan.steps[0].effects))
    return tests


def test_audit_unifies_a_link_only_with_effects_of_its_negated_signature(monkeypatch):
    # No primitive can undo a link, so the threat scan has no step to test:
    # adding primitives adds no link test, compared or unified.
    counts = [_link_tests(monkeypatch, _unordered_plan(3, n)) for n in (4, 8)]
    assert counts[0] == counts[1] > 0


def test_audit_applies_bindings_once_per_literal_and_link(monkeypatch):
    # k links and 4k preconditions: growing k by four at a time grows the
    # apply calls by a fixed amount, where checking each precondition against
    # each link grows them by more each time.
    counts = [
        _counted(monkeypatch, "apply", _unordered_plan(k, 3, preconditions=k)) for k in (4, 8, 12)
    ]
    assert counts[2] - counts[1] == counts[1] - counts[0]


def _random_term(rng, depth):
    roll = rng.random()
    if depth and roll < 0.35:
        # f is used with arities 1 and 2, so nested arity clashes occur.
        functor, arity = rng.choice([("f", 1), ("f", 2), ("g", 2)])
        return Compound(functor, tuple(_random_term(rng, depth - 1) for _ in range(arity)))
    if roll < 0.6:
        return rng.choice([A, B])
    return rng.choice([Variable("x", 1), Variable("y", 2)])


def _random_literal(rng):
    arity = rng.choice([1, 1, 2])  # p with two arities: a top-level clash
    return lit("p", *(_random_term(rng, 2) for _ in range(arity)), positive=rng.random() < 0.8)


def _unifies_by_unify(a, b, bindings):
    try:
        return unify(a, b, bindings) is not None
    except ArityMismatchError:
        return False


def test_the_link_test_agrees_with_unify_on_random_pairs():
    # The audit compares ground literals under a store without assignments
    # and unifies any other pair; an arity clash is a no. A test of a list
    # of literals asks whether any of them unifies.
    x = Variable("x", 1)
    stores = {
        "empty": EMPTY_BINDINGS,
        "assignments": unify_terms(x, Compound("f", (A,))),
        "distinct": BindingSet({}, ((x, Variable("y", 2)), (A, B))),
        "distinct-self": BindingSet({}, ((A, A),)),
    }
    rng = random.Random(22)
    kinds = Counter()
    for _ in range(3000):
        a, b = _random_literal(rng), _random_literal(rng)
        if rng.random() < 0.3:
            b = a._replace(args=tuple(a.args))  # an equal literal, another object
        others = [_random_literal(rng) for _ in range(rng.randrange(3))]
        for name, store in stores.items():
            want = _unifies_by_unify(a, b, store)
            unifies = oracle._unifier(store)
            assert unifies([a], b) == want, (name, a, b)
            assert unifies(others + [a], b) == any(
                _unifies_by_unify(e, b, store) for e in others + [a]
            ), (name, others, a, b)
            try:
                unify(a, b, store)
            except ArityMismatchError:
                kinds["clash"] += 1
            grounds = is_ground(a) and is_ground(b)
            kinds[name, "ground" if grounds else "variable", want] += 1
    for name in stores:
        for kind in ("ground", "variable"):
            assert kinds[name, kind, False] > 50, (name, kind, kinds)
            assert kinds[name, kind, True] > 50 or name == "distinct-self", (name, kind, kinds)
    assert kinds["clash"] > 100, kinds


def test_a_capped_audit_of_a_plan_file_unifies_nothing_and_grounds_each_literal_once(
    monkeypatch, tmp_path
):
    cases = bench_workload("scaled", 1, tmp_path).cases
    view, problem = _reloaded(next(c for c in cases if c.pid == "switches-8"))
    unify_calls = 0
    grounded = Counter()
    skolemize = oracle._skolemize

    def counted_unify(*args):
        nonlocal unify_calls
        unify_calls += 1
        return unify(*args)

    def counted_skolemize(literal, table):
        grounded[id(literal)] += 1
        return skolemize(literal, table)

    monkeypatch.setattr(oracle, "unify", counted_unify)
    monkeypatch.setattr(oracle, "_skolemize", counted_skolemize)
    report = verify_soundness(view, problem)
    assert report == oracle.AuditReport((), 5_001)
    assert unify_calls == 0
    # The view holds every literal it grounds, so the ids stay its literals'.
    held = {id(l) for s in view.steps for l in s.preconditions + s.effects}
    assert set(grounded) <= held
    assert set(grounded.values()) == {1}
    assert len(grounded) >= 8


def _paint_domain():
    x = Variable("x")
    return Domain(
        name="paint",
        predicates={"clean": 1, "painted": 1},
        operators=(
            ActionOperator(
                "paint",
                (x,),
                (lit("clean", x),),
                (lit("painted", x), lit("clean", x, positive=False)),
            ),
        ),
    )


def test_brute_force_includes_empty_sequence_for_satisfied_goal():
    domain = _paint_domain()
    problem = Problem("p", "paint", init=(lit("clean", A),), goals=(lit("clean", A),))
    sequences = brute_force(domain, problem, max_len=1)
    assert () in sequences


def test_brute_force_matches_hand_enumeration():
    # One operator, two constants, both must be painted: exactly the two
    # orderings of paint(a) and paint(b), at length two.
    domain = _paint_domain()
    problem = Problem(
        "p",
        "paint",
        init=(lit("clean", A), lit("clean", B)),
        goals=(lit("painted", A), lit("painted", B)),
    )
    sequences = brute_force(domain, problem, max_len=2)
    names = sorted(tuple(s.sid for s in seq) for seq in sequences)
    assert names == [("paint(a)", "paint(b)"), ("paint(b)", "paint(a)")]


def test_brute_force_sequences_reexecute():
    domain = _paint_domain()
    problem = Problem(
        "p", "paint", init=(lit("clean", A), lit("clean", B)), goals=(lit("painted", A),)
    )
    for seq in brute_force(domain, problem, max_len=2):
        trace = execute(problem.init, seq)
        assert trace.ok
        assert lit("painted", A) in trace.final_state


def test_brute_force_decides_a_lifted_goal_by_one_substitution():
    # The planner solves this with link(a, b); a goal variable must range
    # over the final state's atoms, not be looked up as it stands.
    domain, problem = link_world("(bindings (neq ?x ?y))", "(obj a) (obj b)", "(linked a ?w)")
    assert [[s.sid for s in seq] for seq in brute_force(domain, problem, 1)] == [["link(a,b)"]]
    # A negative goal is tested under the substitution its positive goals chose.
    domain, problem = link_world(
        "(bindings (neq ?x ?y))",
        "(obj a) (obj b) (obj c) (linked b a)",
        "(linked a ?w) (not (linked ?w a))",
    )
    assert [[s.sid for s in seq] for seq in brute_force(domain, problem, 1)] == [["link(a,c)"]]


def test_brute_force_refuses_a_negative_goal_with_an_unbound_variable():
    domain, problem = link_world("", "(obj a)", "(linked a a) (not (linked a ?w))")
    with pytest.raises(ValueError, match=r"\(not \(linked a \?w"):
        brute_force(domain, problem, 1)


def test_brute_force_longer_bound_is_a_superset():
    domain = _paint_domain()
    problem = Problem(
        "p", "paint", init=(lit("clean", A), lit("clean", B)), goals=(lit("painted", A),)
    )
    shorter = {tuple(s.sid for s in seq) for seq in brute_force(domain, problem, 1)}
    longer = {tuple(s.sid for s in seq) for seq in brute_force(domain, problem, 2)}
    assert shorter <= longer
    assert len(longer) > len(shorter)


def test_ground_universe_bound_faults():
    domain = _paint_domain()
    problem = Problem("p", "paint", init=(lit("clean", A), lit("clean", B)), goals=())
    with pytest.raises(UniverseTooLargeError):
        ground_actions(domain, problem, max_ground=1)


def test_ground_actions_respect_static_constraints():
    x = Variable("x")
    domain = Domain(
        name="d",
        predicates={"p": 1},
        operators=(
            ActionOperator(
                "act", (x,), (), (lit("p", x),), (BindingConstraint("neq", x, A),)
            ),
        ),
    )
    problem = Problem("p", "d", init=(lit("p", A), lit("p", B)), goals=())
    names = [g.sid for g in ground_actions(domain, problem)]
    assert names == ["act(b)"]


def test_audit_passes_every_shipped_solution():
    for dname, pname in [
        ("discourse.dpd", "lucentio.dpp"),
        ("discourse.dpd", "multirole.dpp"),
        ("sidefx.dpd", "sidefx.dpp"),
        ("switches.dpd", "switches-demo.dpp"),
    ]:
        domain, problem = load_domain(dname), load_problem(pname)
        out = solve(domain, problem)
        assert isinstance(out, Solution)
        report = verify_soundness(out.plan, problem)
        assert report.ok, (pname, report.violations)
        assert report.linearizations_checked >= 1


def test_audit_flags_exactly_one_violation_for_a_deleted_link():
    domain = load_domain("discourse.dpd")
    problem = load_problem("lucentio.dpp")
    out = solve(domain, problem)
    plan = out.plan
    victim = next(l for l in plan.causal_links if plan.step(l.consumer).name == "combine-belief")
    corrupted = plan.evolve(
        causal_links=tuple(l for l in plan.causal_links if l != victim)
    )
    report = verify_soundness(corrupted, problem)
    assert len(report.violations) == 1
    assert report.violations[0].code == "support"


def test_audit_wants_one_or_two_links_for_two_preconditions_that_bind_to_one_literal():
    # Both preconditions of step 2 become (q a) under the bindings, and the
    # planner links each of them: the plan executes, so it is sound. A plan
    # file lists both as (q a), like a precondition repeated verbatim, which
    # the planner links once; so one link is enough too, and three too many.
    x, y = Variable("x", 2), Variable("y", 2)
    bindings = unify_terms(y, A, unify_terms(x, A))
    steps = boundary_steps([lit("q", A)], [lit("p")]) + (
        flat_step(2, "use", pre=(lit("q", x), lit("q", y)), eff=(lit("p"),)),
    )
    links = (CausalLink(0, lit("q", x), 2), CausalLink(0, lit("q", y), 2), CausalLink(2, lit("p"), 1))
    problem = Problem("p", "d", init=(lit("q", A),), goals=(lit("p"),))
    plan = make_plan(steps, {(0, 2), (2, 1)}, links, bindings)
    report = verify_soundness(plan, problem)
    assert report.ok, report.violations
    assert report.linearizations_checked == 1
    assert verify_soundness(plan.evolve(causal_links=links[1:]), problem).ok
    for linked, n in ((links[2:], 0), (links[:1] + links, 3)):
        report = verify_soundness(plan.evolve(causal_links=linked), problem)
        assert [v.message for v in report.violations] == [
            f"precondition (q a) of step 2 has {n} supporting links"
        ] * 2


def test_audit_wants_one_link_for_a_precondition_repeated_verbatim():
    # The planner gives a repeated precondition one link, and the plan
    # executes, so it is sound; with no link both copies are unsupported.
    x = Variable("x", 2)
    steps = boundary_steps([lit("q", A)], [lit("p")]) + (
        flat_step(2, "use", pre=(lit("q", x), lit("q", x)), eff=(lit("p"),)),
    )
    links = (CausalLink(0, lit("q", x), 2), CausalLink(2, lit("p"), 1))
    problem = Problem("p", "d", init=(lit("q", A),), goals=(lit("p"),))
    plan = make_plan(steps, {(0, 2), (2, 1)}, links, unify_terms(x, A))
    report = verify_soundness(plan, problem)
    assert report.ok, report.violations
    report = verify_soundness(plan.evolve(causal_links=links[1:]), problem)
    assert [v.message for v in report.violations] == [
        "precondition (q a) of step 2 has 0 supporting links"
    ] * 2


def test_a_planned_repeated_goal_audits_sound():
    problem = load_problem("switches-demo.dpp")._replace(goals=(lit("on", A), lit("on", A)))
    out = solve(load_domain("switches.dpd"), problem)
    assert isinstance(out, Solution)
    assert sum(l.consumer == 1 for l in out.plan.causal_links) == 1
    report = verify_soundness(out.plan, problem)
    assert report.ok, report.violations


def test_audit_reports_duplicate_and_dangling_step_ids_instead_of_raising():
    problem = load_problem("lucentio.dpp")
    plan = solve(load_domain("discourse.dpd"), problem).plan
    (deco,) = plan.decomposition_links
    link = plan.causal_links[0]
    # A second step under the goal producer's id that undoes the goal: the
    # audit must not execute one copy and threat-scan the other.
    producer = plan.step(next(l.producer for l in plan.causal_links if l.consumer == 1))
    undoer = replace(producer, effects=tuple(e.negate() for e in producer.effects))
    for broken, culprit in (
        (plan.evolve(decomposition_links=(deco._replace(end=99),)), "99"),
        (plan.evolve(decomposition_links=(deco._replace(members=deco.members + (99,)),)), "99"),
        (plan.evolve(causal_links=(replace(link, consumer=99),) + plan.causal_links[1:]), "99"),
        (plan.evolve(steps=(undoer,) + plan.steps), f"step id {producer.sid} names 2 steps"),
    ):
        for audited in (broken, plan_view_from_dict(plan_to_dict(broken, None))):
            report = verify_soundness(audited, problem)
            assert [v.code for v in report.violations] == ["structure"]
            assert culprit in report.violations[0].message


@pytest.mark.parametrize("kind, ids", [("initial", "0, 2"), ("final", "1, 2")])
def test_audit_reports_a_second_initial_or_final_step(kind, ids):
    # Step 2 of the lucentio plan is composite, so it is in no order: as a
    # second boundary step it changes no other check's answer.
    problem = load_problem("lucentio.dpp")
    data = plan_to_dict(solve(load_domain("discourse.dpd"), problem).plan, None)
    assert data["steps"][2]["id"] == 2
    data["steps"][2]["kind"] = kind
    report = verify_soundness(plan_view_from_dict(data), problem)
    assert [(v.code, v.message) for v in report.violations] == [
        ("structure", f"more than one {kind} step: steps {ids}")
    ]


def test_audit_flags_a_plan_for_another_problem():
    domain = load_domain("switches.dpd")
    problem = Problem("t", "switches", init=(lit("off", A),), goals=(lit("on", A),))
    plan = solve(domain, problem).plan
    assert verify_soundness(plan, problem).ok
    for other in (
        Problem("t", "switches", init=(lit("off", B),), goals=(lit("on", A),)),
        Problem("t", "switches", init=(lit("off", A),), goals=(lit("on", A), lit("on", B))),
        Problem("t", "switches", init=(lit("off", A),), goals=(lit("on", B),)),
    ):
        report = verify_soundness(plan, other)
        assert [v.code for v in report.violations] == ["problem"]


def test_audit_flags_an_injected_unordered_deleter():
    domain = load_domain("switches.dpd")
    problem = Problem("t", "switches", init=(lit("off", A),), goals=(lit("on", A),))
    out = solve(domain, problem)
    plan = out.plan
    deleter = flat_step(9, "saboteur", eff=(lit("on", A, positive=False),))
    broken = plan.evolve(
        steps=plan.steps + (deleter,),
        orderings=plan.orderings | {(0, 9), (9, 1)},
        next_sid=10,
    )
    report = verify_soundness(broken, problem)
    assert any(v.code == "threat" for v in report.violations)


def test_audit_flags_subplan_goal_supported_from_outside():
    domain = load_domain("sidefx.dpd")
    problem = load_problem("sidefx.dpp")
    out = solve(domain, problem)
    plan = out.plan
    deco = plan.decomposition_links[0]
    end = plan.step(deco.end)
    # redirect the informed link into the subplan goal to a fresh outside step
    outsider = flat_step(19, "outsider", eff=(lit("informed"),))
    victim = next(
        l for l in plan.causal_links
        if l.consumer == deco.end and l.condition == end.preconditions[0]
    )
    rewired = plan.evolve(
        steps=plan.steps + (outsider,),
        orderings=plan.orderings | {(0, 19), (19, 1), (19, deco.end)},
        causal_links=tuple(l for l in plan.causal_links if l != victim)
        + (CausalLink(19, victim.condition, deco.end),),
        next_sid=20,
    )
    report = verify_soundness(rewired, problem)
    assert any(v.code == "subplan" for v in report.violations)


def test_audit_reports_each_outside_link_into_a_subplan_goal_once():
    problem = load_problem("sidefx.dpp")
    plan = solve(load_domain("sidefx.dpd"), problem).plan
    deco = plan.decomposition_links[0]
    end = plan.step(deco.end)
    goal = end.preconditions[0]
    # The end step lists (informed) twice, and both of its links come from
    # one outside step.
    doubled = replace(end, preconditions=end.preconditions + (goal,))
    outside = CausalLink(19, goal, deco.end)
    rewired = plan.evolve(
        steps=tuple(doubled if s is end else s for s in plan.steps)
        + (flat_step(19, "outsider", eff=(goal,)),),
        orderings=plan.orderings | {(0, 19), (19, 1), (19, deco.end)},
        causal_links=tuple(l for l in plan.causal_links if (l.consumer, l.condition) != (deco.end, goal))
        + (outside, outside),
        next_sid=20,
    )
    report = verify_soundness(rewired, problem)
    assert [v.message for v in report.violations if v.code == "subplan"] == [
        f"goal (informed) of subplan under {deco.parent} supported by outside step 19"
    ] * 2



def _solutions():
    """A solved plan per corpus configuration, then link(a, a), whose two
    distinct preconditions both bind to (obj a)."""
    for d, p in [
        ("discourse", "lucentio"),
        ("discourse", "multirole"),
        ("separation", "separation"),
        ("sidefx", "sidefx"),
        ("switches", "switches-demo"),
    ]:
        domain, problem = load_domain(f"{d}.dpd"), load_problem(f"{p}.dpp")
        for flaw, reuse in itertools.product(FLAW_POLICIES, REUSE_POLICIES):
            config = SearchConfig(max_nodes=3000, flaw_policy=flaw, reuse_policy=reuse)
            out = solve(domain, problem, config)
            if isinstance(out, Solution):
                yield (p, flaw, reuse), out.plan, problem
    domain, problem = link_world("", "(obj a)", "(linked a a)")
    yield "link(a, a)", solve(domain, problem).plan, problem


def test_a_plan_file_audits_as_the_plan_it_was_written_from():
    checked = 0
    for name, plan, problem in _solutions():
        in_memory = verify_soundness(plan, problem)
        reloaded = verify_soundness(plan_view_from_dict(plan_to_dict(plan)), problem)
        assert in_memory.ok, (name, in_memory.violations)
        assert reloaded == in_memory, name
        checked += 1
    assert checked > 30
