"""Plan-space search: causal refinement, decompositional refinement, threat resolution.

The planner runs depth-first with chronological backtracking over an
explicitly ordered successor list, so a fixed configuration makes the search
a pure function of the domain and problem. Flaw selection is a fixed policy,
never a backtrack point; only the choice of resolver branches.

The statistics and the three outcomes are named tuples (see `model`).
Outcomes of two kinds never compare equal: an `Exhausted` has three fields
and the others two, and the first field of a `Solution` is a `Plan`, a
dataclass, while that of a `BudgetExceeded` is a `SearchStats`, a named
tuple. `SearchConfig` stays a frozen dataclass, since it validates its
bounds and policies when it is made.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

from .model import (
    Domain,
    Problem,
    apply_binding_constraints,
    establishments,
    kb_satisfy,
    validate_domain,
    validate_problem,
    DomainValidationError,
)
from .plan import (
    KIND_BEGIN,
    KIND_COMPOSITE,
    KIND_END,
    KIND_INITIAL,
    KIND_PRIMITIVE,
    CausalLink,
    DecompositionLink,
    Flaw,
    OpenCondition,
    Plan,
    Step,
    Threat,
    UnexpandedComposite,
    add_ordering,
    detect_threats,
    init_plan,
    ordering_pairs,
)
from .terms import (
    BindingSet,
    Compound,
    Literal,
    Term,
    add_noncodesignation,
    extensions,
    rename,
    unify,
    unify_terms,
)

FLAW_POLICIES = ("threats-first", "fifo", "lifo")
REUSE_POLICIES = ("both-branches", "prefer-reuse", "prefer-new")


@dataclass(frozen=True)
class SearchConfig:
    max_steps: int = 64
    max_depth: int = 8
    max_nodes: int = 100_000
    flaw_policy: str = "threats-first"
    reuse_policy: str = "both-branches"

    def __post_init__(self):
        if self.max_steps <= 0 or self.max_depth <= 0 or self.max_nodes <= 0:
            raise ValueError("search bounds must be positive")
        if self.flaw_policy not in FLAW_POLICIES:
            raise ValueError(f"unknown flaw policy {self.flaw_policy}")
        if self.reuse_policy not in REUSE_POLICIES:
            raise ValueError(f"unknown reuse policy {self.reuse_policy}")


class SearchStats(NamedTuple):
    nodes_expanded: int
    backtracks: int
    max_stack_depth: int


class Solution(NamedTuple):
    plan: Plan
    stats: SearchStats


# The two failures count in `over_max_steps` the successors the step bound
# dropped: when it is non-zero, a larger `max_steps` may find a solution.
# `unreachable` holds, in goal order, the goals that no initial fact or
# relaxed-reachable operator adds; when it is non-empty no node was expanded.
class Exhausted(NamedTuple):
    stats: SearchStats
    over_max_steps: int = 0
    unreachable: tuple[Literal, ...] = ()


class BudgetExceeded(NamedTuple):
    stats: SearchStats
    over_max_steps: int = 0


SearchOutcome = Solution | Exhausted | BudgetExceeded


def _fresh_step(op, sid: int, iid: int, depth: int) -> tuple[Step, tuple]:
    """A new step `sid` of operator `op`, renamed apart with `iid`, and the
    operator's eq/neq constraints renamed with it."""
    op = rename(op, iid)
    kind = KIND_COMPOSITE if op.composite else KIND_PRIMITIVE
    return Step(sid, op.name, op.params, op.preconditions, op.effects, kind, depth), op.constraints


def _with_membership(plan: Plan, producer: int, consumer: int, changes: dict) -> dict | None:
    """`changes`, the causal successor's, plus the orderings and members that
    pull a producer into the subplan whose goals it establishes; None iff the
    ordering makes a cycle, in which case the successor is never built.

    When a causal link targets an end-subplan step, the producer joins that
    decomposition link's members unless it is the begin step, already a
    member, or already ordered before the whole subplan. The tests read
    `plan`, the parent: the producer-before-consumer pair in `changes` leads
    into the end step, which precedes nothing in the subplan, so it cannot
    change their outcome.
    """
    if plan.step(consumer).kind != KIND_END:
        return changes
    for i, d in enumerate(plan.decomposition_links):
        if d.end != consumer:
            continue
        if producer in d.members or producer == d.begin or producer == d.parent:
            return changes
        if plan.reaches(plan.end_of(producer), d.begin):
            return changes
        pairs = ordering_pairs(plan, d.begin, producer)
        if pairs is None:
            return None
        if pairs:
            changes["orderings"] = changes.get("orderings", plan.orderings) | pairs
        links = list(plan.decomposition_links)
        links[i] = d._replace(members=tuple(sorted(d.members + (producer,))))
        changes["decomposition_links"] = tuple(links)
        return changes
    return changes


def refine_causal(plan: Plan, flaw: OpenCondition, domain: Domain) -> list[Plan]:
    """One successor per reusable producer plus one per applicable operator.

    Each successor adds the causal link, its unifying binding constraints, the
    producer-before-consumer ordering, and for a fresh step its operator's
    bindings and open preconditions (plus an expansion flaw when composite).
    The ordering is tested on `plan`, so a producer it would put in a cycle
    gets no successor and each successor is built with one `Plan.evolve`. An
    empty list is the backtrack signal.
    """
    out = []
    consumer = plan.step(flaw.consumer)
    flaws = tuple(f for f in plan.flaws if f != flaw)
    new_sid, new_iid = plan.next_sid, plan.next_iid
    condition = flaw.condition
    signature = (condition.predicate, condition.positive)
    fresh = tuple(
        _fresh_step(op, new_sid, new_iid, consumer.depth)
        for op in domain.operators
        if signature in {(e.predicate, e.positive) for e in op.effects}
    )
    # Reuse, smallest step id first, of each step with an effect of the
    # condition's predicate and sign, and of the initial step for a negative
    # condition (closed-world support); then a fresh step per operator with
    # such an effect, declaration order. A reused step adds no constraints.
    reusable = tuple(
        (s, ())
        for s in plan.steps
        if s.sid != flaw.consumer
        and (signature in s.signatures or (s.kind == KIND_INITIAL and not condition.positive))
    )
    for s, constraints in reusable + fresh:
        pairs = ordering_pairs(plan, s.sid, flaw.consumer)
        if pairs is None:
            continue
        # Only the first establishment is tried, so a later one that would
        # succeed is never reached: the completeness gap of ROADMAP item 1.
        b = next(establishments(plan.bindings, s.effects, condition, s.kind == KIND_INITIAL), None)
        if b is not None:
            b = apply_binding_constraints(constraints, b)
        if b is None:
            continue
        link = CausalLink(s.sid, condition, flaw.consumer)
        changes = dict(bindings=b, causal_links=plan.causal_links + (link,), flaws=flaws)
        if s.sid == new_sid:
            opened = tuple(OpenCondition(new_sid, p) for p in s.preconditions)
            if s.kind == KIND_COMPOSITE:
                opened += (UnexpandedComposite(new_sid),)
            pairs |= {(0, new_sid), (new_sid, 1)}
            changes.update(
                steps=plan.steps + (s,),
                flaws=flaws + opened,
                next_sid=new_sid + 1,
                next_iid=new_iid + 1,
            )
        if pairs:
            changes["orderings"] = plan.orderings | pairs
        changes = _with_membership(plan, s.sid, flaw.consumer, changes)
        if changes is not None:
            out.append(plan.evolve(**changes))
    return out


def _unify_args(params, args, bindings: BindingSet) -> BindingSet | None:
    """Unify `params` with `args` pairwise, left to right; None on the first failure."""
    for p, a in zip(params, args):
        bindings = unify_terms(p, a, bindings)
        if bindings is None:
            return None
    return bindings


def _step_options(plan, parent, domain, policy, template, bindings, chosen):
    """The realizations of one renamed schema step template, as `extensions` options.

    First each plan step of the template's action that no earlier template
    adopted, smallest id first (none under "prefer-new"); then a fresh step,
    unless the policy is "prefer-reuse" and the plan holds a step of the
    action. A realization is kept only if its params unify with the
    template's args and, for a fresh step, its operator's bindings hold.
    Fresh steps are numbered in template order, after the two boundary steps
    and after the schema's iid, `plan.next_iid`.
    """
    reusable = [
        s
        for s in plan.steps
        if s.name == template.action
        and s.kind in (KIND_PRIMITIVE, KIND_COMPOSITE)
        and s.sid != parent.sid
    ]
    if policy == "prefer-new":
        reusable = []
    adopted = {s.sid for s in chosen}
    for s in reusable:
        if s.sid not in adopted:
            b = _unify_args(s.params, template.args, bindings)
            if b is not None:
                yield b, s
    if policy == "prefer-reuse" and reusable:
        return
    fresh = sum(s.sid >= plan.next_sid for s in chosen)
    op = domain.operator(template.action)
    sid, iid = plan.next_sid + 2 + fresh, plan.next_iid + 1 + fresh
    step, constraints = _fresh_step(op, sid, iid, parent.depth + 1)
    b = _unify_args(step.params, template.args, bindings)
    if b is not None:
        b = apply_binding_constraints(constraints, b)
    if b is not None:
        yield b, step


def _link_options(label_step, open_map, template, bindings, chosen):
    """The assignments of one link template, as `extensions` options.

    Each establishment of the template's condition by the producer, in
    order, paired with each open precondition of the consumer that no
    earlier link took and that unifies with the condition. `open_map` maps
    a step id to the indices of its open preconditions. A choice is
    ((consumer id, precondition index), causal link).
    """
    producer = label_step[template.producer]
    consumer = label_step[template.consumer]
    taken = {key for key, _ in chosen}
    for b1 in establishments(bindings, producer.effects, template.condition, False):
        for j in open_map.get(consumer.sid, ()):
            if (consumer.sid, j) in taken:
                continue
            b2 = unify(template.condition, consumer.preconditions[j], b1)
            if b2 is not None:
                link = CausalLink(producer.sid, consumer.preconditions[j], consumer.sid)
                yield b2, ((consumer.sid, j), link)


def refine_decomposition(
    plan: Plan,
    flaw: UnexpandedComposite,
    domain: Domain,
    facts: tuple[Literal, ...],
    reuse_policy: str = "both-branches",
) -> list[Plan]:
    """One successor per schema, kb-satisfying binding, and step realization choice.

    Adds the begin/end boundary steps (the begin step's effects copy the
    parent's preconditions; the end step's preconditions copy the parent's
    effects), the schema's internal links, orderings and bindings, and the
    decomposition link carrying the instantiated informational constraints.
    The end step's unsupported preconditions open as flaws. An empty list is
    the backtrack signal.
    """
    parent = plan.step(flaw.step)
    out = []
    options = partial(_step_options, plan, parent, domain, reuse_policy)
    for schema in domain.schemata_for(parent.name):
        schema = rename(schema, plan.next_iid)
        b0 = _unify_args(schema.params, parent.params, plan.bindings)
        if b0 is None:
            continue
        for b1 in kb_satisfy(facts, schema.constraints, b0):
            b2 = apply_binding_constraints(schema.bindings, b1)
            if b2 is None:
                continue
            for b3, realized in extensions(schema.steps, options, b2):
                child = _expand(plan, parent, flaw, schema, b3, realized)
                if child is not None:
                    out.append(child)
    return out


def _expand(plan, parent, flaw, schema, bindings, realized):
    """The child in which `realized[i]` realizes the i-th step template of
    `schema`, renamed with `plan.next_iid`; None if the link templates have no
    assignment or the orderings a cycle."""
    begin_sid = plan.next_sid
    end_sid = begin_sid + 1
    new_steps = tuple(s for s in realized if s.sid >= begin_sid)
    depth = parent.depth + 1

    begin = Step(begin_sid, KIND_BEGIN, parent.params, (), parent.preconditions, KIND_BEGIN, depth)
    end = Step(end_sid, KIND_END, parent.params, parent.effects, (), KIND_END, depth)
    label_step = {"start": begin, "final": end}
    label_step.update((t.label, s) for t, s in zip(schema.steps, realized))
    members = [s.sid for s in realized]

    # Which preconditions are open for link templates to establish: all of a
    # fresh step's or the end step's, only the currently open ones of a reused step.
    open_map = {end_sid: range(len(end.preconditions))}
    for s in realized:
        open_map[s.sid] = [
            j
            for j, p in enumerate(s.preconditions)
            if s.sid >= begin_sid or OpenCondition(s.sid, p) in plan.flaws
        ]

    options = partial(_link_options, label_step, open_map)
    assignment = next(extensions(schema.links, options, bindings), None)
    if assignment is None:
        return None
    bindings, chosen = assignment
    schema_links = tuple(link for _, link in chosen)

    # Rewrite existing pairs touching the parent onto its boundaries, keep the
    # parent floating inside its own interval. No other step is the parent.
    pairs = set()
    for a, b in plan.orderings:
        if b == parent.sid:
            pairs.add((a, begin_sid))
        elif a == parent.sid:
            pairs.add((end_sid, b))
        else:
            pairs.add((a, b))
    pairs.add((begin_sid, parent.sid))
    pairs.add((parent.sid, end_sid))

    for m in members:
        pairs.add((begin_sid, plan.begin_of(m)))
        pairs.add((plan.end_of(m), end_sid))
    for a_label, b_label in schema.orderings:
        a, b = label_step[a_label].sid, label_step[b_label].sid
        pairs.add((plan.end_of(a), plan.begin_of(b)))
    for link in schema_links:
        pairs.add((plan.end_of(link.producer), plan.begin_of(link.consumer)))
    for s in new_steps:
        pairs.add((0, s.sid))
        pairs.add((s.sid, 1))

    # Flaw agenda: drop the expansion flaw and any open condition a schema link
    # now supports; open the rest of the fresh members' and end's preconditions.
    closed = {(l.consumer, l.condition) for l in schema_links}
    flaws = [
        f
        for f in plan.flaws
        if f != flaw
        and not (isinstance(f, OpenCondition) and (f.consumer, f.condition) in closed)
    ]
    for s in new_steps:
        for p in s.preconditions:
            if (s.sid, p) not in closed:
                flaws.append(OpenCondition(s.sid, p))
        if s.kind == KIND_COMPOSITE:
            flaws.append(UnexpandedComposite(s.sid))
    for p in end.preconditions:
        if (end_sid, p) not in closed:
            flaws.append(OpenCondition(end_sid, p))

    dlink = DecompositionLink(
        parent=parent.sid,
        begin=begin_sid,
        end=end_sid,
        members=tuple(sorted(members)),
        constraints=schema.constraints,
    )
    child = plan.evolve(
        steps=plan.steps + (begin, end) + new_steps,
        orderings=frozenset(pairs),
        bindings=bindings,
        causal_links=plan.causal_links + schema_links,
        decomposition_links=plan.decomposition_links + (dlink,),
        flaws=tuple(flaws),
        next_sid=end_sid + 1 + len(new_steps),
        next_iid=plan.next_iid + 1 + len(new_steps),
    )
    if not child.is_acyclic:
        return None
    return child


def _separation_pairs(bindings: BindingSet, effect: Literal, negated: Literal):
    """Argument pairs whose non-codesignation would block the harmful unification.

    Walks both argument lists side by side, left to right, through every
    pair of compounds that agree on functor and arity, and collects each
    disagreeing pair of resolved terms once. A pair of shared subterms is
    walked once.
    """
    pairs: list[tuple[Term, Term]] = []
    seen = set()
    stack = list(zip(effect.args, negated.args))[::-1]
    while stack:
        x, y = stack.pop()
        x = bindings.walk(x)
        y = bindings.walk(y)
        if x is y:
            continue
        if (
            isinstance(x, Compound)
            and isinstance(y, Compound)
            and x.functor == y.functor
            and len(x.args) == len(y.args)
        ):
            if (id(x), id(y)) not in seen:
                seen.add((id(x), id(y)))
                stack.extend(zip(reversed(x.args), reversed(y.args)))
        elif x != y and not any(
            bindings.codesignates(x, a) and bindings.codesignates(y, b) for a, b in pairs
        ):
            pairs.append((bindings.resolve(x), bindings.resolve(y)))
    return pairs


def resolve_threat(plan: Plan, flaw: Threat) -> list[Plan]:
    """Promotion, demotion, then one separation successor per blocking pair.

    `flaw` must be a current threat of `plan`, as `detect_threats(plan)`
    reports it. Every returned successor provably removes this (step, link)
    threat; an empty list is the backtrack signal.
    """
    link = flaw.link
    promoted = add_ordering(plan, link.consumer, flaw.step)
    demoted = add_ordering(plan, flaw.step, link.producer)
    out = [p for p in (promoted, demoted) if p is not None]
    negated = link.negated
    effects = plan.step(flaw.step).effects
    for e in effects:
        if unify(e, negated, plan.bindings) is None:
            continue
        for x, y in _separation_pairs(plan.bindings, e, negated):
            b = add_noncodesignation(plan.bindings, x, y)
            # A pair that blocks this effect may leave another effect of the
            # same step harmful; keep only separations that disarm them all.
            if b is not None and all(unify(f, negated, b) is None for f in effects):
                out.append(plan.evolve(bindings=b))
    return out


def _elide_vertex(pairs: set, sid: int) -> set:
    """Remove sid from the ordering graph, keeping the order it mediated."""
    into = {a for a, b in pairs if b == sid}
    out_of = {b for a, b in pairs if a == sid}
    kept = {(a, b) for a, b in pairs if sid not in (a, b)}
    kept.update((a, b) for a in into for b in out_of if a != b)
    return kept


def prune_unused(plan: Plan) -> Plan:
    """Drop primitive steps with no outgoing causal link, to fixpoint.

    Boundary steps survive. Removing a step removes its incoming links and
    decomposition memberships; orderings it mediated between surviving steps
    are preserved, so the pruned plan admits no new linearizations.
    """
    while True:
        producers = {l.producer for l in plan.causal_links}
        removable = {
            s.sid for s in plan.steps if s.kind == KIND_PRIMITIVE and s.sid not in producers
        }
        if not removable:
            return plan
        pairs = set(plan.orderings)
        for sid in sorted(removable):
            pairs = _elide_vertex(pairs, sid)
        plan = plan.evolve(
            steps=tuple(s for s in plan.steps if s.sid not in removable),
            orderings=frozenset(pairs),
            causal_links=tuple(l for l in plan.causal_links if l.consumer not in removable),
            decomposition_links=tuple(
                d._replace(members=tuple(m for m in d.members if m not in removable))
                for d in plan.decomposition_links
            ),
            flaws=tuple(
                f
                for f in plan.flaws
                if not (isinstance(f, OpenCondition) and f.consumer in removable)
            ),
        )


def _select_flaw(plan: Plan, threats: list[Threat], policy: str):
    """The first threat, else the agenda's first flaw ("threats-first"); the
    agenda's first ("fifo") or last ("lifo") flaw, else the first threat."""
    agenda = plan.flaws[::-1] if policy == "lifo" else plan.flaws
    queue = (threats, agenda) if policy == "threats-first" else (agenda, threats)
    return next(itertools.chain(*queue), None)


def successors(
    plan: Plan, flaw: Flaw, domain: Domain, facts: tuple[Literal, ...], config: SearchConfig
) -> tuple[list[Plan], int]:
    """The resolvers of `flaw`, in search order, that stay within the depth and
    step bounds, and the number of resolvers the step bound dropped.

    A composite at the depth bound gets no expansion; a successor with more
    than `max_steps` steps is dropped. An empty list is the backtrack signal.
    """
    if isinstance(flaw, Threat):
        out = resolve_threat(plan, flaw)
    elif isinstance(flaw, OpenCondition):
        out = refine_causal(plan, flaw, domain)
    elif plan.step(flaw.step).depth + 1 > config.max_depth:
        return [], 0
    else:
        out = refine_decomposition(plan, flaw, domain, facts, config.reuse_policy)
    kept = [p for p in out if len(p.steps) <= config.max_steps]
    return kept, len(out) - len(kept)


def _relaxed_reachable(domain: Domain, init: tuple[Literal, ...]) -> tuple[set[str], set[str]]:
    """The predicates and operator names reachable from `init` when delete
    effects, kb constraints, eq/neq bindings and the bounds are ignored.

    A least fixpoint: a predicate is reachable if an initial fact has it or a
    reachable operator adds it; an operator is reachable if each positive
    precondition's predicate is, and a composite also needs one schema whose
    step actions all are. Negative conditions always hold (closed world).
    Every step of a solution is reachable, by induction along its order, so
    the search may drop the rest.
    """
    predicates = {lit.predicate for lit in init}
    operators: set[str] = set()
    grown = True
    while grown:
        grown = False
        for op in domain.operators:
            if op.name in operators or any(
                p.positive and p.predicate not in predicates for p in op.preconditions
            ):
                continue
            if op.composite and not any(
                all(t.action in operators for t in s.steps) for s in domain.schemata_for(op.name)
            ):
                continue
            operators.add(op.name)
            predicates.update(e.predicate for e in op.effects if e.positive)
            grown = True
    return predicates, operators


def solve(domain: Domain, problem: Problem, config: SearchConfig | None = None) -> SearchOutcome:
    """Depth-first refinement search; deterministic for a fixed configuration.

    Returns Solution when a plan with an empty flaw agenda is reached (after
    pruning unused steps), Exhausted when the bounded space holds no solution,
    and BudgetExceeded when the node budget runs out first; either of the last
    two counts the successors the step bound dropped. Only relaxed-reachable
    operators and schemata are searched, and a positive goal whose predicate
    is unreachable ends the search before the first node. Invalid input
    raises `DomainValidationError`, one argument per validator line.
    """
    config = config or SearchConfig()
    issues = validate_domain(domain) + validate_problem(domain, problem)
    if issues:
        raise DomainValidationError(*issues)
    predicates, operators = _relaxed_reachable(domain, problem.init)
    unreachable = tuple(g for g in problem.goals if g.positive and g.predicate not in predicates)
    if unreachable:
        return Exhausted(SearchStats(0, 0, 0), unreachable=unreachable)
    if len(operators) < len(domain.operators):
        domain = replace(
            domain,
            operators=tuple(op for op in domain.operators if op.name in operators),
            schemata=tuple(
                s
                for s in domain.schemata
                if s.action in operators and all(t.action in operators for t in s.steps)
            ),
        )

    nodes = 0
    backtracks = 0
    max_stack_depth = 0
    over_max_steps = 0
    stack: list = [iter([init_plan(problem)])]
    while stack:
        max_stack_depth = max(max_stack_depth, len(stack))
        plan = next(stack[-1], None)
        if plan is None:
            stack.pop()
            backtracks += 1
            continue
        nodes += 1
        if nodes > config.max_nodes:
            stats = SearchStats(nodes - 1, backtracks, max_stack_depth)
            return BudgetExceeded(stats, over_max_steps)
        threats = detect_threats(plan)
        flaw = _select_flaw(plan, threats, config.flaw_policy)
        if flaw is None:
            return Solution(
                prune_unused(plan), SearchStats(nodes, backtracks, max_stack_depth)
            )
        kept, dropped = successors(plan, flaw, domain, problem.facts, config)
        over_max_steps += dropped
        stack.append(iter(kept))
    return Exhausted(SearchStats(nodes, backtracks, max_stack_depth), over_max_steps)
