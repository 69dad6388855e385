"""The plan data structure: steps, partial order, causal links, decomposition links, flaws.

A plan is an immutable snapshot. Operations that would mutate it return a new
plan sharing structure with its parent, so search branches never interfere.

Expanded composite steps are phantom: a composite's temporal extent is the
interval between its begin and end boundary steps. Ordering constraints are
therefore recorded between interval endpoints (end of the earlier step,
begin of the later one), and threat detection asks whether a step's interval
can intersect the protected span of a causal link.

Incremental maintenance. A plan carries its ordering closure and, once
`detect_threats` has asked for them, its threats. One routine,
`_extend_closure`, derives every closure: each new pair (a, b) adds b and
everything b reaches to a and to every step that reaches a. A plan that is
constructed, pruning's included, extends an empty closure; a child of
`Plan.evolve`, expansions included, extends its parent's by the pairs it
adds, since any pair it drops is implied by those. A child that also keeps
its parent's causal links as a prefix derives its threats from its parent's,
if those are known. An interval it adds must come with the pairs on the
expanded step moved onto its boundaries, as an expansion's do. Then "possibly
between" can only become false (the closure only grows) and `unify` can only
start failing (the bindings only grow: `evolve` must only receive bindings
that extend the parent's), so no old (link, step) pair becomes a threat. A
step is a threat candidate for a link only if its effect signatures, the
(predicate, sign) pairs of its effects, include the link's `signature`, that
of its negated condition: no other effect can unify with it. So the child
visits only three kinds of link: each new link, tested against all steps;
each old link whose signature a new step carries, tested against the new
steps; and, when the bindings or orderings changed, each old link with known
threats, which are re-tested. Every other link keeps the parent's threats.
Only a plan built from nothing (the search's root, a pruned solution) scans
its threats from scratch; the tests' invariant checker compares closure and
threats with its own from-scratch computation.

Record cost model. Decomposition links and flaws are named tuples (see
`model`): cheap to define at import, hashed as the tuple of their fields as
the frozen dataclasses were, read-only, and copied with `._replace`. Flaws of
two kinds never compare equal: an `UnexpandedComposite` has one field and the
others two, and the second field of an `OpenCondition` is a literal, a named
tuple, while that of a `Threat` is a `CausalLink`, a dataclass, which equals
only a `CausalLink`. Three records stay frozen dataclasses because they
derive state when made or later: `Plan` (its index, closure and threats),
`Step` (its cached effect `signatures`) and `CausalLink` (its `negated`
condition and that condition's `signature`).
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

from .model import Problem
from .terms import BindingSet, EMPTY_BINDINGS, Literal, Term, rename, unify

KIND_INITIAL = "initial"
KIND_FINAL = "final"
KIND_PRIMITIVE = "primitive"
KIND_COMPOSITE = "composite"
KIND_BEGIN = "begin-subplan"
KIND_END = "end-subplan"


@dataclass(frozen=True)
class Step:
    sid: int
    name: str
    params: tuple[Term, ...]
    preconditions: tuple[Literal, ...]
    effects: tuple[Literal, ...]
    kind: str
    depth: int = 0

    @cached_property
    def signatures(self) -> frozenset[tuple[str, bool]]:
        """The (predicate, sign) of each effect. Only a step with the
        signature of a link's negated condition can threaten the link."""
        return frozenset((e.predicate, e.positive) for e in self.effects)


@dataclass(frozen=True)
class CausalLink:
    """The producer's effect establishes the consumer's precondition `condition`.

    An effect threatens the link only if it unifies with `negated`, whose
    (predicate, sign) is `signature`; both are set when the link is made.
    """

    producer: int
    condition: Literal
    consumer: int

    def __post_init__(self):
        negated = self.condition.negate()
        object.__setattr__(self, "negated", negated)
        object.__setattr__(self, "signature", (negated.predicate, negated.positive))


class DecompositionLink(NamedTuple):
    """Binds a composite parent to the boundary steps and members of its subplan.

    The parent's interval runs from `begin` to `end`. The begin step's effects
    are the parent's preconditions and the end step's preconditions its
    effects, index for index. A step id may be a member of more than one
    decomposition link (plans are DAGs, not trees).
    """

    parent: int
    begin: int
    end: int
    members: tuple[int, ...]
    constraints: tuple[Literal, ...]


class OpenCondition(NamedTuple):
    consumer: int
    condition: Literal


class UnexpandedComposite(NamedTuple):
    step: int


class Threat(NamedTuple):
    step: int
    link: CausalLink


Flaw = OpenCondition | UnexpandedComposite | Threat


@dataclass(frozen=True)
class Plan:
    steps: tuple[Step, ...]
    orderings: frozenset[tuple[int, int]]
    bindings: BindingSet
    causal_links: tuple[CausalLink, ...]
    decomposition_links: tuple[DecompositionLink, ...]
    flaws: tuple[OpenCondition | UnexpandedComposite, ...]
    next_sid: int
    next_iid: int
    domain_name: str = ""
    problem_name: str = ""

    def __post_init__(self):
        index, reach = _extend_closure(None, self.steps, self.orderings)
        # _intervals: each expanded parent's (begin, end); _threats: one tuple
        # of threats per causal link, once known; _base: the parent whose
        # threats this plan's derive from.
        vars(self).update(
            _index=index, _reach=reach, _threats=None, _base=None,
            _intervals=_intervals_of(self.decomposition_links),
        )

    def step(self, sid: int) -> Step:
        try:
            return self._index[sid]
        except KeyError:
            raise ValueError(f"no step with id {sid} in plan") from None

    def reaches(self, a: int, b: int) -> bool:
        """True iff a is strictly ordered before b."""
        return b in self._reach.get(a, ())

    def begin_of(self, sid: int) -> int:
        return self._intervals.get(sid, (sid, sid))[0]

    def end_of(self, sid: int) -> int:
        return self._intervals.get(sid, (sid, sid))[1]

    @property
    def is_acyclic(self) -> bool:
        return all(sid not in reached for sid, reached in self._reach.items())

    @property
    def initial(self) -> Step:
        return self.steps[0]

    @property
    def final(self) -> Step:
        return self.steps[1]

    def evolve(self, **changes) -> "Plan":
        """A copy with `changes`, sharing or extending the parent's derived state.

        `bindings`, if given, must extend the parent's; a step added here may
        only be ordered by pairs added here; and a pair dropped here must be
        implied by pairs added here, as when an expansion replaces (a, parent)
        by (a, begin) and (begin, parent). A child that drops steps is built
        afresh. Any other extends the parent's closure by the pairs it adds,
        and derives its threats from the parent's when those are known and the
        child keeps the links as a prefix; an interval added here must come
        with its parent's pairs moved onto its boundaries (module docstring).
        """
        unknown = changes.keys() - _PLAN_FIELDS
        if unknown:
            raise TypeError(f"Plan has no field {sorted(unknown)[0]}")
        if "steps" in changes and not _extends(changes["steps"], self.steps):
            return replace(self, **changes)
        child = object.__new__(Plan)
        state = vars(child)
        state.update(vars(self), **changes)
        if "decomposition_links" in changes:
            state["_intervals"] = _intervals_of(child.decomposition_links)
        if child.steps is not self.steps or child.orderings is not self.orderings:
            fresh, added = child.steps[len(self.steps):], child.orderings - self.orderings
            state["_index"], state["_reach"] = _extend_closure(self, fresh, added)
        derives = self._threats is not None and _extends(child.causal_links, self.causal_links)
        state.update(_threats=None, _base=self if derives else None)
        return child


def _extends(new: tuple, old: tuple) -> bool:
    """True iff `new` starts with `old`."""
    return new is old or new[: len(old)] == old


_PLAN_FIELDS = frozenset(f.name for f in fields(Plan))


def _intervals_of(decomposition_links) -> dict[int, tuple[int, int]]:
    return {d.parent: (d.begin, d.end) for d in decomposition_links}


def _extend_closure(base: Plan | None, fresh, pairs):
    """The step index and closure of `base`'s orderings plus `pairs` over its
    steps plus the `fresh` ones; with no `base`, of `pairs` over `fresh`. A
    pair whose first step is no step orders nothing."""
    index = dict(base._index) if base is not None else {}
    reach = dict(base._reach) if base is not None else {}
    for s in fresh:
        index[s.sid] = s
        reach[s.sid] = frozenset()
    for a, b in pairs:
        if a not in index or b in reach[a]:
            continue
        gain = reach.get(b, frozenset()) | {b}
        for sid, reached in reach.items():
            if sid == a or a in reached:
                reach[sid] = reached | gain
    return index, reach


def init_plan(problem: Problem) -> Plan:
    """Null initial step carrying the initial state, null final step carrying the goals."""
    initial = Step(0, "initial", (), (), tuple(problem.init), KIND_INITIAL)
    goals = rename(problem.goals, 1)
    final = Step(1, "final", (), goals, (), KIND_FINAL)
    return Plan(
        steps=(initial, final),
        orderings=frozenset({(0, 1)}),
        bindings=EMPTY_BINDINGS,
        causal_links=(),
        decomposition_links=(),
        flaws=tuple(OpenCondition(1, g) for g in goals),
        next_sid=2,
        next_iid=2,
        domain_name=problem.domain_name,
        problem_name=problem.name,
    )


def detect_threats(plan: Plan) -> list[Threat]:
    """Steps whose interval may intersect a link's protected span with a conflicting effect.

    The protected span runs from the producer's establishment point (its end
    boundary if expanded) to the consumer's start point (its begin boundary).
    Threats come in causal-link order, then step order, in a fresh list. They
    are computed once per plan, from its parent's when the plan extends a
    parent whose threats are known (see the module docstring).
    """
    if plan._threats is None:
        vars(plan).update(_threats=_scan_threats(plan, plan._base), _base=None)
    return [t for threats in plan._threats for t in threats]


def _scan_threats(plan: Plan, base: Plan | None = None) -> tuple[tuple[Threat, ...], ...]:
    """The threats of each causal link; from scratch, or from those of `base`,
    the parent that `plan` extends."""
    if base is None:
        return tuple(_link_threats(plan, link, (), plan.steps) for link in plan.causal_links)
    fresh = plan.steps[len(base.steps):]
    signatures = frozenset().union(*(s.signatures for s in fresh))
    retest = plan.bindings is not base.bindings or plan.orderings is not base.orderings
    out = [
        _link_threats(plan, link, kept, fresh, retest)
        if link.signature in signatures or (retest and kept)
        else kept
        for link, kept in zip(plan.causal_links, base._threats)
    ]
    for link in plan.causal_links[len(out):]:
        out.append(_link_threats(plan, link, (), plan.steps))
    return tuple(out)


def _link_threats(
    plan: Plan,
    link: CausalLink,
    kept: tuple[Threat, ...],
    candidates: tuple[Step, ...],
    retest: bool = False,
) -> tuple[Threat, ...]:
    """The threats `kept` that still hold (all of them unless `retest`), then
    one per step of `candidates` that threatens `link`."""
    p_end, c_begin = plan.end_of(link.producer), plan.begin_of(link.consumer)

    def threatens(s: Step) -> bool:
        return link.signature in s.signatures and _threatens(plan, s, link.negated, p_end, c_begin)

    if retest:
        kept = tuple(t for t in kept if threatens(plan.step(t.step)))
    return kept + tuple(Threat(s.sid, link) for s in candidates if threatens(s))


def _threatens(plan: Plan, s: Step, negated: Literal, p_end: int, c_begin: int) -> bool:
    """Whether `s` may fall inside a link's span, from its producer's end
    `p_end` to its consumer's begin `c_begin`, with an effect that unifies
    with `negated`. The producer and the consumer themselves never do."""
    s_end = plan.end_of(s.sid)
    if s_end == p_end or plan.reaches(s_end, p_end):
        return False
    s_begin = plan.begin_of(s.sid)
    if c_begin == s_begin or plan.reaches(c_begin, s_begin):
        return False
    return any(unify(e, negated, plan.bindings) is not None for e in s.effects)


def add_ordering(plan: Plan, before: int, after: int) -> Plan | None:
    """Order `before` strictly before `after`; None iff that creates a cycle.

    The constraint is recorded between interval endpoints so that everything
    ordered against an expanded composite is ordered against its whole subplan.
    """
    pairs = ordering_pairs(plan, before, after)
    if not pairs:
        return None if pairs is None else plan
    return plan.evolve(orderings=plan.orderings | pairs)


def ordering_pairs(plan: Plan, before: int, after: int) -> frozenset[tuple[int, int]] | None:
    """The ordering pairs `add_ordering` would add: none if `before` already
    precedes `after`, one between interval endpoints otherwise; None iff the
    order makes a cycle. A step id not in `plan` is ordered against nothing."""
    a = plan.end_of(before)
    b = plan.begin_of(after)
    if a == b or plan.reaches(b, a):
        return None
    return frozenset() if plan.reaches(a, b) else frozenset({(a, b)})
