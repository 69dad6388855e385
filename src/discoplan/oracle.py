"""Independent checks of a plan: the soundness auditor, and an order-at-a-time executor.

This module deliberately shares only the term/literal/binding layer with the
planner. Reachability, linearization enumeration, and threat scanning are
reimplemented here from the raw plan data so that an agreeing answer is
evidence, not an echo.

The audit executes linearizations by a depth-first walk that carries the
state down the tree of orders and reuses each clean subtree it has walked,
so each distinct (unplaced steps, state) pair is expanded once rather than
once per order, and a pair already walked costs a lookup, not a call.
When no two unplaced steps interfere (neither precedes the other, and
neither touches an atom the other changes), every order of them reaches
one state, so one O(k) pass over the k steps decides whether all k!
orders are clean, and a clean set's orders are counted, not walked
(partial-order reduction, Godefroid 1996).
Each literal object is grounded once per audit and each ground atom gets
one bit, and states and unplaced sets are ints used as bit sets, so a pair
costs one int transition per step that can come next. The link checks are
indexed: support costs one `apply` per precondition and per link, and a
link's produce and threat checks test its condition only against effects
of the same predicate, sign and arity. Whether link tests compare or
unify is decided once per plan: they compare when the store is empty and
the plan is ground, and else every test calls `unify`.
`execute` runs one order at a time; the benchmark traces it.

Traces, plan views and reports are named tuples (see `model`).
"""
from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterable, NamedTuple, Sequence

from .model import Problem
from .terms import (
    ArityMismatchError,
    BindingSet,
    Compound,
    Constant,
    EMPTY_BINDINGS,
    Literal,
    Term,
    Variable,
    apply,
    is_ground,
    rebuild,
    unify,
)


class TraceEntry(NamedTuple):
    step_id: object
    before: frozenset[Literal]
    after: frozenset[Literal]


class ExecutionTrace(NamedTuple):
    entries: tuple[TraceEntry, ...]
    outcome: str  # "success" | "failed-precondition"
    initial_state: frozenset[Literal] = frozenset()
    failed_step: object = None
    failed_condition: Literal | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == "success"

    @property
    def final_state(self) -> frozenset[Literal]:
        return self.entries[-1].after if self.entries else self.initial_state


def _holds(state: frozenset[Literal], condition: Literal) -> bool:
    if condition.positive:
        return condition in state
    return condition.atom() not in state


def _transition(state, deletes, adds):
    """The state after one step: every state change in this module goes through here.

    One expression for both kinds of state: frozensets of literals in
    `execute`, ints used as bit sets in the audit.
    """
    return (state - (state & deletes)) | adds


def _progress(state: frozenset[Literal], effects) -> frozenset[Literal]:
    """The state after `effects` under add/delete semantics."""
    deletes = {e.atom() for e in effects if not e.positive}
    return _transition(state, deletes, {e for e in effects if e.positive})


def execute(initial_state: Iterable[Literal], steps: Sequence) -> ExecutionTrace:
    """Apply ground primitive steps in order under add/delete semantics.

    Fails at the first step with an unsatisfied precondition: a positive
    literal absent from the state, or a negative one present (closed world).
    """
    initial = frozenset(initial_state)
    state = initial
    entries: list[TraceEntry] = []
    for pos, step in enumerate(steps):
        sid = getattr(step, "sid", pos)
        for lit in tuple(step.preconditions) + tuple(step.effects):
            if not is_ground(lit):
                raise ValueError(f"step {sid} is not ground: {lit}")
        for p in step.preconditions:
            if not _holds(state, p):
                return ExecutionTrace(tuple(entries), "failed-precondition", initial, sid, p)
        after = _progress(state, step.effects)
        entries.append(TraceEntry(sid, state, after))
        state = after
    return ExecutionTrace(tuple(entries), "success", initial)


# ---------------------------------------------------------------------------
# Soundness audit
# ---------------------------------------------------------------------------


class PlanView(NamedTuple):
    """A plan as raw data, e.g. reloaded from an emitted file.

    A reloaded view holds the planner's own step and link records, but the
    audit reads only the fields a plan file writes, never what the planner
    derives from them, so its answers do not echo the planner's.
    """

    steps: tuple
    orderings: frozenset[tuple[int, int]]
    causal_links: tuple
    decomposition_links: tuple
    bindings: BindingSet = EMPTY_BINDINGS


class Violation(NamedTuple):
    code: str
    message: str


class AuditReport(NamedTuple):
    violations: tuple[Violation, ...]
    linearizations_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def _reachability(sids, pairs) -> dict[int, set[int]]:
    succ: dict[int, set[int]] = {s: set() for s in sids}
    for a, b in pairs:
        if a in succ:
            succ[a].add(b)
    out = {}
    for s in sids:
        seen: set[int] = set()
        stack = list(succ[s])
        while stack:
            n = stack.pop()
            if n not in seen and n in succ:
                seen.add(n)
                stack.extend(succ[n])
        out[s] = seen
    return out


def _skolemize(lit: Literal, table: dict[Variable, Constant]) -> Literal:
    """`lit` with each variable made a constant of its own; `lit` itself if it has none."""
    if is_ground(lit):
        return lit

    def skolem(t: Term) -> Term:
        if type(t) is not Variable:
            return t
        return table.setdefault(t, Constant(f"sk:{t.name}:{t.iid}"))

    memo: dict = {}
    return Literal(lit.predicate, tuple(rebuild(a, skolem, memo) for a in lit.args), lit.positive)


def _match_all(patterns, terms, env: dict[Variable, Term]) -> bool:
    """One-way matching: extend env so that each pattern under env equals its term."""
    return len(patterns) == len(terms) and all(
        _match(p, t, env) for p, t in zip(patterns, terms)
    )


def _match(pattern, term, env: dict[Variable, Term]) -> bool:
    if isinstance(pattern, Variable):
        return env.setdefault(pattern, term) == term
    if isinstance(pattern, Literal):
        return (
            isinstance(term, Literal)
            and (pattern.predicate, pattern.positive) == (term.predicate, term.positive)
            and _match_all(pattern.args, term.args, env)
        )
    if isinstance(pattern, Compound):
        return (
            isinstance(term, Compound)
            and pattern.functor == term.functor
            and _match_all(pattern.args, term.args, env)
        )
    return pattern == term


def _masks(conditions) -> tuple[int, int]:
    """The bits of the positive conditions' atoms, and of the negative ones'."""
    on = off = 0
    for _, b, positive in conditions:
        if positive:
            on |= b
        else:
            off |= b
    return on, off


def _interference(steps) -> dict[int, tuple[int, int, int, int, int]]:
    """Per step bit: the bits of the steps it interferes with, then its `on`,
    `off`, `deletes` and `adds` masks.

    Two steps interfere when one precedes the other, or when one changes an
    atom that the other reads or changes; two steps that only read an atom
    do not. The masks come from one pass over each step's atoms, which
    notes per atom the steps that read it and the steps that change it; no
    pair of steps is visited. Of the orderings, a step's mask holds only its
    predecessors, which is enough for a test that looks at every step of a
    set: of two ordered steps, the later one's mask holds the earlier one.
    """
    readers: dict[int, int] = {}
    writers: dict[int, int] = {}
    for _, bit, _, (conditions, _, _, deletes, adds) in steps:
        for _, atom, _ in conditions:
            readers[atom] = readers.get(atom, 0) | bit
        changed = deletes | adds
        while changed:
            atom = changed & -changed
            writers[atom] = writers.get(atom, 0) | bit
            changed ^= atom
    out = {}
    for _, bit, predecessors, (conditions, on, off, deletes, adds) in steps:
        others = predecessors
        for _, atom, _ in conditions:
            others |= writers.get(atom, 0)
        changed = deletes | adds
        while changed:
            atom = changed & -changed
            others |= readers.get(atom, 0) | writers[atom]
            changed ^= atom
        out[bit] = (others & ~bit, on, off, deletes, adds)
    return out


def _check_orders(steps, cap: int, state: int, goals) -> tuple[list[Violation], int]:
    """Execute every order of the steps that respects their predecessors, sharing subtrees.

    Orders are enumerated depth first, the unplaced steps tried in ascending
    id order, and the walk stops taking new orders once more than `cap` are
    taken. The state after a prefix is computed once and carried down to all
    of its completions; a prefix that fails a precondition is not executed
    further, but each of its completions is still taken and reported.

    The completions of a prefix that has not failed depend only on the steps
    it leaves unplaced and the state it reaches. So a subtree walked without a
    violation is stored under that pair with its number of orders, and a
    later prefix reaching the same pair adds that number, up to the cap.
    (A subtree the cap cut short is stored too, but nothing is walked once
    the cap is passed, so it is never read.) `walk` is called once per
    distinct (unplaced set, state) pair reached: for each step that can come
    next it tests the step, applies it with one state transition and looks
    the pair it reaches up itself, so a stored subtree costs no call. The
    cost is one transition per step that can come next after each distinct
    pair, however many orders pass through the pair; failing prefixes are
    still walked order by order, by `fail`.

    One rule counts a subtree instead of walking it. When no two of the k
    unplaced steps interfere (see `_interference`), no step changes what
    another reads or changes, so every order of them reaches one state, and
    each step's conditions hold in every order exactly when they hold now.
    If they hold now and the goals hold in that state, all k! orders are
    clean: the pair is stored with k! orders and the count grows by k!, up
    to the cap, as for a stored subtree. That costs O(k) int operations and
    one transition. Otherwise the subtree is walked as above, so each
    failing order is still reported; the test stops at the first unplaced
    step that interferes with another, so a pair whose steps interfere pays
    little for it. The violations and the count are those of the full walk
    at every cap, since the rule replaces only subtrees in which the walk
    reports nothing.

    Sets are ints used as bit sets. `steps` lists `(sid, bit, predecessors,
    step)` in ascending id order: `bit` is the step's own bit, and a step can
    be placed once no bit of `predecessors` is left unplaced, so the unplaced
    set is an int and so is the memo key `(unplaced, state)`. A state has
    one bit per interned ground atom. `step` is `(conditions, on, off,
    deletes, adds)`: each condition and goal is `(literal, bit, positive)`,
    and the conditions hold when every bit of `on` is set and none of `off`.
    Placing a step, or testing one, is then a few int operations.
    """
    violations: list[Violation] = []
    placed: list[int] = []
    count = 0
    clean: dict[tuple[int, int], int] = {}
    interference = _interference(steps)
    goals_on, goals_off = _masks(goals)

    def end(state: int) -> None:
        nonlocal count
        count += 1
        violations.extend(
            Violation("goal", f"linearization {tuple(placed)} ends without goal {g}")
            for g, bit, positive in goals
            if bool(state & bit) != positive
        )

    def fail(left: int, failure: str) -> None:
        nonlocal count
        if not left:
            count += 1
            violations.append(Violation("execution", f"linearization {tuple(placed)} {failure}"))
            return
        for sid, bit, predecessors, _ in steps:
            if count > cap:
                return
            if left & bit and not left & predecessors:
                placed.append(sid)
                fail(left ^ bit, failure)
                placed.pop()

    def independent_and_clean(left: int, state: int) -> bool:
        """Whether no two steps of `left` interfere and every order of them
        from `state` executes and ends with the goals true."""
        on = off = deletes = adds = 0
        rest = left
        while rest:
            bit = rest & -rest
            others, step_on, step_off, step_deletes, step_adds = interference[bit]
            if others & left:
                return False
            on |= step_on
            off |= step_off
            deletes |= step_deletes
            adds |= step_adds
            rest ^= bit
        if state & on != on or state & off:
            return False
        after = _transition(state, deletes, adds)
        return after & goals_on == goals_on and not after & goals_off

    def walk(left: int, state: int) -> None:
        nonlocal count
        # The lowest unplaced step's mask turns away most sets whose steps
        # interfere without a call.
        if not interference[left & -left][0] & left and independent_and_clean(left, state):
            orders = clean[left, state] = factorial(left.bit_count())
            count = min(count + orders, cap + 1)
            return
        first, found = count, len(violations)
        for sid, bit, predecessors, step in steps:
            if count > cap:
                break
            if not left & bit or left & predecessors:
                continue
            conditions, on, off, deletes, adds = step
            rest = left ^ bit
            if state & on != on or state & off:
                lit = next(l for l, b, positive in conditions if bool(state & b) != positive)
                placed.append(sid)
                fail(rest, f"fails at step {sid} needing {lit}")
                placed.pop()
                continue
            after = _transition(state, deletes, adds)
            # No pair with nothing left unplaced is stored.
            known = clean.get((rest, after))
            if known is not None:
                count += known
                if count > cap:
                    count = cap + 1
                continue
            placed.append(sid)
            if rest:
                walk(rest, after)
            else:
                end(after)
            placed.pop()
        if len(violations) == found:
            clean[left, state] = count - first

    left = sum(bit for _, bit, _, _ in steps)
    if left:
        walk(left, state)
    else:
        end(state)
    return violations, count


def _id_faults(plan, steps) -> list[str]:
    """One message per step id shared by several steps, per link naming a missing
    step, and per kind of boundary step the plan has more than one of."""
    out = [
        f"step id {sid} names {n} steps"
        for sid, n in Counter(s.sid for s in plan.steps).items()
        if n > 1
    ]
    out += [
        f"link references missing step: {l}"
        for l in plan.causal_links
        if l.producer not in steps or l.consumer not in steps
    ]
    for d in plan.decomposition_links:
        missing = [sid for sid in (d.parent, d.begin, d.end, *d.members) if sid not in steps]
        if missing:
            out.append(
                f"decomposition link of step {d.parent} references missing step {missing[0]}"
            )
    for kind in ("initial", "final"):
        sids = [str(s.sid) for s in plan.steps if s.kind == kind]
        if len(sids) > 1:
            out.append(f"more than one {kind} step: steps {', '.join(sids)}")
    return out


def _signature(lit: Literal) -> tuple[str, bool, int]:
    """What `unify` compares first: two literals of different signatures never unify.

    The arity is part of it, since `unify` raises on a predicate used with
    two arities, and a plan file may hold such a pair.
    """
    return lit.predicate, lit.positive, len(lit.args)


def _unifier(bindings: BindingSet, literals):
    """The audit's link test: `unifies(effects, lit)` is whether `unify(e, lit,
    bindings)` is not None for some `e` of `effects`, an arity clash, at the
    top or nested, counting as no.

    Decided once per audit from `literals`, the plan's effects and link
    conditions. Under a store without assignments, in which no `distinct`
    pair names one term twice, two ground literals unify exactly when they
    are equal: `unify` would add no assignment, so no forbidden pair could
    come to codesignate. So when every literal is ground, a test is `lit in
    effects`; otherwise, as for a plan file whose step keeps an unbound
    variable, every test calls `unify`.
    """
    compare = not bindings.assignments and all(x != y for x, y in bindings.distinct)
    if compare and all(map(is_ground, literals)):
        return lambda effects, lit: lit in effects

    def unified(e: Literal, lit: Literal) -> bool:
        try:
            return unify(e, lit, bindings) is not None
        except ArityMismatchError:
            return False

    return lambda effects, lit: any(unified(e, lit) for e in effects)


def verify_soundness(plan, problem: Problem, max_orders: int = 5_000) -> AuditReport:
    """Audit a claimed solution against first principles and the problem it claims to solve.

    Checks: step ids are unique, every link names steps of the plan, and
    there is at most one initial and one final step (if not, the audit stops
    at those `structure` violations); the initial step carries the problem's
    initial state and the final step its goals, causal support for every
    precondition, an empty threat set, successful goal-achieving execution of
    every linearization of the primitive steps, and end-subplan
    preconditions supported from within or before their subplan. Violations
    are report content, never exceptions.

    Linearizations are taken in lexicographic order, at most `max_orders`
    plus one; the report gives the count but does not flag a cut-off walk.
    Their cost is one state transition per step that can come next after
    each distinct (unplaced set, state) pair reached, not one per step of
    every order, and one call per distinct pair, none for a pair already
    walked (see `_check_orders`); prefixes that fail a precondition are
    still walked order by order. A pair whose k unplaced steps do not
    interfere, and all of whose orders are clean, costs O(k) int operations
    and one transition, and its k! orders are counted, not walked: seven or
    twelve unordered switches cost one transition in all. Each literal
    object is grounded, and its atom numbered, once per audit. Unplaced sets
    and states are ints used as bit sets, so each transition and each test
    is a few int operations.

    Support costs one `apply` per precondition and per link: links are
    counted per (consumer, applied condition) once. The threat and produce
    checks, and the closed-world check of a link from the initial step,
    test a condition only against effects of its predicate, sign and arity,
    since `unify` fails or raises on any other. The tests compare literals
    when the store is empty and the plan is ground, and else every test
    calls `unify` (see `_unifier`); an arity clash inside a term fails the
    test, so a plan file that holds one gets violations, not an exception.
    """
    violations: list[Violation] = []
    bindings = plan.bindings
    steps = {s.sid: s for s in plan.steps}
    faults = _id_faults(plan, steps)
    if faults:
        return AuditReport(tuple(Violation("structure", m) for m in faults))
    pairs = set(plan.orderings)
    reach = _reachability(steps, pairs)

    for sid, reached in reach.items():
        if sid in reached:
            violations.append(Violation("cycle", f"step {sid} precedes itself"))
            return AuditReport(tuple(violations))

    intervals = {d.parent: (d.begin, d.end) for d in plan.decomposition_links}
    bounds = {sid: intervals.get(sid, (sid, sid)) for sid in steps}

    initial = next((s for s in plan.steps if s.kind == "initial"), None)
    final = next((s for s in plan.steps if s.kind == "final"), None)
    if initial is None or final is None:
        violations.append(Violation("structure", "missing initial or final step"))
        return AuditReport(tuple(violations))
    if set(initial.effects) != set(problem.init):
        violations.append(Violation("problem", "initial state differs from the problem's init"))
    if not _match_all(problem.goals, [apply(bindings, p) for p in final.preconditions], {}):
        violations.append(
            Violation("problem", "final preconditions are not the problem's goals")
        )

    # The link checks test a condition only against effects of its
    # signature, in plan step order, since `unify` fails or raises on any other.
    effects_by_signature: dict[tuple[str, bool, int], dict[int, list[Literal]]] = {}
    for s in plan.steps:
        for e in s.effects:
            effects_by_signature.setdefault(_signature(e), {}).setdefault(s.sid, []).append(e)
    effects = [e for s in plan.steps for e in s.effects]
    unifies = _unifier(bindings, effects + [l.condition for l in plan.causal_links])

    def effect_unifies(sid: int, condition: Literal) -> bool:
        return unifies(effects_by_signature.get(_signature(condition), {}).get(sid, ()), condition)

    # Support per precondition: a literal that k of a step's preconditions
    # become under the bindings needs 1 to k links. The planner links two
    # distinct preconditions apart and a verbatim repeat once, and a plan file
    # lists both kinds alike, applied. Producers really produce; orders hold.
    needs = [(s.sid, apply(bindings, p)) for s in plan.steps for p in s.preconditions]
    listed = Counter(needs)
    linked = Counter((l.consumer, apply(bindings, l.condition)) for l in plan.causal_links)
    for sid, applied in needs:
        n = linked[sid, applied]
        if not 1 <= n <= listed[sid, applied]:
            violations.append(
                Violation(
                    "support", f"precondition {applied} of step {sid} has {n} supporting links"
                )
            )
    for l in plan.causal_links:
        if l.consumer not in reach[l.producer]:
            violations.append(
                Violation("order", f"producer {l.producer} not ordered before {l.consumer}")
            )
        if effect_unifies(l.producer, l.condition):
            continue
        # A negative condition may be linked from the initial step, which
        # then holds its atom false under the closed world assumption.
        cwa = (
            steps[l.producer].kind == "initial"
            and not l.condition.positive
            and not effect_unifies(l.producer, l.condition.atom())
        )
        if not cwa:
            violations.append(
                Violation("produce", f"step {l.producer} does not produce {l.condition}")
            )

    # Threat scan over interval endpoints, over the steps with an effect of
    # the negated condition's signature, in plan step order.
    for l in plan.causal_links:
        negated = l.condition.negate()
        producer_end = bounds[l.producer][1]
        consumer_begin = bounds[l.consumer][0]
        for sid, effects in effects_by_signature.get(_signature(negated), {}).items():
            if sid in (l.producer, l.consumer):
                continue
            s_begin, s_end = bounds[sid]
            if s_end == producer_end or producer_end in reach[s_end]:
                continue
            if consumer_begin == s_begin or s_begin in reach[consumer_begin]:
                continue
            if unifies(effects, negated):
                violations.append(
                    Violation("threat", f"step {sid} may undo {l.condition} of link "
                                        f"{l.producer}->{l.consumer}")
                )

    # End-subplan preconditions supported from within or before the subplan.
    for d in plan.decomposition_links:
        allowed = set(d.members) | {d.begin}
        for l in plan.causal_links:
            if l.consumer != d.end or l.producer in allowed or d.begin in reach[l.producer]:
                continue
            violations.append(
                Violation(
                    "subplan",
                    f"goal {apply(bindings, l.condition)} of subplan under {d.parent} "
                    f"supported by outside step {l.producer}",
                )
            )

    # Every linearization of the primitives executes and achieves the goals.
    table: dict[Variable, Constant] = {}
    ids: dict[Literal, int] = {}
    conditions: dict[int, tuple[Literal, int, bool]] = {}

    def condition(lit: Literal) -> tuple[Literal, int, bool]:
        """`lit` ground, the bit of its atom, and its sign; the plan holds each
        literal asked about for the whole audit, so no id is reused."""
        known = conditions.get(id(lit))
        if known is None:
            g = _skolemize(apply(bindings, lit), table)
            known = conditions[id(lit)] = (g, 1 << ids.setdefault(g.atom(), len(ids)), g.positive)
        return known

    prims = sorted(s.sid for s in plan.steps if s.kind == "primitive")
    bit = {m: 1 << i for i, m in enumerate(prims)}
    predecessors = dict.fromkeys(prims, 0)
    for n in prims:
        for m in reach[n]:
            if m in bit:
                predecessors[m] |= bit[n]
    order_steps = []
    for m in prims:
        pre = tuple(condition(p) for p in steps[m].preconditions)
        adds, deletes = _masks(condition(e) for e in steps[m].effects)
        order_steps.append((m, bit[m], predecessors[m], (pre, *_masks(pre), deletes, adds)))
    start, _ = _masks(condition(e) for e in initial.effects)
    goals = [condition(g) for g in final.preconditions]
    found, checked = _check_orders(order_steps, max_orders, start, goals)
    violations += found
    return AuditReport(tuple(violations), linearizations_checked=checked)
