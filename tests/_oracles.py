"""Independent reference implementations used to check the library.

Everything here recomputes answers from first principles (enumeration,
brute force, textbook algorithms) without calling the code path under test.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from discoplan.model import Domain, Problem
from discoplan.oracle import _holds, _match, _progress, execute
from discoplan.sexp import Diagnostic, LocatedAtom, LocatedList, SourceSpan
from discoplan.terms import (
    Compound,
    Constant,
    Literal,
    Term,
    Variable,
    apply,
    is_ground,
    unify_terms,
    variables_in,
)


def ground(t: Term, env: dict):
    if isinstance(t, Variable):
        return env[t]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(ground(a, env) for a in t.args))
    return t


def ground_literal(l: Literal, env: dict) -> Literal:
    return Literal(l.predicate, tuple(ground(a, env) for a in l.args), l.positive)


class UniverseTooLargeError(Exception):
    """Ground action universe exceeds the configured bound."""


@dataclass(frozen=True)
class GroundAction:
    sid: str
    name: str
    args: tuple[Term, ...]
    preconditions: tuple[Literal, ...]
    effects: tuple[Literal, ...]


def _constants_of(obj, pool: set[Constant]) -> None:
    if isinstance(obj, Constant):
        pool.add(obj)
    elif isinstance(obj, Compound):
        for a in obj.args:
            _constants_of(a, pool)
    elif isinstance(obj, Literal):
        for a in obj.args:
            _constants_of(a, pool)


def ground_actions(domain: Domain, problem: Problem, max_ground: int = 10_000) -> list[GroundAction]:
    """All primitive operators instantiated over the constant pool.

    Parameters range over constants only; static neq/eq constraints filter
    combinations. Faults when the universe exceeds `max_ground`.
    """
    pool: set[Constant] = set()
    for lit in problem.init + problem.goals + problem.facts:
        _constants_of(lit, pool)
    for op in domain.operators:
        for lit in op.preconditions + op.effects:
            _constants_of(lit, pool)
    constants = sorted(pool, key=lambda c: c.name)
    out: list[GroundAction] = []
    for op in domain.operators:
        if op.composite:
            continue
        for combo in itertools.product(constants, repeat=len(op.params)):
            env = dict(zip(op.params, combo))
            ok = True
            for c in op.constraints:
                left = ground(c.left, env)
                right = ground(c.right, env)
                if c.kind == "eq" and left != right:
                    ok = False
                if c.kind == "neq" and left == right:
                    ok = False
            if not ok:
                continue
            name = "{}({})".format(op.name, ",".join(str(a) for a in combo))
            out.append(
                GroundAction(
                    sid=name,
                    name=op.name,
                    args=combo,
                    preconditions=tuple(ground_literal(p, env) for p in op.preconditions),
                    effects=tuple(ground_literal(e, env) for e in op.effects),
                )
            )
            if len(out) > max_ground:
                raise UniverseTooLargeError(f"more than {max_ground} ground actions")
    return out


def brute_force(
    domain: Domain, problem: Problem, max_len: int, max_ground: int = 10_000
) -> list[tuple[GroundAction, ...]]:
    """Breadth-first enumeration of every executable goal-achieving sequence.

    Exhaustive over sequences of length <= max_len and duplicate-free; a
    sequence qualifies when its own final state satisfies every goal. A goal
    may hold variables: then one substitution must make each positive goal
    an atom of the state and leave each negative goal, ground after it,
    absent. A negative goal with a variable that no positive goal holds
    raises ValueError, since no state can say which objects it ranges over.
    """
    actions = ground_actions(domain, problem, max_ground)
    ground_goals = [g for g in problem.goals if is_ground(g)]
    lifted = [g for g in problem.goals if not is_ground(g)]
    positives = [g for g in lifted if g.positive]
    negatives = [g for g in lifted if not g.positive]
    bound = {v for g in positives for v in variables_in(g)}
    for g in negatives:
        if not bound.issuperset(variables_in(g)):
            raise ValueError(f"negative goal {g} has a variable that no positive goal binds")
    results: list[tuple[GroundAction, ...]] = []
    frontier: list[tuple[tuple[GroundAction, ...], frozenset[Literal]]] = [
        ((), frozenset(problem.init))
    ]
    for _ in range(max_len + 1):
        next_frontier = []
        for seq, state in frontier:
            if all(_holds(state, g) for g in ground_goals) and _satisfies(
                state, positives, negatives, {}
            ):
                results.append(seq)
            if len(seq) == max_len:
                continue
            for ga in actions:
                if all(_holds(state, p) for p in ga.preconditions):
                    next_frontier.append((seq + (ga,), _progress(state, ga.effects)))
        frontier = next_frontier
        if not frontier:
            break
    return results


def _satisfies(state, positives, negatives, env) -> bool:
    """Whether one extension of `env` makes each of `positives` an atom of
    `state` by one-way matching and leaves each of `negatives` absent."""
    if not positives:
        return all(ground_literal(n, env).atom() not in state for n in negatives)
    for atom in state:
        extended = dict(env)
        if _match(positives[0], atom, extended) and _satisfies(
            state, positives[1:], negatives, extended
        ):
            return True
    return False


def collect_variables(objs) -> list[Variable]:
    seen: list[Variable] = []

    def walk(t):
        if isinstance(t, Variable):
            if t not in seen:
                seen.append(t)
        elif isinstance(t, Compound):
            for a in t.args:
                walk(a)
        elif isinstance(t, Literal):
            for a in t.args:
                walk(a)

    for o in objs:
        walk(o)
    return seen


def naive_resolve(t: Term, asg) -> Term:
    """Deep walk that expands the term as a tree, rebuilding every node it meets."""
    while isinstance(t, Variable) and t in asg:
        t = asg[t]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(naive_resolve(a, asg) for a in t.args))
    return t


def naive_canonical(v: Variable, asg) -> Variable:
    """The smallest variable, by name then iid, of unbound `v`'s class.

    Scans every assignment for the members whose chain ends where `v`'s does.
    """

    def walk(t):
        while isinstance(t, Variable) and t in asg:
            t = asg[t]
        return t

    root = walk(v)
    members = [root] + [k for k in asg if walk(k) == root]
    return min(members, key=lambda m: (m.name, m.iid))


def naive_occurs(v: Variable, t: Term, asg) -> bool:
    return v in collect_variables([naive_resolve(t, asg)])


def naive_term_key(t: Term):
    """Total order over terms as nested tuples, one tuple per tree node."""
    if isinstance(t, Constant):
        return (0, t.name)
    if isinstance(t, Variable):
        return (1, t.name, t.iid)
    return (2, t.functor, tuple(naive_term_key(a) for a in t.args))


def consistent_assignments(bindings, variables, constants):
    """All total constant assignments satisfying a binding store, by enumeration."""
    out = []
    for values in itertools.product(constants, repeat=len(variables)):
        env = dict(zip(variables, values))

        def resolve(t):
            # a bound variable must ground to the same object as its binding
            return ground(t, env)

        ok = all(resolve(v) == resolve(t) for v, t in bindings.assignments.items())
        ok = ok and all(resolve(x) != resolve(y) for x, y in bindings.distinct)
        if ok:
            out.append(env)
    return out


def floyd_warshall(sids, pairs) -> dict[tuple[int, int], bool]:
    reach = {(a, b): False for a in sids for b in sids}
    for a, b in pairs:
        if (a, b) in reach:
            reach[(a, b)] = True
    for k in sids:
        for i in sids:
            if not reach[(i, k)]:
                continue
            for j in sids:
                if reach[(k, j)]:
                    reach[(i, j)] = True
    return reach


def orders_consistent_with(sids, pairs):
    """Every permutation of sids consistent with the ordering pairs."""
    out = []
    for perm in itertools.permutations(sids):
        pos = {sid: i for i, sid in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in pairs if a in pos and b in pos):
            out.append(perm)
    return out


def audit_by_reexecution(plan, max_orders: int):
    """Reference for the audit's linearization check: execute each order from scratch.

    Returns the `(code, message)` pairs of the failures and missed goals of
    the orders `reexecute_orders` runs, and the number of orders run.
    """
    runs = reexecute_orders(plan, max_orders)
    return [f for found in runs for f in found], len(runs)


def reexecute_orders(plan, max_orders: int):
    """Execute each order of the primitives from scratch, one result per order.

    Takes the first `max_orders + 1` orders of the primitives consistent with
    the plan's orderings, in lexicographic order, grounds every literal by
    applying the plan's bindings and naming each free variable as a distinct
    constant, and runs `execute` on each order from the initial state. Returns
    one list per order of the `(code, message)` pairs of its precondition
    failure or missed goals.
    """
    def grounded(l: Literal) -> Literal:
        l = apply(plan.bindings, l)
        env = {v: Constant(f"sk:{v.name}:{v.iid}") for v in collect_variables([l])}
        return ground_literal(l, env)

    sids = [s.sid for s in plan.steps]
    reach = floyd_warshall(sids, plan.orderings)
    prims = sorted(s.sid for s in plan.steps if s.kind == "primitive")
    before = [(a, b) for a in prims for b in prims if reach[(a, b)]]
    orders = orders_consistent_with(prims, before)[: max_orders + 1]
    by_sid = {s.sid: s for s in plan.steps}
    actions = {
        sid: GroundAction(
            str(sid),
            by_sid[sid].name,
            (),
            tuple(grounded(p) for p in by_sid[sid].preconditions),
            tuple(grounded(e) for e in by_sid[sid].effects),
        )
        for sid in prims
    }
    initial = next(s for s in plan.steps if s.kind == "initial")
    final = next(s for s in plan.steps if s.kind == "final")
    goals = [grounded(g) for g in final.preconditions]
    runs = []
    for order in orders:
        trace = execute([grounded(e) for e in initial.effects], [actions[s] for s in order])
        if not trace.ok:
            failure = (
                f"linearization {order} fails at step {trace.failed_step} "
                f"needing {trace.failed_condition}"
            )
            runs.append([("execution", failure)])
            continue
        state = trace.final_state
        runs.append(
            [
                ("goal", f"linearization {order} ends without goal {g}")
                for g in goals
                if (g.atom() in state) != g.positive
            ]
        )
    return runs


def nested_loop_join(facts, constraints, bindings):
    """Reference for kb_satisfy: join constraint literals over the fact list,
    the positive ones first, then filter by the negative ones (safe negation)."""
    from discoplan.terms import unify

    results = [bindings]
    for c in sorted(constraints, key=lambda c: not c.positive):
        nxt = []
        for bs in results:
            if c.positive:
                for fact in facts:
                    if fact.predicate != c.predicate:
                        continue
                    ext = unify(c, fact, bs)
                    if ext is not None:
                        nxt.append(ext)
            else:
                atom = c.atom()
                blocked = any(
                    fact.predicate == atom.predicate and unify(atom, fact, bs) is not None
                    for fact in facts
                )
                if not blocked:
                    nxt.append(bs)
        results = nxt
    return results


def operators_achieving(domain, goal: Literal) -> list:
    """The operators with an effect that unifies with `goal` under empty
    bindings; effects are renamed to iid -1, which no plan step uses."""
    from discoplan.terms import rename, unify

    return [
        op
        for op in domain.operators
        if any(unify(e, goal) is not None for e in rename(op.effects, -1))
    ]


def eager_solve(domain, problem, config):
    """Reference for `solve`: every node builds all its successors before the
    search takes the first.

    The resolvers' lists are filtered by the step bound as they are built,
    and the dropped successors counted then, so `over_max_steps` covers
    every successor of every expanded node. Inputs are assumed valid.
    """
    from dataclasses import replace

    from discoplan.plan import OpenCondition, Threat, detect_threats, init_plan
    from discoplan.search import (
        BudgetExceeded,
        Exhausted,
        SearchStats,
        Solution,
        _relaxed_reachable,
        _select_flaw,
        prune_unused,
        refine_causal,
        refine_decomposition,
        resolve_threat,
    )

    predicates, operators = _relaxed_reachable(domain, problem.init)
    unreachable = tuple(g for g in problem.goals if g.positive and g.predicate not in predicates)
    if unreachable:
        return Exhausted(SearchStats(0, 0, 0), unreachable=unreachable)
    domain = replace(
        domain,
        operators=tuple(op for op in domain.operators if op.name in operators),
        schemata=tuple(
            s
            for s in domain.schemata
            if s.action in operators and all(t.action in operators for t in s.steps)
        ),
    )
    nodes = backtracks = max_stack_depth = over_max_steps = 0
    stack = [iter([init_plan(problem)])]
    while stack:
        max_stack_depth = max(max_stack_depth, len(stack))
        plan = next(stack[-1], None)
        if plan is None:
            stack.pop()
            backtracks += 1
            continue
        nodes += 1
        if nodes > config.max_nodes:
            return BudgetExceeded(SearchStats(nodes - 1, backtracks, max_stack_depth), over_max_steps)
        flaw = _select_flaw(plan, detect_threats(plan), config.flaw_policy)
        if flaw is None:
            return Solution(prune_unused(plan), SearchStats(nodes, backtracks, max_stack_depth))
        if isinstance(flaw, Threat):
            out = resolve_threat(plan, flaw)
        elif isinstance(flaw, OpenCondition):
            out = refine_causal(plan, flaw, domain)
        elif plan.step(flaw.step).depth + 1 > config.max_depth:
            out = []
        else:
            out = refine_decomposition(plan, flaw, domain, problem.facts, config.reuse_policy)
        kept = [p for p in out if len(p.steps) <= config.max_steps]
        over_max_steps += len(out) - len(kept)
        stack.append(iter(kept))
    return Exhausted(SearchStats(nodes, backtracks, max_stack_depth), over_max_steps)


def pairwise_unify(params, args, bindings):
    """Reference for `terms.unify_args`: unify `params` with `args` pairwise,
    left to right, one store copy and one check of `distinct` per pair; None
    on the first failure."""
    for p, a in zip(params, args):
        bindings = unify_terms(p, a, bindings)
        if bindings is None:
            return None
    return bindings


def decompose_by_product(plan, flaw, domain, facts, policy="both-branches"):
    """Reference for refine_decomposition: every realization choice first, then filter.

    Per schema and kb match (in `nested_loop_join` order), each step
    template may adopt any plan step of its action (smallest id first) or
    take a fresh one (None): only None under "prefer-new", only the plan's
    steps under "prefer-reuse" when there are any. Every combination of
    `itertools.product` is built; one that adopts a step twice, whose
    params do not all unify with the template args in order, or one of
    whose fresh steps breaks its operator's bindings, is dropped.
    `search._expand` builds the child of each survivor.
    """
    from discoplan import search
    from discoplan.model import apply_binding_constraints
    from discoplan.plan import KIND_COMPOSITE, KIND_PRIMITIVE, Step
    from discoplan.terms import rename

    parent = plan.step(flaw.step)
    out = []
    for schema in domain.schemata_for(parent.name):
        sigma = plan.next_iid
        header = rename(schema.params, sigma)
        b0 = pairwise_unify(header, parent.params, plan.bindings)
        if b0 is None or len(header) != len(parent.params):
            continue
        constraints = rename(schema.constraints, sigma)
        static = rename(schema.bindings, sigma)
        choices = []
        for t in schema.steps:
            reusable = [
                s
                for s in plan.steps
                if s.name == t.action
                and s.kind in (KIND_PRIMITIVE, KIND_COMPOSITE)
                and s.sid != parent.sid
            ]
            if policy == "prefer-new":
                choices.append([None])
            elif policy == "prefer-reuse" and reusable:
                choices.append(reusable)
            else:
                choices.append(reusable + [None])
        for b1 in nested_loop_join(facts, constraints, b0):
            b2 = apply_binding_constraints(static, b1)
            if b2 is None:
                continue
            for combo in itertools.product(*choices):
                adopted = [s.sid for s in combo if s is not None]
                if len(adopted) != len(set(adopted)):
                    continue
                b, realized, fresh = b2, [], 0
                for t, s in zip(schema.steps, combo):
                    renamed = ()
                    if s is None:
                        op = domain.operator(t.action)
                        iid = sigma + 1 + fresh
                        s = Step(
                            plan.next_sid + 2 + fresh,
                            op.name,
                            rename(op.params, iid),
                            rename(op.preconditions, iid),
                            rename(op.effects, iid),
                            KIND_COMPOSITE if op.composite else KIND_PRIMITIVE,
                            parent.depth + 1,
                        )
                        renamed = rename(op.constraints, iid)
                        fresh += 1
                    if b is not None:
                        b = pairwise_unify(s.params, rename(t.args, sigma), b)
                    if b is not None:
                        b = apply_binding_constraints(renamed, b)
                    realized.append(s)
                if b is None:
                    continue
                child = search._expand(plan, parent, flaw, rename(schema, sigma), b, tuple(realized))
                if child is not None:
                    out.append(child)
    return out


def brute_force_threats(plan):
    """Recompute the threat set of a plan from its raw data."""
    from discoplan.terms import unify

    sids = [s.sid for s in plan.steps]
    reach = floyd_warshall(sids, plan.orderings)
    intervals = {d.parent: (d.begin, d.end) for d in plan.decomposition_links}

    def begin_of(sid):
        return intervals.get(sid, (sid, sid))[0]

    def end_of(sid):
        return intervals.get(sid, (sid, sid))[1]

    found = []
    for link in plan.causal_links:
        negated = link.condition.negate()
        for s in plan.steps:
            if s.sid in (link.producer, link.consumer):
                continue
            if s.sid == end_of(link.producer) or reach[(end_of(s.sid), end_of(link.producer))]:
                continue
            if begin_of(link.consumer) == begin_of(s.sid) or reach[
                (begin_of(link.consumer), begin_of(s.sid))
            ]:
                continue
            if any(unify(e, negated, plan.bindings) is not None for e in s.effects):
                found.append((s.sid, link))
    return found


def link_checks_by_full_scan(plan):
    """Reference for the audit's support, order, produce, threat and subplan checks.

    The unindexed loops the audit used before its scans were indexed: every
    precondition scans every link, and every link scans every step. Returns
    the `(code, message)` pairs in the audit's order. The plan must have
    unique step ids, links to existing steps, one initial step and no cycle.
    """
    from discoplan.terms import EMPTY_BINDINGS, unify

    bindings = getattr(plan, "bindings", EMPTY_BINDINGS)
    steps = {s.sid: s for s in plan.steps}
    closure = floyd_warshall(list(steps), plan.orderings)
    reach = {a: {b for b in steps if closure[(a, b)]} for a in steps}
    intervals = {d.parent: (d.begin, d.end) for d in plan.decomposition_links}

    def begin_of(sid):
        return intervals.get(sid, (sid, sid))[0]

    def end_of(sid):
        return intervals.get(sid, (sid, sid))[1]

    initial = next(s for s in plan.steps if s.kind == "initial")

    def cwa_ok(condition: Literal) -> bool:
        if condition.positive:
            return False
        atom = condition.atom()
        return not any(
            e.predicate == atom.predicate and unify(atom, e, bindings) is not None
            for e in initial.effects
        )

    violations = []
    for s in plan.steps:
        listed = Counter(apply(bindings, p) for p in s.preconditions)
        for applied in (apply(bindings, p) for p in s.preconditions):
            supporters = [
                l for l in plan.causal_links
                if l.consumer == s.sid and apply(bindings, l.condition) == applied
            ]
            if not 1 <= len(supporters) <= listed[applied]:
                violations.append(
                    (
                        "support",
                        f"precondition {applied} of step {s.sid} has "
                        f"{len(supporters)} supporting links",
                    )
                )
    for l in plan.causal_links:
        if l.consumer not in reach[l.producer]:
            violations.append(("order", f"producer {l.producer} not ordered before {l.consumer}"))
        producer = steps[l.producer]
        produced = any(unify(e, l.condition, bindings) is not None for e in producer.effects)
        if not produced and not (producer.kind == "initial" and cwa_ok(l.condition)):
            violations.append(("produce", f"step {l.producer} does not produce {l.condition}"))

    for l in plan.causal_links:
        negated = l.condition.negate()
        for s in plan.steps:
            if s.sid in (l.producer, l.consumer):
                continue
            s_begin, s_end = begin_of(s.sid), end_of(s.sid)
            if s_end == end_of(l.producer) or end_of(l.producer) in reach[s_end]:
                continue
            if begin_of(l.consumer) == s_begin or s_begin in reach[begin_of(l.consumer)]:
                continue
            if any(unify(e, negated, bindings) is not None for e in s.effects):
                violations.append(
                    ("threat", f"step {s.sid} may undo {l.condition} of link "
                               f"{l.producer}->{l.consumer}")
                )

    for d in plan.decomposition_links:
        allowed = set(d.members) | {d.begin}
        for l in plan.causal_links:
            if l.consumer != d.end or l.producer in allowed or d.begin in reach[l.producer]:
                continue
            violations.append(
                (
                    "subplan",
                    f"goal {apply(bindings, l.condition)} of subplan under {d.parent} "
                    f"supported by outside step {l.producer}",
                )
            )
    return violations


def conflict_by_enumeration(effect, condition, bindings, constants):
    """Ground-enumeration version of 'effect may undo condition'."""
    negated = condition.negate()
    if effect.predicate != negated.predicate or effect.positive != negated.positive:
        return False
    variables = collect_variables(
        [effect, negated]
        + list(bindings.assignments.keys())
        + list(bindings.assignments.values())
        + [t for pair in bindings.distinct for t in pair]
    )
    for env in consistent_assignments(bindings, variables, constants):
        if ground_literal(effect, env) == ground_literal(negated, env):
            return True
    return False


def recursive_intended(plan):
    """Memoized recursive reading of the intended-effect definition.

    An effect is intended when a causal link carries it to the final step,
    to an end-subplan step whose corresponding parent effect is intended, or
    to a step with some intended effect.
    """
    final_sid = plan.final.sid
    ends = {d.end: d for d in plan.decomposition_links}
    links_from = {}
    for link in plan.causal_links:
        links_from.setdefault(link.producer, []).append(link)

    def applied(lit):
        return apply(plan.bindings, lit)

    @lru_cache(maxsize=None)
    def intended(sid: int, idx: int) -> bool:
        e = applied(plan.step(sid).effects[idx])
        for link in links_from.get(sid, ()):
            if applied(link.condition) != e:
                continue
            if link.consumer == final_sid:
                return True
            d = ends.get(link.consumer)
            if d is not None:
                # The end step's k-th precondition copies the parent's k-th effect.
                k = plan.step(d.end).preconditions.index(link.condition)
                if intended(d.parent, k):
                    return True
            consumer = plan.step(link.consumer)
            if any(intended(link.consumer, j) for j in range(len(consumer.effects))):
                return True
        return False

    return {
        (s.sid, i): intended(s.sid, i)
        for s in plan.steps
        for i in range(len(s.effects))
    }


class _Scanner:
    """One character at a time: `str.isspace()` blanks, `;` to LF, LF ends a line."""

    def __init__(self, text: str, filename: str):
        self.text = text
        self.file = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    def span(self, length: int = 1) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.col, length)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_blank(self) -> None:
        while self.pos < len(self.text):
            ch = self.peek()
            if ch == ";":
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.advance()
            elif ch.isspace():
                self.advance()
            else:
                return


def reference_read(text: str, filename: str = "<input>") -> tuple[list, list[Diagnostic]]:
    """Reference for `sexp.read`: the character-at-a-time scanner it replaced."""
    sc = _Scanner(text, filename)
    diags: list[Diagnostic] = []
    top: list = []
    # Stack of (open-paren span, collected items) for every unclosed list.
    stack: list[tuple[SourceSpan, list]] = []
    while True:
        sc.skip_blank()
        ch = sc.peek()
        if ch == "":
            break
        if ch == "(":
            stack.append((sc.span(), []))
            sc.advance()
        elif ch == ")":
            sc.advance()
            if not stack:
                diags.append(
                    Diagnostic(
                        SourceSpan(sc.file, sc.line, sc.col - 1),
                        "unbalanced closing parenthesis",
                    )
                )
                continue
            span, items = stack.pop()
            node = LocatedList(items, span)
            (stack[-1][1] if stack else top).append(node)
        else:
            start = sc.span()
            chars = []
            while sc.peek() and not sc.peek().isspace() and sc.peek() not in "();":
                chars.append(sc.advance())
            word = "".join(chars)
            span = SourceSpan(start.file, start.line, start.column, len(word))
            atom = LocatedAtom(word.lower(), span)
            (stack[-1][1] if stack else top).append(atom)
    while stack:
        span, items = stack.pop()
        diags.append(Diagnostic(span, "unclosed parenthesis"))
        node = LocatedList(items, span)
        (stack[-1][1] if stack else top).append(node)
    return top, diags
