"""Action operators, decomposition schemata, problems, and closed-world support.

Each action is described in two parts: the operator (preconditions and
effects, STRIPS style) and zero or more decomposition schemata giving a
single-layer, partially specified subplan for a composite action. The
knowledge base, a problem's facts, holds static domain relations queried by
schema constraints; it never changes during planning. One matcher,
`establishments`, decides how a step's effects support a condition and how
the facts support a kb constraint.

Record cost model. A record whose constructor only stores its fields is a
named tuple, as terms and literals are: defining one costs a sixth or less
of what a frozen dataclass costs at import, where its methods are generated
and compiled, and its field access, hashing and equality run in C. It
hashes as the tuple of its fields, as the frozen dataclass did, so set and
dict orders are the same; assigning to a field raises AttributeError;
`._replace` makes a changed copy. A named tuple equals any tuple with the
same items, but no two records of this module meet in one collection or
comparison. `Domain` stays a frozen dataclass: it builds its by-name
indexes of operators and schemata when it is made, which a named tuple's
constructor cannot do, and its table of functor arities on first use.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

from .terms import (
    BindingSet,
    Compound,
    Literal,
    Term,
    Variable,
    add_noncodesignation,
    extensions,
    is_ground,
    unify,
    unify_terms,
    variables_in,
)

RESERVED_LABELS = ("start", "final")


class DomainValidationError(Exception):
    """Raised on input the validator would reject; one argument per diagnostic line."""


class BindingConstraint(NamedTuple):
    """Static eq/neq constraint between two terms of one operator or schema."""

    kind: str  # "eq" | "neq"
    left: Term
    right: Term


class ActionOperator(NamedTuple):
    name: str
    params: tuple[Variable, ...]
    preconditions: tuple[Literal, ...]
    effects: tuple[Literal, ...]
    constraints: tuple[BindingConstraint, ...] = ()
    composite: bool = False


class StepTemplate(NamedTuple):
    label: str
    action: str
    args: tuple[Term, ...]


class LinkTemplate(NamedTuple):
    producer: str  # local label, or "start"
    condition: Literal
    consumer: str  # local label, or "final"


class DecompositionSchema(NamedTuple):
    """Partial subplan expanding one composite action by one layer.

    The header's variables are the interface; constraints and step templates
    may introduce new variables, existential within the schema and bound by
    knowledge-base matching at expansion time. Link and ordering labels refer
    to step templates or the reserved subplan boundaries "start" and "final".
    """

    action: str
    params: tuple[Term, ...]
    constraints: tuple[Literal, ...] = ()
    steps: tuple[StepTemplate, ...] = ()
    links: tuple[LinkTemplate, ...] = ()
    bindings: tuple[BindingConstraint, ...] = ()
    orderings: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Domain:
    name: str
    predicates: dict[str, int] = field(default_factory=dict)
    kb_predicates: dict[str, int] = field(default_factory=dict)
    operators: tuple[ActionOperator, ...] = ()
    schemata: tuple[DecompositionSchema, ...] = ()

    def __post_init__(self):
        by_name: dict[str, ActionOperator] = {}
        for op in self.operators:
            by_name.setdefault(op.name, op)
        by_action: dict[str, tuple[DecompositionSchema, ...]] = {}
        for s in self.schemata:
            by_action[s.action] = by_action.get(s.action, ()) + (s,)
        object.__setattr__(self, "_operators", by_name)
        object.__setattr__(self, "_schemata", by_action)

    def operator(self, name: str) -> ActionOperator | None:
        """The first operator declared under `name`, or None."""
        return self._operators.get(name)

    def schemata_for(self, name: str) -> tuple[DecompositionSchema, ...]:
        """The schemata for action `name`, in declaration order."""
        return self._schemata.get(name, ())

    @cached_property
    def _functors(self) -> tuple[dict[str, int], tuple[str, ...]]:
        """The arity each functor is first used with, and one diagnostic per later
        use with another arity (see `_domain_functors`); found on first use, since
        validating a problem needs the table as well."""
        clashes: list[str] = []
        return _domain_functors(self, clashes), tuple(clashes)


class Problem(NamedTuple):
    name: str
    domain_name: str
    facts: tuple[Literal, ...] = ()
    init: tuple[Literal, ...] = ()
    goals: tuple[Literal, ...] = ()


def _literal_arity_issues(lit: Literal, arities: dict[str, int], where: str) -> list[str]:
    issues = []
    declared = arities.get(lit.predicate)
    if declared is None:
        issues.append(f"{where}: undeclared predicate {lit.predicate}")
    elif declared != len(lit.args):
        issues.append(
            f"{where}: predicate {lit.predicate} declared with arity {declared}, used with {len(lit.args)}"
        )
    return issues


def _check_functors(terms, functors: dict[str, int], where: str, issues: list[str]) -> None:
    """Record the first arity of each functor in `terms` in `functors`, and
    report any later use with another arity to `issues`, in term order.

    Each distinct compound is visited once, so a subterm shared along many
    paths is checked, and its clash reported, once.
    """
    visited = set()
    todo = list(reversed(terms))
    while todo:
        t = todo.pop()
        if isinstance(t, Compound) and id(t) not in visited:
            visited.add(id(t))
            seen = functors.setdefault(t.functor, len(t.args))
            if seen != len(t.args):
                issues.append(
                    f"{where}: functor {t.functor} used with arities {seen} and {len(t.args)}"
                )
            todo.extend(reversed(t.args))


def _domain_functors(domain: Domain, issues: list[str]) -> dict[str, int]:
    """The arity each functor of the domain is first used with, reporting any
    later use with another arity to `issues`.

    Functors share the symbol namespace with predicates. Every term that
    search may unify with another is checked: operator literals and binding
    constraints, and schema headers, constraints, bindings, step arguments
    and link conditions, since `unify` raises on one functor of two arities.
    """
    functors: dict[str, int] = dict(domain.predicates)
    functors.update({k: v for k, v in domain.kb_predicates.items() if k not in functors})
    for op in domain.operators:
        terms = [a for lit in op.preconditions + op.effects for a in lit.args]
        terms += [t for c in op.constraints for t in (c.left, c.right)]
        _check_functors(terms, functors, f"operator {op.name}", issues)
    for i, schema in enumerate(domain.schemata):
        terms = [*schema.params, *(a for lit in schema.constraints for a in lit.args)]
        terms += [t for c in schema.bindings for t in (c.left, c.right)]
        terms += [a for t in schema.steps for a in t.args]
        terms += [a for link in schema.links for a in link.condition.args]
        _check_functors(terms, functors, f"schema {i} for {schema.action}", issues)
    return functors


def validate_domain(domain: Domain) -> list[str]:
    """Every invariant violation as a one-line diagnostic; empty means valid."""
    issues: list[str] = []
    shared = set(domain.predicates) & set(domain.kb_predicates)
    for name in sorted(shared):
        issues.append(f"domain {domain.name}: predicate {name} declared both as state and kb vocabulary")
    issues.extend(domain._functors[1])

    names = set()
    for op in domain.operators:
        where = f"operator {op.name}"
        if op.name in names:
            issues.append(f"{where}: duplicate operator name")
        names.add(op.name)
        header_vars = set(op.params)
        for c in op.constraints:
            header_vars.update(variables_in(c.left), variables_in(c.right))
        for lit in op.preconditions + op.effects:
            issues.extend(_literal_arity_issues(lit, domain.predicates, where))
            if lit.predicate in domain.kb_predicates:
                issues.append(f"{where}: kb predicate {lit.predicate} used as a state condition")
            for v in variables_in(lit):
                if v not in header_vars:
                    issues.append(f"{where}: variable ?{v.name} not bound by header or bindings")
        if op.composite and not domain.schemata_for(op.name):
            issues.append(f"{where}: composite operator has no decomposition schema")
        if not op.composite and domain.schemata_for(op.name):
            issues.append(f"{where}: primitive operator has a decomposition schema")

    for i, schema in enumerate(domain.schemata):
        where = f"schema {i} for {schema.action}"
        op = domain.operator(schema.action)
        if op is None:
            issues.append(f"{where}: no such operator")
        elif len(schema.params) != len(op.params):
            issues.append(f"{where}: header arity differs from operator header")
        labels = set()
        for t in schema.steps:
            if t.label in RESERVED_LABELS:
                issues.append(f"{where}: step label {t.label} is reserved")
            if t.label in labels:
                issues.append(f"{where}: duplicate step label {t.label}")
            labels.add(t.label)
            target = domain.operator(t.action)
            if target is None:
                issues.append(f"{where}: step {t.label} names unknown action {t.action}")
            elif len(t.args) != len(target.params):
                issues.append(f"{where}: step {t.label} arity differs from {t.action} header")
        known = labels | set(RESERVED_LABELS)
        for link in schema.links:
            for end in (link.producer, link.consumer):
                if end not in known:
                    issues.append(f"{where}: link references undeclared label {end}")
            issues.extend(_literal_arity_issues(link.condition, domain.predicates, where))
        for a, b in schema.orderings:
            for end in (a, b):
                if end not in known:
                    issues.append(f"{where}: ordering references undeclared label {end}")
        for lit in schema.constraints:
            issues.extend(_literal_arity_issues(lit, domain.kb_predicates, f"{where} constraints"))
    return issues


def validate_problem(domain: Domain, problem: Problem) -> list[str]:
    issues: list[str] = []
    if problem.domain_name != domain.name:
        issues.append(
            f"problem {problem.name}: references domain {problem.domain_name}, got {domain.name}"
        )
    for lit in problem.facts:
        where = f"problem {problem.name} facts"
        issues.extend(_literal_arity_issues(lit, domain.kb_predicates, where))
        if not lit.positive:
            issues.append(f"{where}: fact {lit} is negative")
        if not is_ground(lit):
            issues.append(f"{where}: fact {lit} is not ground")
    for lit in problem.init:
        where = f"problem {problem.name} init"
        issues.extend(_literal_arity_issues(lit, domain.predicates, where))
        if not lit.positive:
            issues.append(f"{where}: init literal {lit} is negative")
        if not is_ground(lit):
            issues.append(f"{where}: init literal {lit} is not ground")
    for lit in problem.goals:
        issues.extend(_literal_arity_issues(lit, domain.predicates, f"problem {problem.name} goal"))
    # The domain's own clashes are validate_domain's to report.
    functors = dict(domain._functors[0])
    for part, literals in (("facts", problem.facts), ("init", problem.init), ("goal", problem.goals)):
        terms = [a for lit in literals for a in lit.args]
        _check_functors(terms, functors, f"problem {problem.name} {part}", issues)
    return issues


def apply_binding_constraints(
    constraints: tuple[BindingConstraint, ...], bindings: BindingSet
) -> BindingSet | None:
    for c in constraints:
        if c.kind == "eq":
            bindings = unify_terms(c.left, c.right, bindings)
        else:
            bindings = add_noncodesignation(bindings, c.left, c.right)
        if bindings is None:
            return None
    return bindings


def establishments(
    bindings: BindingSet, literals: tuple[Literal, ...], condition: Literal, closed_world: bool
) -> Iterator[BindingSet]:
    """Each extension of `bindings` under which `literals` support `condition`.

    First one per literal that unifies with the condition, in order; then,
    if `closed_world` holds (the initial step's effects, or the facts), the
    condition is negative and no literal can be its atom, the unchanged
    bindings: closed-world support.
    """
    for e in literals:
        b = unify(e, condition, bindings)
        if b is not None:
            yield b
    if closed_world and not condition.positive:
        atom = condition.atom()
        if not any(
            e.predicate == atom.predicate and unify(atom, e, bindings) is not None
            for e in literals
        ):
            yield bindings


def kb_satisfy(
    facts: tuple[Literal, ...], constraints: list[Literal], bindings: BindingSet
) -> Iterator[BindingSet]:
    """Every extension of `bindings` under which all constraints hold of the facts.

    Conjunctive matching with backtracking over the facts, in declaration
    order, under the closed world: a negative constraint holds iff no fact
    matches its atom, adding nothing. Negative constraints are tested after
    the positive ones (safe negation), so a variable that only a negative
    constraint mentions means "no fact for any value".
    """

    def options(c, b, chosen):
        return ((e, None) for e in establishments(b, facts, c, True))

    ordered = sorted(constraints, key=lambda c: not c.positive)
    for b, _ in extensions(ordered, options, bindings):
        yield b
