"""Plain records: named tuples that behave as the frozen dataclasses they replaced.

A record whose constructor only stores its fields is a named tuple, since a
frozen dataclass costs six times as much or more to define at import. Each
one still hashes as the tuple of its fields, so set and dict orders are the
dataclasses' orders; prints as `Name(field=value, ...)`; and refuses
assignment. Records of one family meet in one collection or comparison, and
two of different types never compare equal. An `ast` guard keeps every
other class a named tuple too.
"""
import ast
from pathlib import Path

import pytest

from discoplan.intention import CorrespondenceHop, EffectLabel, IntentionReport
from discoplan.model import (
    ActionOperator,
    BindingConstraint,
    DecompositionSchema,
    LinkTemplate,
    Problem,
    StepTemplate,
)
from discoplan.oracle import AuditReport, ExecutionTrace, PlanView, TraceEntry, Violation
from discoplan.plan import (
    CausalLink,
    DecompositionLink,
    OpenCondition,
    Threat,
    UnexpandedComposite,
    init_plan,
)
from discoplan.search import BudgetExceeded, Exhausted, SearchStats, Solution
from discoplan.sexp import Diagnostic, SourceSpan
from discoplan.terms import BindingSet, Constant, EMPTY_BINDINGS, Literal, Variable

SRC = Path(__file__).resolve().parent.parent / "src" / "discoplan"

A, B, X = Constant("a"), Constant("b"), Variable("x", 3)
ON_A = Literal("on", (A,))
CAUSES = Literal("causes", (A, B))
NEQ = BindingConstraint("neq", X, A)
STEP_T = StepTemplate("s1", "go", (X,))
LINK_T = LinkTemplate("start", ON_A, "s1")
PROBLEM = Problem("p", "d", (CAUSES,), (Literal("off", (A,)),), (ON_A,))
PLAN = init_plan(PROBLEM)
LINK = CausalLink(5, ON_A, 0)
HOP = CorrespondenceHop(5, 3, 0)
DLINK = DecompositionLink(3, 4, 5, (6,), (CAUSES,))
STATS = SearchStats(7, 2, 4)
ENTRY = TraceEntry(2, frozenset(), frozenset({ON_A}))
VIOLATION = Violation("goal", "linearization (2,) ends without goal (on a)")
LABEL = EffectLabel(2, 0, ON_A, True, (LINK, HOP))

# Each record's fields, in order, as the frozen dataclass declared them.
FIELDS = {
    Diagnostic: ("span", "message"),
    BindingSet: ("assignments", "distinct"),
    BindingConstraint: ("kind", "left", "right"),
    ActionOperator: ("name", "params", "preconditions", "effects", "constraints", "composite"),
    StepTemplate: ("label", "action", "args"),
    LinkTemplate: ("producer", "condition", "consumer"),
    DecompositionSchema: (
        "action", "params", "constraints", "steps", "links", "bindings", "orderings"
    ),
    Problem: ("name", "domain_name", "facts", "init", "goals"),
    DecompositionLink: ("parent", "begin", "end", "members", "constraints"),
    OpenCondition: ("consumer", "condition"),
    UnexpandedComposite: ("step",),
    Threat: ("step", "link"),
    SearchStats: ("nodes_expanded", "backtracks", "max_stack_depth"),
    Solution: ("plan", "stats"),
    Exhausted: ("stats", "over_max_steps", "unreachable"),
    BudgetExceeded: ("stats", "over_max_steps"),
    TraceEntry: ("step_id", "before", "after"),
    ExecutionTrace: ("entries", "outcome", "initial_state", "failed_step", "failed_condition"),
    PlanView: ("steps", "orderings", "causal_links", "decomposition_links", "bindings"),
    Violation: ("code", "message"),
    AuditReport: ("violations", "linearizations_checked"),
    CorrespondenceHop: ("end", "parent", "effect_index"),
    EffectLabel: ("step", "effect_index", "effect", "intended", "chain"),
    IntentionReport: ("labels",),
}

RECORDS = [
    Diagnostic(SourceSpan("f.dpd", 1, 2, 3), "unclosed parenthesis"),
    BindingSet({X: A}, ((A, B),)),
    NEQ,
    ActionOperator("go", (X,), (ON_A.negate(),), (ON_A,), (NEQ,), True),
    STEP_T,
    LINK_T,
    DecompositionSchema("go", (X,), (CAUSES,), (STEP_T,), (LINK_T,), (NEQ,), (("s1", "final"),)),
    PROBLEM,
    DLINK,
    OpenCondition(1, ON_A),
    UnexpandedComposite(3),
    Threat(6, LINK),
    STATS,
    Solution(PLAN, STATS),
    Exhausted(STATS, 1, (ON_A,)),
    BudgetExceeded(STATS, 3),
    ENTRY,
    ExecutionTrace((ENTRY,), "failed-precondition", frozenset(), 3, ON_A),
    PlanView(PLAN.steps, PLAN.orderings, (LINK,), (DLINK,), EMPTY_BINDINGS),
    VIOLATION,
    AuditReport((VIOLATION,), 1),
    HOP,
    LABEL,
    IntentionReport((LABEL,)),
]


def test_every_record_is_sampled_once():
    assert sorted(type(r).__name__ for r in RECORDS) == sorted(c.__name__ for c in FIELDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_hashes_prints_and_refuses_assignment_as_a_frozen_dataclass(record):
    names = FIELDS[type(record)]
    values = tuple(getattr(record, name) for name in names)
    # The frozen dataclass hashed the tuple of its fields; a record holding a
    # dict, directly or inside another record, was unhashable, and still is.
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{type(record).__name__}({fields})"
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])


def test_reprs_are_pinned():
    assert repr(STATS) == "SearchStats(nodes_expanded=7, backtracks=2, max_stack_depth=4)"
    assert repr(OpenCondition(1, ON_A)) == (
        "OpenCondition(consumer=1, condition=Literal(predicate='on', "
        "args=(Constant(name='a'),), positive=True))"
    )
    assert repr(HOP) == "CorrespondenceHop(end=5, parent=3, effect_index=0)"


def test_no_record_shares_a_mutable_default():
    for cls in FIELDS:
        for name, value in cls._field_defaults.items():
            assert type(value) not in (dict, list, set), f"{cls.__name__}.{name}"
    # The record that holds a dict is always given one.
    with pytest.raises(TypeError):
        BindingSet()


FAMILIES = {
    "flaws": [
        OpenCondition(1, ON_A),
        OpenCondition(6, ON_A),
        UnexpandedComposite(1),
        UnexpandedComposite(6),
        Threat(1, LINK),
        Threat(6, CausalLink(6, ON_A, 6)),
    ],
    "hops": [LINK, CausalLink(5, ON_A, 3), HOP, CorrespondenceHop(5, 0, 0)],
    "outcomes": [
        Solution(PLAN, STATS),
        Exhausted(STATS),
        Exhausted(STATS, 0, ()),
        BudgetExceeded(STATS),
        BudgetExceeded(STATS, 0),
    ],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_records_of_one_family_never_compare_equal_across_types(family):
    members = FAMILIES[family]
    for x in members:
        for y in members:
            if type(x) is not type(y):
                assert x != y and not x == y, (x, y)
        assert all(type(y) is type(x) for y in members if y == x)


# The frozen dataclasses that stay ones, each with the state it derives when made.
DATACLASSES = {
    ("plan", "Plan"): "its step index, ordering closure and threats",
    ("plan", "Step"): "its cached effect signatures",
    ("plan", "CausalLink"): "its negated condition and that condition's signature",
    ("model", "Domain"): "its by-name indexes of operators and schemata",
    ("search", "SearchConfig"): "the check of its bounds and policies",
}


def _names_dataclass(decorator: ast.AST) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.id if isinstance(decorator, ast.Name) else getattr(decorator, "attr", None)
    return name == "dataclass"


def test_only_records_that_derive_state_are_dataclasses():
    """Defining a dataclass costs six times as much or more at import as a
    named tuple, so only the classes kept above may be one."""
    found = {
        (path.stem, node.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(map(_names_dataclass, node.decorator_list))
    }
    assert sorted(found - DATACLASSES.keys()) == []
    # A kept class that became a named tuple, or is gone, leaves the list.
    assert sorted(DATACLASSES.keys() - found) == []
