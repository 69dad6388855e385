"""Domain validation, knowledge-base matching, operator lookup."""
import pytest

from discoplan.model import (
    ActionOperator,
    BindingConstraint,
    DecompositionSchema,
    Domain,
    DomainValidationError,
    KnowledgeBase,
    LinkTemplate,
    Problem,
    StepTemplate,
    kb_satisfy,
    validate_domain,
    validate_problem,
)
from discoplan.terms import Compound, Constant, EMPTY_BINDINGS, Variable, apply, unify
from _oracles import nested_loop_join, operators_achieving
from _worlds import load_domain, load_problem, lit

L, B = Constant("l"), Constant("b")
FAIREST = Compound("fairest", (L, B))
MODELED = Compound("modeled", (L, B))


def test_shipped_corpus_is_valid():
    for name in ("discourse.dpd", "sidefx.dpd", "switches.dpd", "toggle.dpd"):
        domain = load_domain(name)
        assert validate_domain(domain) == [], name
    for dname, pname in [
        ("discourse.dpd", "lucentio.dpp"),
        ("discourse.dpd", "multirole.dpp"),
        ("sidefx.dpd", "sidefx.dpp"),
        ("switches.dpd", "switches-demo.dpp"),
    ]:
        assert validate_problem(load_domain(dname), load_problem(pname)) == []


def test_undeclared_link_label_is_diagnosed():
    domain = Domain(
        name="d",
        predicates={"g": 0},
        operators=(
            ActionOperator("top", (), (), (lit("g"),), composite=True),
            ActionOperator("leaf", (), (), (lit("g"),)),
        ),
        schemata=(
            DecompositionSchema(
                "top",
                (),
                steps=(StepTemplate("s1", "leaf", ()),),
                links=(LinkTemplate("s9", lit("g"), "final"),),
            ),
        ),
    )
    issues = validate_domain(domain)
    assert len(issues) == 1
    assert "s9" in issues[0]


def test_composite_without_schema_is_diagnosed():
    domain = Domain(
        name="d",
        predicates={"g": 0},
        operators=(ActionOperator("top", (), (), (lit("g"),), composite=True),),
    )
    issues = validate_domain(domain)
    assert len(issues) == 1
    assert "top" in issues[0] and "schema" in issues[0]


def test_unbound_effect_variable_is_diagnosed():
    domain = Domain(
        name="d",
        predicates={"p": 1},
        operators=(ActionOperator("act", (), (), (lit("p", Variable("x")),)),),
    )
    assert any("?x" in i for i in validate_domain(domain))


def test_kb_and_state_vocabularies_must_be_disjoint():
    domain = Domain(name="d", predicates={"p": 1}, kb_predicates={"p": 1})
    assert any("both" in i for i in validate_domain(domain))


CAUSES_1 = Compound("causes", (Variable("prop2"),))  # causes is a kb predicate of arity 2


@pytest.mark.parametrize(
    "part",
    ["params", "constraints", "bindings", "steps", "links", "operator bindings"],
)
def test_a_functor_used_with_another_arity_anywhere_in_the_domain_is_diagnosed(part):
    domain = load_domain("discourse.dpd")
    (schema,) = domain.schemata
    s1, s2, s3 = schema.steps
    where = "schema 0 for support"
    if part == "operator bindings":
        op = domain.operators[0]
        ops = (op._replace(constraints=(BindingConstraint("neq", op.params[0], CAUSES_1),)),)
        domain = Domain(
            domain.name, domain.predicates, domain.kb_predicates,
            ops + domain.operators[1:], domain.schemata,
        )
        where = f"operator {op.name}"
    else:
        changed = {
            "params": {"params": (CAUSES_1,)},
            "constraints": {"constraints": (lit("causes", CAUSES_1, Variable("prop1")),)},
            "bindings": {"bindings": (BindingConstraint("neq", Variable("prop1"), CAUSES_1),)},
            "steps": {"steps": (s1, s2._replace(args=(CAUSES_1,)), s3)},
            "links": {"links": (schema.links[0]._replace(condition=lit("bel", CAUSES_1)),)
                      + schema.links[1:]},
        }[part]
        domain = Domain(
            domain.name, domain.predicates, domain.kb_predicates,
            domain.operators, (schema._replace(**changed),),
        )
    assert validate_domain(domain) == [f"{where}: functor causes used with arities 2 and 1"]


@pytest.mark.parametrize("part", ["facts", "init", "goals"])
def test_a_problem_literal_with_a_functor_of_another_arity_is_diagnosed(part):
    problem = load_problem("lucentio.dpp")
    term = Compound("causes", (Constant("c"),))
    literal = lit("causes", term, Constant("g")) if part == "facts" else lit("credible", term)
    problem = problem._replace(**{part: getattr(problem, part) + (literal,)})
    where = {"facts": "facts", "init": "init", "goals": "goal"}[part]
    assert validate_problem(load_domain("discourse.dpd"), problem) == [
        f"problem {problem.name} {where}: functor causes used with arities 2 and 1"
    ]


def test_validate_domain_is_pure_and_idempotent():
    domain = load_domain("discourse.dpd")
    assert validate_domain(domain) == validate_domain(domain) == []


def test_problem_validation_flags_nonground_and_unknown():
    domain = load_domain("switches.dpd")
    bad = Problem(
        "bad",
        "switches",
        facts=(lit("mystery", Constant("a")),),
        init=(lit("on", Variable("x")),),
        goals=(lit("on", Constant("a"), Constant("b")),),
    )
    issues = validate_problem(domain, bad)
    assert any("mystery" in i for i in issues)
    assert any("not ground" in i for i in issues)
    assert any("arity" in i for i in issues)


def test_kb_satisfy_binds_schema_constraint():
    kb = KnowledgeBase({"causes": 2}, (lit("causes", FAIREST, MODELED),))
    p1, p2 = Variable("p1"), Variable("p2")
    results = list(kb_satisfy(kb, [lit("causes", p2, p1)], EMPTY_BINDINGS))
    assert len(results) == 1
    assert results[0].resolve(p2) == FAIREST
    assert results[0].resolve(p1) == MODELED


def test_kb_satisfy_empty_constraints_yields_input():
    kb = KnowledgeBase({"causes": 2}, ())
    results = list(kb_satisfy(kb, [], EMPTY_BINDINGS))
    assert results == [EMPTY_BINDINGS]


def test_kb_satisfy_unknown_predicate_is_a_fault():
    kb = KnowledgeBase({"causes": 2}, ())
    with pytest.raises(DomainValidationError):
        list(kb_satisfy(kb, [lit("mystery", Variable("x"))], EMPTY_BINDINGS))


def _ground_set(results, variables):
    out = set()
    for bs in results:
        out.add(tuple(str(bs.resolve(v)) for v in variables))
    return out


def test_kb_satisfy_matches_nested_loop_join():
    a, b, c = Constant("a"), Constant("b"), Constant("c")
    facts = (lit("causes", a, b), lit("causes", b, c), lit("causes", a, c))
    kb = KnowledgeBase({"causes": 2}, facts)
    va, vb, vc = Variable("x"), Variable("y"), Variable("z")
    constraints = [lit("causes", va, vb), lit("causes", vb, vc)]
    got = list(kb_satisfy(kb, constraints, EMPTY_BINDINGS))
    want = nested_loop_join(facts, constraints, EMPTY_BINDINGS)
    assert _ground_set(got, [va, vb, vc]) == _ground_set(want, [va, vb, vc])
    assert len(got) == len(want)


def test_kb_satisfy_negative_constraint_closed_world():
    a, b, c = Constant("a"), Constant("b"), Constant("c")
    kb = KnowledgeBase({"causes": 2}, (lit("causes", a, b),))
    x = Variable("x")
    # x bound by the positive conjunct; the negative one filters
    results = list(
        kb_satisfy(kb, [lit("causes", a, x), lit("causes", x, c, positive=False)], EMPTY_BINDINGS)
    )
    assert len(results) == 1
    results2 = list(
        kb_satisfy(kb, [lit("causes", a, x), lit("causes", a, x, positive=False)], EMPTY_BINDINGS)
    )
    assert results2 == []


def test_kb_satisfy_grounded_results_hold_in_kb():
    a, b = Constant("a"), Constant("b")
    facts = (lit("causes", a, b),)
    kb = KnowledgeBase({"causes": 2}, facts)
    x, y = Variable("x"), Variable("y")
    for bs in kb_satisfy(kb, [lit("causes", x, y)], EMPTY_BINDINGS):
        assert apply(bs, lit("causes", x, y)) in facts


def test_operators_achieving_belief_includes_both_act_kinds():
    domain = load_domain("discourse.dpd")
    found = {op.name for op in operators_achieving(domain, lit("bel", MODELED))}
    assert {"support", "cause-to-believe"} <= found


def test_operators_achieving_unknown_predicate_is_empty():
    domain = load_domain("discourse.dpd")
    assert operators_achieving(domain, lit("mystery", MODELED)) == []


def test_operators_achieving_equals_exhaustive_filter():
    from discoplan.terms import rename_fresh

    domain = load_domain("discourse.dpd")
    goals = [
        lit("bel", MODELED),
        lit("bel", Variable("q", 5)),
        lit("credible", FAIREST),
        lit("bel", MODELED, positive=False),
    ]
    for goal in goals:
        got = [op.name for op in operators_achieving(domain, goal)]
        want = [
            op.name
            for op in domain.operators
            if any(unify(e, goal) is not None for e in rename_fresh(op.effects, -1))
        ]
        assert got == want
