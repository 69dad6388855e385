"""Domain/problem language: lowering, diagnostics, round-trips, fuzz."""
import itertools
import random

import pytest

from discoplan.language import (
    parse_domain,
    parse_problem,
    parse_term,
    serialize_domain,
    serialize_problem,
)
from discoplan.sexp import LocatedAtom, LocatedList, read
from discoplan.terms import Compound, Constant, Variable
from _worlds import CORPUS, lit, load_domain, load_problem

L, B = Constant("l"), Constant("b")


def test_operator_and_schema_text_lower_to_the_model():
    text = """
    (domain mini
      (kb-predicates (causes 2))
      (predicates (bel 1))
      (action (header (support ?prop))
        (composite)
        (pre (not (bel ?prop)))
        (eff (bel ?prop)))
      (action (header (convey ?p)) (pre) (eff (bel ?p)))
      (decomposition (header (support ?prop1))
        (constraints (causes ?prop2 ?prop1))
        (steps (s1 (convey ?prop2)))
        (links (s1 (bel ?prop2) final))))
    """
    domain, diags = parse_domain(text)
    assert diags == []
    support = domain.operator("support")
    assert support.composite
    assert support.effects == (lit("bel", Variable("prop")),)
    assert support.preconditions == (lit("bel", Variable("prop"), positive=False),)
    (schema,) = domain.schemata
    assert schema.constraints == (lit("causes", Variable("prop2"), Variable("prop1")),)
    assert schema.links[0].consumer == "final"


def test_empty_domain_is_valid():
    domain, diags = parse_domain("(domain d)")
    assert diags == []
    assert domain.name == "d"
    assert domain.operators == ()


def test_unbalanced_parenthesis_carries_its_line():
    text = "(domain d\n  (predicates (p 1))\n  (action (header (go ?x))\n"
    domain, diags = parse_domain(text)
    assert domain is None
    assert any(d.span.line == 3 for d in diags) or any(d.span.line == 1 for d in diags)
    assert all(isinstance(str(d), str) for d in diags)


def test_diagnostics_do_not_stop_sibling_forms():
    text = """
    (domain d
      (predicates (p 1))
      (mystery-clause 1)
      (action (header (go ?x)) (pre) (eff (p ?x)))
      (also-bad)
    )
    """
    domain, diags = parse_domain(text)
    assert domain is None
    assert len(diags) == 2  # both bad clauses reported


def test_case_is_folded_to_lowercase():
    domain, diags = parse_domain("(Domain D (Predicates (Bel 1)) (Action (Header (Go ?X)) (Pre) (Eff (Bel ?X))))")
    assert diags == []
    assert domain.name == "d"
    assert domain.operator("go").effects == (lit("bel", Variable("x")),)


def test_lucentio_problem_parses():
    problem = load_problem("lucentio.dpp")
    assert problem.domain_name == "discourse"
    fairest = Compound("fairest", (L, B))
    modeled = Compound("modeled", (L, B))
    assert problem.facts == (lit("causes", fairest, modeled),)
    assert problem.goals == (lit("bel", modeled),)


def test_variable_in_init_is_a_diagnostic():
    text = "(problem p (domain d) (init (on ?x)) (goal (on a)))"
    problem, diags = parse_problem(text)
    assert problem is None
    assert any("ground" in d.message for d in diags)


def test_corpus_round_trips_through_serialize():
    for name in ("discourse.dpd", "sidefx.dpd", "switches.dpd", "toggle.dpd"):
        domain = load_domain(name)
        text = serialize_domain(domain)
        again, diags = parse_domain(text)
        assert diags == []
        assert again == domain
        # serialize of a reparse is fixed text
        assert serialize_domain(again) == text
    for name in ("lucentio.dpp", "multirole.dpp", "sidefx.dpp", "switches-demo.dpp"):
        problem = load_problem(name)
        text = serialize_problem(problem)
        again, diags = parse_problem(text)
        assert diags == []
        assert again == problem


def test_reader_tracks_line_and_column():
    forms, diags = read("(a\n  (b c)\n)")
    assert diags == []
    (form,) = forms
    inner = form[1]
    assert type(inner) is LocatedList and inner == ("b", "c")
    assert inner.span.line == 2
    assert inner.span.column == 3


def test_instantiated_variable_notation_round_trips():
    v = Variable("prop", 7)
    text = str(lit("bel", v))
    problem, diags = parse_problem(f"(problem p (domain d) (goal {text}))")
    assert diags == []
    assert problem.goals == (lit("bel", v),)


FUZZ_ALPHABET = "()?#;ab1 \n\t-_~%\\\"'" + "αé"


def _fuzz_inputs(count, seed=99):
    rng = random.Random(seed)
    corpus_texts = [
        (CORPUS / n).read_text()
        for n in ("discourse.dpd", "lucentio.dpp", "switches.dpd")
    ]
    for i in range(count):
        if i % 3 == 0:
            base = rng.choice(corpus_texts)
            pos = rng.randrange(len(base))
            glitch = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(1, 6)))
            yield base[:pos] + glitch + base[pos + rng.randrange(0, 9) :]
        else:
            yield "".join(
                rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(0, 160))
            )


def test_parser_is_total_on_fuzzed_inputs():
    for text in _fuzz_inputs(1000):
        domain, diags = parse_domain(text)
        assert domain is not None or diags
        problem, pdiags = parse_problem(text)
        assert problem is not None or pdiags


def test_parser_survives_pathological_nesting():
    for text in ("(" * 50_000, ")" * 50_000, "(" * 20_000 + "a" + ")" * 19_000):
        domain, diags = parse_domain(text)
        assert domain is None and diags
    deep, diags = read("(" * 30_000 + ")" * 30_000)
    assert not diags
    assert len(deep) == 1
    for _ in range(30_000):
        (deep,) = deep
    assert type(deep) is LocatedList and deep == () and deep.span.column == 30_000
    # a deep term inside an otherwise valid clause degrades into a diagnostic
    bomb = "(f " * 5_000 + "a" + ")" * 5_000
    text = f"(problem p (domain d) (goal (pred {bomb})))"
    problem, diags = parse_problem(text)
    assert problem is None
    assert any("nesting" in d.message for d in diags)


def test_negations_unwrap_to_one_sign_with_the_innermost_diagnostic():
    for depth in (0, 1, 2, 3, 5_000):
        wrap = "(not " * depth
        value, diags = parse_problem(f"(problem p (domain d) (goal {wrap}(p a){')' * depth}))")
        assert not diags
        assert value.goals == (lit("p", Constant("a"), positive=depth % 2 == 0),)
        # A malformed literal at any depth is reported once, at its own span.
        column = 29 + 5 * depth
        for inner, message in (
            ("a", "literal must be a non-empty list"),
            ("(not (p a) (q b))", "negation takes exactly one literal"),
            ("((p) a)", "literal predicate must be a symbol"),
        ):
            value, diags = parse_problem(
                f"(problem p (domain d) (goal {wrap}{inner}{')' * depth}))", "f"
            )
            assert value is None
            assert [str(d) for d in diags] == [f"f:1:{column}: {message}"]


# One row per diagnostic the lowering can report: (parser, input, every
# diagnostic as `file:line:col: message`). Each input is otherwise well
# formed, so the listed diagnostics are all it produces and the parse
# returns None. The last rows pin where a term list stops (at its first bad
# term), which clauses keep going after a bad item, and line tracking.
_DEEP = "(f " * 201 + "a" + ")" * 201
_ACT = "(domain d (action (header (go ?x)) {}))"
_DEC = "(domain d (decomposition (header (go ?x)) {}))"
_PROB = "(problem p (domain d) {})"
DIAGNOSTICS = [
    ("problem", _PROB.format("(goal (p ?))"), ["f:1:32: variable with empty name"]),
    ("problem", _PROB.format(f"(goal (p {_DEEP}))"), ["f:1:632: term nesting deeper than 200"]),
    ("problem", _PROB.format("(goal (p ()))"), ["f:1:32: empty compound term"]),
    ("problem", _PROB.format("(goal (p ((f) a)))"),
     ["f:1:32: compound term functor must be a symbol"]),
    ("problem", _PROB.format("(goal a)"), ["f:1:29: literal must be a non-empty list"]),
    ("problem", _PROB.format("(goal (not (p a) (q b)))"),
     ["f:1:29: negation takes exactly one literal"]),
    ("problem", _PROB.format("(goal ((p) a))"), ["f:1:29: literal predicate must be a symbol"]),
    ("domain", "(domain d (predicates (p x)))", ["f:1:23: expected (predicate arity)"]),
    # A superscript is a digit that int() refuses, not a decimal arity.
    ("domain", "(domain d (predicates (p ²)))", ["f:1:23: expected (predicate arity)"]),
    # So are more digits than int() converts.
    pytest.param("domain", f"(domain d (predicates (p {'9' * 5_000})))",
                 ["f:1:23: expected (predicate arity)"], id="domain-5000-digit-arity"),
    ("domain", "(domain d (action (header)))",
     ["f:1:19: expected (header (name args...))", "f:1:11: action without header"]),
    ("domain", "(domain d (action (header ((go) ?x))))",
     ["f:1:27: action name must be a symbol", "f:1:11: action without header"]),
    ("domain", _ACT.format("(bindings (same ?x ?x))"), ["f:1:46: expected (eq T T) or (neq T T)"]),
    ("domain", _ACT.format("junk"), ["f:1:36: expected a clause list inside action"]),
    ("domain", _ACT.format("(frob)"), ["f:1:36: unknown action clause frob"]),
    ("domain", "(domain d (action (pre (p a))))", ["f:1:11: action without header"]),
    ("domain", "(domain d (action (header (go a))))",
     ["f:1:11: action go: header arguments must be variables"]),
    ("domain", _DEC.format("(steps (s1 go))"), ["f:1:50: expected (label (action args...))"]),
    ("domain", _DEC.format("(links (s1 (p ?x)))"),
     ["f:1:50: expected (producer-label LIT consumer-label)"]),
    ("domain", _DEC.format("(orderings (s1))"), ["f:1:54: expected (before-label after-label)"]),
    ("domain", _DEC.format("junk"), ["f:1:43: expected a clause list inside decomposition"]),
    ("domain", _DEC.format("(frob)"), ["f:1:43: unknown decomposition clause frob"]),
    ("domain", "(domain d (decomposition (steps)))", ["f:1:11: decomposition without header"]),
    ("domain", "", ["f:1:1: expected a single (domain ...) form"]),
    ("domain", "(domain d) (domain e)", ["f:1:1: expected a single (domain ...) form"]),
    ("domain", "(domain)", ["f:1:1: expected (domain NAME ...)"]),
    ("domain", "(domain d junk)", ["f:1:11: expected a clause list inside domain"]),
    ("domain", "(domain d (frob))", ["f:1:11: unknown domain clause frob"]),
    ("problem", "", ["f:1:1: expected a single (problem ...) form"]),
    ("problem", "(problem)", ["f:1:1: expected (problem NAME ...)"]),
    ("problem", _PROB.format("junk"), ["f:1:23: expected a clause list inside problem"]),
    ("problem", _PROB.format("(domain)"), ["f:1:23: expected (domain NAME)"]),
    ("problem", _PROB.format("(init (on ?x))"), ["f:1:29: init literal must be ground: (on ?x)"]),
    ("problem", _PROB.format("(frob)"), ["f:1:23: unknown problem clause frob"]),
    ("problem", "(problem p (goal (on a)))", ["f:1:1: problem without (domain NAME)"]),
    ("problem", _PROB.format("(goal (p ? ?) (q ?))"),
     ["f:1:32: variable with empty name", "f:1:40: variable with empty name"]),
    ("domain", "(domain d (action (header (go ? ?))))",
     ["f:1:31: variable with empty name", "f:1:11: action without header"]),
    ("domain", _ACT.format("(bindings (eq ? ?))"),
     ["f:1:50: variable with empty name", "f:1:52: variable with empty name"]),
    ("domain", _DEC.format("(steps (s1 (go ? ?)) (s2 (go ?)))"),
     ["f:1:58: variable with empty name", "f:1:72: variable with empty name"]),
    ("problem", "(problem p\n  (domain d)\n  (facts (causes ?a b))\n  (goal (not)))",
     ["f:3:10: facts literal must be ground: (causes ?a b)",
      "f:4:9: negation takes exactly one literal"]),
    ("domain",
     "(domain d\n  (action (header (go ?x)) (pre (p ?)) (eff ()) (eff (q ?x)))\n  7)",
     ["f:2:36: variable with empty name", "f:2:45: literal must be a non-empty list",
      "f:3:3: expected a clause list inside domain"]),
]


@pytest.mark.parametrize("kind,text,expected", DIAGNOSTICS)
def test_every_diagnostic_is_pinned(kind, text, expected):
    parse = parse_domain if kind == "domain" else parse_problem
    value, diags = parse(text, "f")
    assert value is None
    assert [str(d) for d in diags] == expected


def test_a_variable_suffix_is_an_instantiation_id_only_when_decimal():
    # Two signs, or more digits than int() converts, are not a decimal id.
    many = "9" * 5_000
    problem, diags = parse_problem(
        _PROB.format(f"(goal (p ?x#3 ?x#-2 ?x#² ?x#-² ?x#--1 ?x#{many} ?x#-{many}))"), "f"
    )
    assert diags == []
    (goal,) = problem.goals
    assert goal.args == (
        Variable("x", 3), Variable("x", -2), Variable("x#²", 0), Variable("x#-²", 0),
        Variable("x#--1", 0), Variable(f"x#{many}", 0), Variable(f"x#-{many}", 0),
    )


def test_every_variable_reads_back_from_its_text():
    # The id follows the last "#", so a name holding "#" and a sign, such
    # as that of ?x#-, keeps its text when an id is appended.
    checked = 0
    for n in range(1, 6):
        for body in itertools.product("#ab1-_", repeat=n):
            v = parse_term("?" + "".join(body), [])
            for w in (v, *(Variable(v.name, iid) for iid in (1, 2, 3))):
                assert parse_term(str(w), []) == w, w
                checked += 1
    assert parse_term("?x#-#2", []) == Variable("x#-", 2)
    assert checked == 37_320


def test_reader_never_yields_an_empty_atom():
    # parse_term has no "empty symbol" diagnostic: every atom the reader
    # yields holds at least one character, over the fuzz alphabet of
    # acceptance criterion 7 (every string up to length 3, then random ones).
    alphabet = "()?#;ab1 \n\t-_~%\\\"'é("
    rng = random.Random(7)
    texts = ["".join(t) for n in range(4) for t in itertools.product(alphabet, repeat=n)]
    for _ in range(2_000):
        texts.append("".join(rng.choice(alphabet) for _ in range(rng.randrange(120))))
    for text in texts:
        stack = list(read(text)[0])
        while stack:
            node = stack.pop()
            if type(node) is LocatedAtom:
                assert node, repr(text)
            else:
                stack.extend(node)


def test_later_clauses_override_or_accumulate():
    text = """
    (domain d
      (action (header (go ?x ?y))
        (pre (p ?x)) (eff (q ?x)) (pre (p ?y)) (eff (q ?y))
        (bindings (neq ?x ?y)) (bindings (eq ?x ?y)))
      (decomposition (header (go ?a ?b))
        (constraints (k ?a)) (constraints (k ?b))
        (steps (s1 (go ?a ?b))) (steps (s2 (go ?b ?a)))))
    """
    domain, diags = parse_domain(text)
    assert diags == []
    (op,) = domain.operators
    x, y = Variable("x"), Variable("y")
    assert op.preconditions == (lit("p", x), lit("p", y))
    assert op.effects == (lit("q", x), lit("q", y))
    assert [c.kind for c in op.constraints] == ["eq"]
    (schema,) = domain.schemata
    assert schema.constraints == (lit("k", Variable("a")), lit("k", Variable("b")))
    assert [t.label for t in schema.steps] == ["s2"]
