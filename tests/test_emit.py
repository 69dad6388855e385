"""Plan serializers: structure, determinism, reload."""
import ast
import inspect
import json
import re
from collections import Counter

import pytest

import discoplan.emit
import discoplan.oracle
from discoplan.emit import FORMATS, emit, plan_to_dict, plan_view_from_dict, report_to_dict
from discoplan.intention import classify_effects
from discoplan.model import Problem
from discoplan.oracle import verify_soundness
from discoplan.plan import Step
from discoplan.search import FLAW_POLICIES, SearchConfig, Solution, solve
from discoplan.terms import Constant, Literal
from _worlds import lit, load_domain, load_problem, marks_domain, marks_problem

L = Constant("l")


def _solved(dname, pname):
    domain, problem = load_domain(dname), load_problem(pname)
    out = solve(domain, problem)
    assert isinstance(out, Solution)
    return out.plan, problem


def test_trivial_plan_json_has_two_steps_one_link():
    domain = load_domain("switches.dpd")
    problem = Problem("t", "switches", init=(lit("on", L),), goals=(lit("on", L),))
    out = solve(domain, problem)
    data = plan_to_dict(out.plan, classify_effects(out.plan))
    assert len(data["steps"]) == 2
    assert len(data["causal_links"]) == 1
    assert data["causal_links"][0]["producer"] == 0
    assert data["causal_links"][0]["consumer"] == 1


def test_json_reparse_reconstructs_counts():
    plan, _ = _solved("discourse.dpd", "lucentio.dpp")
    text = emit(plan, classify_effects(plan), "json")
    data = json.loads(text)
    assert len(data["steps"]) == len(plan.steps)
    assert len(data["causal_links"]) == len(plan.causal_links)
    assert len(data["decomposition_links"]) == len(plan.decomposition_links)
    assert len(data["orderings"]) == len(plan.orderings)
    assert len(data["intention"]) == sum(len(s.effects) for s in plan.steps)


@pytest.mark.parametrize("flaw_policy", FLAW_POLICIES)
@pytest.mark.parametrize(
    "pair",
    [
        ("discourse.dpd", "lucentio.dpp"),
        ("discourse.dpd", "multirole.dpp"),
        ("separation.dpd", "separation.dpp"),
        ("sidefx.dpd", "sidefx.dpp"),
        ("switches.dpd", "switches-demo.dpp"),
    ],
    ids=lambda pair: pair[1],
)
def test_every_causal_hop_is_a_causal_link_of_its_file(pair, flaw_policy):
    domain, problem = load_domain(pair[0]), load_problem(pair[1])
    out = solve(domain, problem, SearchConfig(flaw_policy=flaw_policy))
    assert isinstance(out, Solution)
    report = classify_effects(out.plan)
    data = json.loads(emit(out.plan, report, "json"))
    analysis = report_to_dict(out.plan, report)
    links = [{"kind": "causal", **l} for l in data["causal_links"]]
    for labels in (data["intention"], analysis["labels"]):
        hops = [h for l in labels for h in l["chain"] if h["kind"] == "causal"]
        assert hops
        assert [h for h in hops if h not in links] == []


@pytest.mark.parametrize("pname", ["lucentio.dpp", "multirole.dpp"])
def test_informational_repeats_each_decomposition_link_of_the_plan_file(pname):
    plan, problem = _solved("discourse.dpd", pname)
    report = classify_effects(plan)
    written = {d["parent"]: d for d in plan_to_dict(plan)["decomposition_links"]}
    info = report_to_dict(plan, report)["informational"]
    assert [d.parent for d in plan.decomposition_links] == [e["parent"] for e in info]
    for entry in info:
        link = written[entry["parent"]]
        assert entry == {k: link[k] for k in ("parent", "schema", "constraints")}
        # The instantiated constraints are ground members of the knowledge base.
        assert set(entry["constraints"]) <= {str(f) for f in problem.facts}
    if pname == "lucentio.dpp":
        assert info == [{"parent": 2, "schema": "support",
                         "constraints": ["(causes (fairest l b) (modeled l b))"]}]


def test_informational_is_empty_without_composites():
    plan, _ = _solved("switches.dpd", "switches-demo.dpp")
    assert report_to_dict(plan, classify_effects(plan))["informational"] == []


def test_dot_draws_dashed_boundaries_and_labeled_link_into_end():
    plan, _ = _solved("discourse.dpd", "lucentio.dpp")
    dot = emit(plan, None, "dot")
    (deco,) = plan.decomposition_links
    assert f"s{deco.parent} -> s{deco.begin} [style=dashed];" in dot
    assert f"s{deco.parent} -> s{deco.end} [style=dashed];" in dot
    for m in deco.members:
        assert f"s{deco.parent} -> s{m} [style=dashed];" in dot
    solid_into_end = [
        line
        for line in dot.splitlines()
        if f"-> s{deco.end} [label=" in line and "(bel (modeled l b))" in line
    ]
    assert solid_into_end


def test_emission_is_deterministic_across_calls():
    plan, _ = _solved("discourse.dpd", "multirole.dpp")
    report = classify_effects(plan)
    for fmt in ("json", "dot", "text"):
        assert emit(plan, report, fmt) == emit(plan, report, fmt)


def test_plan_view_reload_preserves_auditability(monkeypatch):
    # The view holds the planner's own records, but the audit reads only what
    # the file wrote: oracle.py imports nothing from plan.py, and reads no
    # field the planner derives, so its checks stay independent.
    imported = {
        node.module
        for node in ast.walk(ast.parse(inspect.getsource(discoplan.oracle)))
        if isinstance(node, ast.ImportFrom)
    }
    assert "plan" not in imported
    plan, problem = _solved("discourse.dpd", "multirole.dpp")
    data = json.loads(emit(plan, classify_effects(plan), "json"))
    view = plan_view_from_dict(data)
    assert len(view.steps) == len(plan.steps)

    def derived(_):
        raise AssertionError("the audit read a field the planner derives")

    monkeypatch.setattr(Step, "signatures", property(derived))
    for link in view.causal_links:
        object.__delattr__(link, "negated")
        object.__delattr__(link, "signature")
    report = verify_soundness(view, problem)
    assert report.ok, report.violations


def test_plan_view_reload_reads_each_distinct_text_once_per_call(monkeypatch):
    plan, _ = _solved("discourse.dpd", "multirole.dpp")
    data = json.loads(emit(plan, classify_effects(plan), "json"))
    terms = [a for s in data["steps"] for a in s["args"]]
    terms += [t for pair in data["bindings"]["distinct"] for t in pair]
    literals = [t for s in data["steps"] for t in s["preconditions"] + s["effects"]]
    literals += [l["condition"] for l in data["causal_links"]]
    literals += [c for d in data["decomposition_links"] for c in d["constraints"]]
    once = Counter(set(terms)) + Counter(set(literals))
    assert once.total() < len(terms) + len(literals)
    texts = []
    read_plain = discoplan.emit.read_plain

    def counted_read(text):
        texts.append(text)
        return read_plain(text)

    monkeypatch.setattr(discoplan.emit, "read_plain", counted_read)
    for _ in range(2):
        texts.clear()
        plan_view_from_dict(data)
        assert Counter(texts) == once


SEPARATING_WORLDS = {
    "marks": lambda: (marks_domain(), marks_problem()),
    "separation": lambda: (load_domain("separation.dpd"), load_problem("separation.dpp")),
}
# Searches whose plan avoids the threat by a binding or an ordering instead.
NO_SEPARATION = {("marks", "fifo"), ("marks", "lifo"), ("separation", "threats-first")}


@pytest.mark.parametrize("flaw_policy", FLAW_POLICIES)
@pytest.mark.parametrize("world", sorted(SEPARATING_WORLDS))
def test_plan_view_reload_keeps_noncodesignation_pairs(world, flaw_policy):
    domain, problem = SEPARATING_WORLDS[world]()
    out = solve(domain, problem, SearchConfig(flaw_policy=flaw_policy))
    assert isinstance(out, Solution)
    assert bool(out.plan.bindings.distinct) != ((world, flaw_policy) in NO_SEPARATION)
    data = json.loads(emit(out.plan, classify_effects(out.plan), "json"))
    assert len(data["bindings"]["distinct"]) == len(out.plan.bindings.distinct)
    # A forbidden pair names each class as the steps do.
    named = {v for s in data["steps"] for t in s["args"] + s["preconditions"] + s["effects"]
             for v in re.findall(r"\?[^\s()]+", t)}
    forbidden = {t for pair in data["bindings"]["distinct"] for t in pair if t.startswith("?")}
    assert forbidden <= named
    view = plan_view_from_dict(data)
    assert len(view.bindings.distinct) == len(out.plan.bindings.distinct)
    report = verify_soundness(view, problem)
    assert report.ok, report.violations


def _golden_documents():
    """The plan and intention documents of every corpus configuration `test_golden.py` runs."""
    from test_golden import CONFIGS

    for dname, pname, flaw, reuse in CONFIGS:
        domain, problem = load_domain(f"{dname}.dpd"), load_problem(f"{pname}.dpp")
        config = SearchConfig(flaw_policy=flaw, reuse_policy=reuse, max_nodes=3000)
        out = solve(domain, problem, config)
        if isinstance(out, Solution):
            report = classify_effects(out.plan)
            yield plan_to_dict(out.plan, report)
            yield plan_to_dict(out.plan, None)
            yield report_to_dict(out.plan, report)


HAND_BUILT = [
    "",
    "café → \U0001d11e",
    'say "no" \\ then \\"yes\\"',
    "".join(chr(c) for c in range(32)) + "\x7f",
    [],
    {},
    [[], {}, [[]], [{}], {"": []}],
    [[1, [2, [3, []]]], (4, (5,))],
    {"t": True, "f": False, "n": None, "i": -17, "big": 2**70, "zero": 0},
    {"kéy \"q\"": {"nested": [None, True, "x\ty"]}},
    ("a", ["b", ("c",)]),
]


def test_to_json_writes_what_json_dumps_writes():
    documents = list(_golden_documents())
    assert len(documents) >= 100
    for doc in documents + HAND_BUILT:
        assert discoplan.emit.to_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("value", [1.5, [0.0], {"x": float("nan")}, {1: "a"}, {None: 1},
                                   {("a",): 1}, [b"bytes"], {"s": {2}}])
def test_to_json_rejects_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        discoplan.emit.to_json(value)


def _literal_objects(plan):
    lits = [l for s in plan.steps for l in s.preconditions + s.effects]
    lits += [l.condition for l in plan.causal_links]
    lits += [c for d in plan.decomposition_links for c in d.constraints]
    return {id(l) for l in lits}


@pytest.mark.parametrize("fmt", FORMATS)
def test_emit_applies_bindings_once_per_literal_object(monkeypatch, fmt):
    plan, _ = _solved("discourse.dpd", "multirole.dpp")
    report = classify_effects(plan)
    applied = []
    apply = discoplan.emit.apply

    def counted(bindings, literal):
        applied.append(id(literal))
        return apply(bindings, literal)

    printed = []
    to_str = Literal.__str__

    def counted_str(literal):
        printed.append(literal)
        return to_str(literal)

    monkeypatch.setattr(discoplan.emit, "apply", counted)
    monkeypatch.setattr(Literal, "__str__", counted_str)
    text = emit(plan, report, fmt)
    assert len(applied) == len(set(applied))
    assert set(applied) <= _literal_objects(plan)
    # Each literal object is printed once, the sort key of `_in_order` included.
    assert len(printed) == len(applied)
    monkeypatch.undo()
    assert text == emit(plan, report, fmt)
