"""Command-line behavior: exit codes, emission, the verify pipeline."""
import json

import pytest

from discoplan import cli as cli_module, model as model_module, search as search_module
from discoplan.cli import cli_main
from _worlds import CORPUS

DISCOURSE = str(CORPUS / "discourse.dpd")
LUCENTIO = str(CORPUS / "lucentio.dpp")
SWITCHES = str(CORPUS / "switches.dpd")


def test_plan_emits_json_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = cli_main(
        ["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["format"] == "plan.json/1"
    names = {s["name"] for s in data["steps"]}
    assert {"support", "cause-to-believe", "combine-belief"} <= names
    assert data["intention"]


def test_plan_to_stdout_by_default(capsys):
    code = cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["problem"] == "lucentio"


def test_plan_dot_output_shows_both_arc_styles(capsys):
    code = cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--emit", "dot"])
    assert code == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert "[style=dashed]" in dot
    assert '[label="(bel (modeled l b))"]' in dot


def test_plan_text_output_is_an_outline(capsys):
    code = cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--emit", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "causal links:" in text
    assert "decomposition links:" in text
    assert "intended" in text


def test_check_accepts_the_corpus(capsys):
    code = cli_main(["check", "--domain", DISCOURSE, "--problem", LUCENTIO])
    assert code == 0


def test_check_rejects_malformed_text_with_spans(tmp_path, capsys):
    bad = tmp_path / "bad.dpd"
    bad.write_text("(domain d\n  (action (header (go ?x))\n")
    code = cli_main(["check", "--domain", str(bad)])
    assert code == 3
    err = capsys.readouterr().err
    assert "bad.dpd:" in err and "parenthesis" in err


def test_check_rejects_semantic_problems(tmp_path, capsys):
    bad = tmp_path / "bad.dpd"
    bad.write_text("(domain d (predicates (p 1)) (action (header (go)) (pre) (eff (p ?x))))")
    code = cli_main(["check", "--domain", str(bad)])
    assert code == 3
    assert "?x" in capsys.readouterr().err


def _every_command_rejects(domain, problem, plan, capsys, error):
    # check, plan, analyze and verify all validate the inputs first: one
    # error line, exit 3.
    for argv in (["check"], ["plan"], ["analyze"], ["verify", "--plan", str(plan)]):
        code = cli_main(argv + ["--domain", str(domain), "--problem", str(problem)])
        assert (code, capsys.readouterr()) == (3, ("", f"error: {error}\n")), argv


def test_a_problem_using_a_functor_with_another_arity_is_an_input_error(tmp_path, capsys):
    # causes is a kb predicate of arity 2, so (credible (causes c)) would
    # make unification raise during search.
    problem = tmp_path / "p1.dpp"
    problem.write_text(
        "(problem p1 (domain discourse) (facts (causes c g))"
        " (init (credible c) (credible (causes c))) (goal (bel g)))"
    )
    plan = tmp_path / "plan.json"
    assert cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(plan)]) == 0
    _every_command_rejects(
        DISCOURSE, problem, plan, capsys, "problem p1 init: functor causes used with arities 2 and 1"
    )


def test_a_schema_step_using_a_functor_with_another_arity_is_an_input_error(tmp_path, capsys):
    text = (CORPUS / "discourse.dpd").read_text()
    old = "(s2 (cause-to-believe (causes ?prop2 ?prop1)))"
    assert old in text
    domain = tmp_path / "discourse.dpd"
    domain.write_text(text.replace(old, "(s2 (cause-to-believe (causes ?prop2)))"))
    plan = tmp_path / "plan.json"
    assert cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(plan)]) == 0
    _every_command_rejects(
        domain, LUCENTIO, plan, capsys, "schema 0 for support: functor causes used with arities 2 and 1"
    )


@pytest.mark.parametrize("command", ["plan", "analyze", "verify", "check"])
def test_each_command_validates_its_domain_and_problem_once(tmp_path, monkeypatch, command):
    plan = tmp_path / "plan.json"
    assert cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(plan)]) == 0
    calls = []
    for name in ("validate_domain", "validate_problem"):
        validate = getattr(model_module, name)

        def counted(*args, _name=name, _validate=validate):
            calls.append(_name)
            return _validate(*args)

        for module in (cli_module, search_module):
            monkeypatch.setattr(module, name, counted)
    argv = [command, "--domain", DISCOURSE, "--problem", LUCENTIO]
    argv += ["--plan", str(plan)] if command == "verify" else []
    argv += ["--out", str(tmp_path / "out")] if command in ("plan", "analyze") else []
    assert cli_main(argv) == 0
    assert sorted(calls) == ["validate_domain", "validate_problem"]


def test_a_solving_command_prints_every_validation_error_as_check_does(tmp_path, capsys):
    # Two domain issues and one problem issue, in the validators' order.
    domain = tmp_path / "d.dpd"
    domain.write_text(
        "(domain d (predicates (p 1))"
        " (action (header (go)) (pre (p ?x)) (eff (p ?y)))"
        " (action (header (go)) (pre) (eff)))"
    )
    problem = tmp_path / "p.dpp"
    problem.write_text("(problem p (domain other) (init) (goal (p a)))")
    assert cli_main(["check", "--domain", str(domain), "--problem", str(problem)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("error: ") >= 3
    for command in ("plan", "analyze"):
        assert cli_main([command, "--domain", str(domain), "--problem", str(problem)]) == 3
        assert capsys.readouterr() == ("", err), command


def test_missing_file_is_an_input_error(capsys):
    assert cli_main(["check", "--domain", "/nonexistent/x.dpd"]) == 3


def test_verify_pipeline_round_trips(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert (
        cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
        == 0
    )
    code = cli_main(
        ["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)]
    )
    assert code == 0
    assert "sound" in capsys.readouterr().out


def test_verify_rejects_a_tampered_plan(tmp_path, capsys):
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    data["causal_links"] = data["causal_links"][1:]
    out.write_text(json.dumps(data))
    code = cli_main(
        ["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)]
    )
    assert code == 1
    assert "violation" in capsys.readouterr().out


def test_verify_rejects_malformed_plan_file(tmp_path, capsys):
    bad = tmp_path / "plan.json"
    bad.write_text("{not json")
    assert (
        cli_main(["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(bad)])
        == 3
    )


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param("[" * 200_000, "recursion", id="nested-200000-deep"),
        pytest.param('{"steps": ' + "7" * 5_000 + "}", "digits", id="integer-of-5000-digits"),
    ],
)
def test_verify_rejects_json_the_decoder_cannot_hold(tmp_path, capsys, text, message):
    bad = tmp_path / "plan.json"
    bad.write_text(text)
    code = cli_main(["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(bad)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert message in err


def _negated(literal: str, depth: int) -> str:
    return "(not " * depth + literal + ")" * depth


def test_a_goal_under_5000_negations_is_checked_planned_and_verified(tmp_path, capsys):
    problem = tmp_path / "deep.dpp"
    problem.write_text(
        f"(problem deep (domain switches) (init (off s1)) (goal {_negated('(on s1)', 5_000)}))"
    )
    out = tmp_path / "plan.json"
    files = ["--domain", SWITCHES, "--problem", str(problem)]
    assert cli_main(["check", *files]) == 0
    assert cli_main(["plan", *files, "--out", str(out)]) == 0
    assert cli_main(["verify", *files, "--plan", str(out)]) == 0
    assert capsys.readouterr().out == "ok\nsound: 1 linearizations checked\n"
    # The plan file's texts are read back by the same parser.
    data = json.loads(out.read_text())
    final = next(s for s in data["steps"] if s["kind"] == "final")
    final["preconditions"] = [_negated(p, 5_000) for p in final["preconditions"]]
    out.write_text(json.dumps(data))
    assert cli_main(["verify", *files, "--plan", str(out)]) == 0


def test_analyze_emits_labels_and_informational_structure(capsys):
    code = cli_main(["analyze", "--domain", DISCOURSE, "--problem", LUCENTIO])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == "intention.json/1"
    assert any(not l["intended"] for l in data["labels"])
    assert data["informational"][0]["constraints"] == ["(causes (fairest l b) (modeled l b))"]


def test_exhausted_exits_one(tmp_path, capsys):
    prob = tmp_path / "imp.dpp"
    prob.write_text("(problem imp (domain switches) (init (off a)) (goal (on a) (off a)))")
    code = cli_main(
        ["plan", "--domain", SWITCHES, "--problem", str(prob), "--max-steps", "6"]
    )
    assert code == 1


def test_budget_exceeded_exits_two(tmp_path):
    prob = tmp_path / "imp.dpp"
    prob.write_text("(problem imp (domain switches) (init (off a)) (goal (on a) (off a)))")
    code = cli_main(
        ["plan", "--domain", SWITCHES, "--problem", str(prob), "--max-nodes", "2"]
    )
    assert code == 2


def test_a_search_cut_by_the_step_bound_says_so_on_stderr(tmp_path, capsys):
    demo = ["--domain", SWITCHES, "--problem", str(CORPUS / "switches-demo.dpp")]
    for command in ("plan", "analyze"):
        assert cli_main([command, *demo, "--max-steps", "4"]) == 1
        assert capsys.readouterr() == (
            "",
            "no solution within bounds\nnote: successors dropped by --max-steps 4: 1\n",
        )
    # Relaxed-reachable but unsolvable, so the search runs until the budget ends it.
    regress = tmp_path / "regress.dpp"
    regress.write_text(
        "(problem r (domain discourse) (facts (causes c g)) (init (credible c)) (goal (bel g)))"
    )
    bounds = ["--max-depth", "2", "--max-nodes", "50", "--max-steps", "8"]
    assert cli_main(["plan", "--domain", DISCOURSE, "--problem", str(regress), *bounds]) == 2
    assert capsys.readouterr() == (
        "",
        "node budget exceeded\nnote: successors dropped by --max-steps 8: 24\n",
    )
    # No note when the bound dropped nothing, or when a solution was found anyway.
    imp = tmp_path / "imp.dpp"
    imp.write_text("(problem imp (domain switches) (init (off a)) (goal (on a) (off a)))")
    assert cli_main(["plan", "--domain", SWITCHES, "--problem", str(imp), "--max-steps", "6"]) == 1
    assert capsys.readouterr().err == "no solution within bounds\n"
    assert cli_main(["plan", *demo, "--max-steps", "5", "--out", str(tmp_path / "p.json")]) == 0
    assert capsys.readouterr() == ("", "")


def test_an_unreachable_goal_is_named_on_stderr(tmp_path, capsys):
    # No initial fact or operator makes anything credible, so no operator that
    # adds `bel` is reachable; the negative goal is reachable by closed world.
    prob = tmp_path / "unreachable.dpp"
    prob.write_text(
        "(problem r (domain discourse) (facts (causes c g))"
        " (init) (goal (bel g) (not (bel c)) (credible c)))"
    )
    for command in ("plan", "analyze"):
        assert cli_main([command, "--domain", DISCOURSE, "--problem", str(prob)]) == 1
        assert capsys.readouterr() == (
            "",
            "no solution within bounds\n"
            "note: no initial fact or reachable operator adds (bel g)\n"
            "note: no initial fact or reachable operator adds (credible c)\n",
        )


def test_unknown_flag_is_an_input_error(capsys):
    assert cli_main(["plan", "--nope"]) == 3


def test_commands_in_one_process_parse_independently(tmp_path, capsys):
    out = tmp_path / "plan.json"
    solve_flags = ["--domain", DISCOURSE, "--problem", LUCENTIO]
    assert cli_main(["plan", *solve_flags, "--emit", "text", "--max-depth", "3"]) == 0
    assert "causal links:" in capsys.readouterr().out
    # Defaults and earlier values do not leak from the first command into the next.
    assert cli_main(["plan", *solve_flags, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["format"] == "plan.json/1"
    assert cli_main(["check", "--domain", DISCOURSE]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert cli_main(["verify", "--domain", DISCOURSE, "--problem", LUCENTIO]) == 3
    assert "the following arguments are required: --plan" in capsys.readouterr().err
    assert cli_main(["check", "--domain", DISCOURSE, "--problem", LUCENTIO]) == 0


def test_search_flags_are_threaded_through(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    base = ["plan", "--domain", DISCOURSE, "--problem", str(CORPUS / "multirole.dpp")]
    assert cli_main(base + ["--out", str(out_a)]) == 0
    assert cli_main(base + ["--reuse-policy", "prefer-new", "--out", str(out_b)]) == 0
    shared = json.loads(out_a.read_text())
    duplicated = json.loads(out_b.read_text())
    ctb = lambda d: sum(1 for s in d["steps"] if s["name"] == "cause-to-believe")
    assert ctb(shared) < ctb(duplicated)


def test_non_positive_search_bounds_are_input_errors(capsys):
    base = ["--domain", DISCOURSE, "--problem", LUCENTIO]
    for command in ("plan", "analyze"):
        for flag, value in (("--max-nodes", "0"), ("--max-steps", "-1"), ("--max-depth", "0")):
            assert cli_main([command, *base, flag, value]) == 3
            assert "must be positive" in capsys.readouterr().err


def test_non_utf8_input_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.dpd"
    bad.write_bytes("(domain caf\xe9)".encode("latin-1"))
    assert cli_main(["check", "--domain", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}") and err.count("\n") == 1


def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    domain = tmp_path / "bom.dpd"
    domain.write_bytes(bom + (CORPUS / "switches.dpd").read_bytes())
    assert cli_main(["check", "--domain", str(domain)]) == 0
    assert capsys.readouterr().err == ""
    problem = tmp_path / "bom.dpp"
    problem.write_bytes(bom + (CORPUS / "lucentio.dpp").read_bytes())
    out = tmp_path / "plan.json"
    argv = ["--domain", DISCOURSE, "--problem", str(problem)]
    assert cli_main(["plan", *argv, "--out", str(out)]) == 0
    out.write_bytes(bom + out.read_bytes())
    assert cli_main(["verify", *argv, "--plan", str(out)]) == 0
    captured = capsys.readouterr()
    assert "sound" in captured.out and captured.err == ""


def test_only_one_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    domain = tmp_path / "bom2.dpd"
    domain.write_bytes(b"\xef\xbb\xbf" * 2 + (CORPUS / "switches.dpd").read_bytes())
    assert cli_main(["check", "--domain", str(domain)]) == 3
    assert capsys.readouterr().err.startswith(f"{domain}:1:1: ")


def test_verify_rejects_a_non_pair_ordering(tmp_path, capsys):
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    data["orderings"].append([1, 2, 3])
    out.write_text(json.dumps(data))
    code = cli_main(
        ["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and err.count("\n") == 1


def test_verify_rejects_a_plan_whose_goals_were_deleted(tmp_path, capsys):
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    final = next(s for s in data["steps"] if s["kind"] == "final")
    final["preconditions"] = []
    out.write_text(json.dumps(data))
    code = cli_main(
        ["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)]
    )
    assert code == 1
    assert "violation [problem]" in capsys.readouterr().out


def test_verify_reports_a_decomposition_link_to_a_missing_step(tmp_path, capsys):
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    data["decomposition_links"][0]["end"] = 99
    out.write_text(json.dumps(data))
    code = cli_main(
        ["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)]
    )
    assert code == 1
    assert "violation [structure]" in capsys.readouterr().out


@pytest.mark.parametrize("schema", [7, "inform"])
def test_verify_rejects_a_schema_other_than_the_parent_name(tmp_path, capsys, schema):
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    link = data["decomposition_links"][0]
    assert link["schema"] == "support"
    link["schema"] = schema
    out.write_text(json.dumps(data))
    code = cli_main(
        ["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)]
    )
    assert code == 3
    assert capsys.readouterr() == (
        "",
        f"error: {out}: schema {schema!r} is not the name of parent step {link['parent']}\n",
    )


def test_verify_leaves_a_missing_parent_step_to_the_structure_check(tmp_path, capsys):
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    data["decomposition_links"][0]["parent"] = 99
    out.write_text(json.dumps(data))
    code = cli_main(
        ["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)]
    )
    assert code == 1
    assert "violation [structure]" in capsys.readouterr().out


def test_verify_rejects_a_non_integer_step_id(tmp_path, capsys):
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    data["steps"][0]["id"] = [0]
    out.write_text(json.dumps(data))
    code = cli_main(
        ["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "step id [0] is not an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "condition, code",
    [("(off a extra)", "produce"), ("(not (on a extra))", "support")],
)
def test_verify_reports_a_link_condition_of_another_arity(tmp_path, capsys, condition, code):
    # The initial step's effects use `off` and `on` with one argument: the
    # produce and closed-world checks must not unify them with two.
    demo = str(CORPUS / "switches-demo.dpp")
    out = tmp_path / "plan.json"
    assert cli_main(["plan", "--domain", SWITCHES, "--problem", demo, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    link = next(l for l in data["causal_links"] if l["condition"] == "(off a)")
    assert link["producer"] == 0
    link["condition"] = condition
    out.write_text(json.dumps(data))
    assert cli_main(["verify", "--domain", SWITCHES, "--problem", demo, "--plan", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"violation [{code}]" in "\n".join(lines)
    assert all(line.startswith("violation [") for line in lines)


@pytest.mark.parametrize(
    "condition",
    [
        "(credible (causes extra (fairest l b) (modeled l b)))",
        "(credible (causes ?x (fairest l b) (modeled l b)))",
    ],
    ids=["ground", "variable"],
)
def test_verify_reports_a_link_condition_with_a_nested_functor_of_another_arity(
    tmp_path, capsys, condition
):
    # The initial step's effect uses `causes` with two arguments. A ground
    # condition is compared with it and one with a variable is unified; an
    # arity clash inside the term is a failed test either way, not a crash.
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    link = next(l for l in data["causal_links"] if (l["producer"], l["consumer"]) == (0, 6))
    precondition = link["condition"]
    assert precondition == "(credible (causes (fairest l b) (modeled l b)))"
    link["condition"] = condition
    out.write_text(json.dumps(data))
    capsys.readouterr()
    code = cli_main(["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)])
    assert code == 1
    assert capsys.readouterr() == (
        f"violation [support]: precondition {precondition} of step 6 has 0 supporting links\n"
        f"violation [produce]: step 0 does not produce {condition}\n",
        "",
    )


def _first_step_with(data, field):
    return next(s for s in data["steps"] if s[field])[field]


def _a_distinct_pair(data):
    data["bindings"]["distinct"].append(["l", "b"])
    return data["bindings"]["distinct"][-1]


# Every field of a plan file that holds symbolic-expression text, as (kind
# of text, where its first entry sits in a lucentio plan file).
TEXT_FIELDS = {
    "args": ("term", lambda d: (_first_step_with(d, "args"), 0)),
    "preconditions": ("literal", lambda d: (_first_step_with(d, "preconditions"), 0)),
    "effects": ("literal", lambda d: (_first_step_with(d, "effects"), 0)),
    "condition": ("literal", lambda d: (d["causal_links"][0], "condition")),
    "constraints": ("literal", lambda d: (d["decomposition_links"][0]["constraints"], 0)),
    "distinct": ("term", lambda d: (_a_distinct_pair(d), 0)),
}
NON_TEXTS = [5, [], {}, None]


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param(f, v, f"bad {TEXT_FIELDS[f][0]} text {v!r}", id=f"{f}-{json.dumps(v)}")
        for f in TEXT_FIELDS
        for v in NON_TEXTS
    ]
    + [
        pytest.param("bindings", v, "malformed plan field", id=f"bindings-{json.dumps(v)}")
        for v in ([], 5, "distinct", None)
    ],
)
def test_verify_rejects_a_non_string_text_or_a_non_object_bindings(
    tmp_path, capsys, field, value, message
):
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    container, key = TEXT_FIELDS[field][1](data) if field in TEXT_FIELDS else (data, field)
    container[key] = value
    out.write_text(json.dumps(data))
    code = cli_main(
        ["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and err.count("\n") == 1
    assert message in err


def _last_distinct_pair(data):
    _a_distinct_pair(data)
    return data["bindings"]["distinct"], -1


# Every array of a plan file, as (where it sits in a lucentio plan file, a
# string the reader once iterated character by character).
ARRAY_FIELDS = {
    "steps": (lambda d: (d, "steps"), ""),
    "args": (lambda d: (next(s for s in d["steps"] if len(s["args"]) == 2), "args"), "lb"),
    "preconditions": (lambda d: (next(s for s in d["steps"] if s["preconditions"]), "preconditions"), ""),
    "effects": (lambda d: (next(s for s in d["steps"] if s["effects"]), "effects"), ""),
    "orderings": (lambda d: (d, "orderings"), ""),
    "orderings item": (lambda d: (d["orderings"], 0), "01"),
    "causal_links": (lambda d: (d, "causal_links"), ""),
    "decomposition_links": (lambda d: (d, "decomposition_links"), ""),
    "members": (lambda d: (d["decomposition_links"][0], "members"), ""),
    "constraints": (lambda d: (d["decomposition_links"][0], "constraints"), ""),
    "distinct": (lambda d: (d["bindings"], "distinct"), ""),
    "distinct item": (_last_distinct_pair, "ab"),
}


@pytest.mark.parametrize(
    "field, value",
    [pytest.param(f, v, id=f"{f}-{json.dumps(v)}") for f in ARRAY_FIELDS for v in (ARRAY_FIELDS[f][1], {})],
)
def test_verify_rejects_a_string_or_an_object_for_an_array(tmp_path, capsys, field, value):
    out = tmp_path / "plan.json"
    cli_main(["plan", "--domain", DISCOURSE, "--problem", LUCENTIO, "--out", str(out)])
    data = json.loads(out.read_text())
    container, key = ARRAY_FIELDS[field][0](data)
    container[key] = value
    out.write_text(json.dumps(data))
    capsys.readouterr()
    code = cli_main(["verify", "--domain", DISCOURSE, "--problem", LUCENTIO, "--plan", str(out)])
    assert (code, capsys.readouterr()) == (
        3,
        ("", f"error: {out}: missing or malformed plan field: {field} {value!r} is not an array\n"),
    )
