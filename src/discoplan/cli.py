"""Command-line tool: plan, analyze, verify, check.

Exit codes: 0 solution or clean, 1 exhausted (a goal proven unreachable
included) or unsound, 2 budget exceeded, 3 input error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .emit import FORMATS, PlanFileError, emit, plan_view_from_dict, report_to_dict, to_json
from .intention import classify_effects
from .language import parse_domain, parse_problem
from .model import DomainValidationError, validate_domain, validate_problem
from .oracle import verify_soundness
from .search import (
    FLAW_POLICIES,
    REUSE_POLICIES,
    Exhausted,
    SearchConfig,
    Solution,
    solve,
)

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


def _read_file(path: str):
    """The file's text without one leading byte-order mark; None if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _parse_file(path: str, parse):
    """Read and parse one input file, printing its diagnostics; None on any error."""
    text = _read_file(path)
    if text is None:
        return None
    value, diags = parse(text, path)
    for d in diags:
        print(str(d), file=sys.stderr)
    return value


def _load(args, validate=True):
    """Parse and, if `validate`, validate domain and problem; None on a parse error."""
    domain = _parse_file(args.domain, parse_domain)
    if domain is None:
        return None
    problem = None
    if getattr(args, "problem", None):
        problem = _parse_file(args.problem, parse_problem)
        if problem is None:
            return None
    if validate:
        issues = validate_domain(domain)
        if problem is not None:
            issues += validate_problem(domain, problem)
        if issues:
            raise DomainValidationError(*issues)
    return domain, problem


def _write_out(text: str, out: str | None) -> bool:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return False
    else:
        sys.stdout.write(text)
    return True


def _config(args) -> SearchConfig:
    return SearchConfig(
        max_steps=args.max_steps,
        max_depth=args.max_depth,
        max_nodes=args.max_nodes,
        flaw_policy=args.flaw_policy,
        reuse_policy=args.reuse_policy,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    defaults = SearchConfig()
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--max-steps", type=_positive_int, default=defaults.max_steps)
    p.add_argument("--max-depth", type=_positive_int, default=defaults.max_depth)
    p.add_argument("--max-nodes", type=_positive_int, default=defaults.max_nodes)
    p.add_argument("--flaw-policy", choices=FLAW_POLICIES, default=defaults.flaw_policy)
    p.add_argument("--reuse-policy", choices=REUSE_POLICIES, default=defaults.reuse_policy)
    p.add_argument("--out", default=None)


def _solve_and_write(args, render) -> int:
    """Search, write `render(plan)` for a solution, and map each outcome to its exit code."""
    loaded = _load(args, validate=False)  # solve validates
    if loaded is None:
        return EXIT_INPUT
    outcome = solve(*loaded, _config(args))
    if isinstance(outcome, Solution):
        return EXIT_OK if _write_out(render(outcome.plan), args.out) else EXIT_INPUT
    if isinstance(outcome, Exhausted):
        print("no solution within bounds", file=sys.stderr)
        for goal in outcome.unreachable:
            print(f"note: no initial fact or reachable operator adds {goal}", file=sys.stderr)
    else:
        print("node budget exceeded", file=sys.stderr)
    if outcome.over_max_steps:
        print(
            f"note: successors dropped by --max-steps {args.max_steps}: {outcome.over_max_steps}",
            file=sys.stderr,
        )
    return EXIT_NO_SOLUTION if isinstance(outcome, Exhausted) else EXIT_BUDGET


def cmd_plan(args) -> int:
    return _solve_and_write(args, lambda plan: emit(plan, classify_effects(plan), args.emit))


def cmd_analyze(args) -> int:
    return _solve_and_write(
        args, lambda plan: to_json(report_to_dict(plan, classify_effects(plan))) + "\n"
    )


def cmd_verify(args) -> int:
    loaded = _load(args)
    if loaded is None:
        return EXIT_INPUT
    _, problem = loaded
    plan_text = _read_file(args.plan)
    if plan_text is None:
        return EXIT_INPUT
    # Beyond a JSONDecodeError, `json.loads` raises a ValueError on an integer
    # too long to convert and a RecursionError on arrays or objects nested
    # too deep.
    try:
        data = json.loads(plan_text)
        view = plan_view_from_dict(data)
    except (ValueError, RecursionError, PlanFileError) as exc:
        print(f"error: {args.plan}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = verify_soundness(view, problem)
    if report.ok:
        print(f"sound: {report.linearizations_checked} linearizations checked")
        return EXIT_OK
    for v in report.violations:
        print(f"violation [{v.code}]: {v.message}")
    return EXIT_NO_SOLUTION


def cmd_check(args) -> int:
    loaded = _load(args)
    if loaded is None:
        return EXIT_INPUT
    print("ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="discoplan")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="search for a plan and emit it")
    _add_solve_flags(p_plan)
    p_plan.add_argument("--emit", choices=FORMATS, default="json")
    p_plan.set_defaults(func=cmd_plan)

    p_an = sub.add_parser("analyze", help="plan, then emit the intention report")
    _add_solve_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="audit an emitted plan file")
    p_ver.add_argument("--domain", required=True)
    p_ver.add_argument("--problem", required=True)
    p_ver.add_argument("--plan", required=True)
    p_ver.set_defaults(func=cmd_verify)

    p_chk = sub.add_parser("check", help="parse and validate inputs only")
    p_chk.add_argument("--domain", required=True)
    p_chk.add_argument("--problem", default=None)
    p_chk.set_defaults(func=cmd_check)
    return parser


# One parser serves every command of a process: building it costs more
# than a small command's parse, and parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainValidationError as exc:
        for issue in exc.args:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    entry()
