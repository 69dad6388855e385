"""Domain and problem language: lowering parsed forms to model values, and back.

Grammar sketch (see docs/formats.md for the EBNF):

    (domain NAME
      (kb-predicates (pred arity) ...)
      (predicates (pred arity) ...)
      (action (header (name ?v ...)) [(composite)]
              (pre LIT ...) (eff LIT ...) [(bindings (neq T T) | (eq T T) ...)])
      (decomposition (header (name TERM ...))
              (constraints LIT ...)
              (steps (label (name TERM ...)) ...)
              (links (producer LIT consumer) ...)
              (orderings (l1 l2) ...) [(bindings ...)]))

    (problem NAME (domain NAME) (facts LIT ...) (init LIT ...) (goal LIT ...))

Literals are `(pred TERM ...)` or `(not (pred TERM ...))`; variables are
`?name`. Parsing is total: malformed input produces diagnostics, never an
exception, and one bad form does not stop its siblings.

Lowering is one set of functions over nodes in `sexp.read_plain`'s shape:
an atom is a `str`, a list a `tuple` of its items. Cost model: spans are
built only on the diagnostic path. `parse_domain` and `parse_problem` lower
`read_plain`'s forms, which carry no spans, and return that value when the
pass reports nothing. Only when `read_plain` finds a parenthesis that does
not balance, or the lowering reports a diagnostic, is the text read again
with `sexp.read` and lowered again over its nodes, which are the same
strings and tuples each carrying its span; so every diagnostic gets its
`file:line:column` from that second pass alone.
"""
from __future__ import annotations

from .model import (
    ActionOperator,
    BindingConstraint,
    DecompositionSchema,
    Domain,
    LinkTemplate,
    Problem,
    StepTemplate,
)
from .sexp import Diagnostic, LocatedAtom, SourceSpan, read, read_plain
from .terms import Compound, Constant, Literal, Term, Variable, is_ground


def _err(diags: list[Diagnostic], node, message: str) -> None:
    # A node of `read_plain` has no span; its pass is rerun located when it reports.
    diags.append(Diagnostic(getattr(node, "span", None), message))


def _decimal(text: str, signed: bool = False) -> int | None:
    """The int that `text` writes in decimal digits, after at most one `-`
    when `signed`; None for any other text, or digits `int()` refuses."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not digits.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        return None


# Term nesting is finite and bounded by the parsed input; the cap keeps
# hostile inputs from exhausting the interpreter stack.
MAX_TERM_DEPTH = 200


def parse_term(node, diags: list[Diagnostic], depth: int = 0) -> Term | None:
    if isinstance(node, str):
        if node.startswith("?"):
            body = node[1:]
            if not body:
                _err(diags, node, "variable with empty name")
                return None
            if "#" in body:
                name, _, tail = body.rpartition("#")
                instance = _decimal(tail, signed=True)
                if name and instance is not None:
                    return Variable(name, instance)
            return Variable(body, 0)
        return Constant(node)
    if depth >= MAX_TERM_DEPTH:
        _err(diags, node, f"term nesting deeper than {MAX_TERM_DEPTH}")
        return None
    if not node:
        _err(diags, node, "empty compound term")
        return None
    head = node[0]
    if not isinstance(head, str):
        _err(diags, node, "compound term functor must be a symbol")
        return None
    args = _parse_terms(node[1:], diags, depth + 1)
    return None if args is None else Compound(head, args)


def _parse_terms(nodes, diags, depth: int = 0) -> tuple[Term, ...] | None:
    """Every node as a term; None at the first that fails, after its diagnostic."""
    out = []
    for node in nodes:
        t = parse_term(node, diags, depth)
        if t is None:
            return None
        out.append(t)
    return tuple(out)


def parse_literal(node, diags: list[Diagnostic]) -> Literal | None:
    """The literal `node` writes; each `(not ...)` around it flips its sign.

    Negations are unwrapped in a loop, so however deep they nest they cannot
    exhaust the interpreter stack.
    """
    positive = True
    while True:
        if isinstance(node, str) or not node:
            _err(diags, node, "literal must be a non-empty list")
            return None
        head = node[0]
        if not (isinstance(head, str) and head == "not"):
            break
        if len(node) != 2:
            _err(diags, node, "negation takes exactly one literal")
            return None
        positive = not positive
        node = node[1]
    if not isinstance(head, str):
        _err(diags, node, "literal predicate must be a symbol")
        return None
    args = _parse_terms(node[1:], diags)
    return None if args is None else Literal(head, args, positive)


def _parse_literals(nodes, diags, ground: str = "") -> list[Literal]:
    """The literals among `nodes`, skipping each that fails; when `ground`
    names the clause, a literal with variables is reported and skipped too."""
    out = []
    for node in nodes:
        lit = parse_literal(node, diags)
        if lit is None:
            continue
        if ground and not is_ground(lit):
            _err(diags, node, f"{ground} literal must be ground: {lit}")
            continue
        out.append(lit)
    return out


def _clauses(form: tuple, start: int, where: str, diags):
    """Yield (head, clause) for each `(head ...)` item of `form` from `start` on;
    report any other item."""
    for clause in form[start:]:
        if isinstance(clause, tuple) and clause and isinstance(clause[0], str):
            yield clause[0], clause
        else:
            _err(diags, clause, f"expected a clause list inside {where}")


def _parse_predicates(form: tuple, diags) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in form[1:]:
        if (
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], str)
            and (arity := _decimal(item[1])) is not None
        ):
            out[item[0]] = arity
        else:
            _err(diags, item, "expected (predicate arity)")
    return out


def _parse_header(form: tuple, diags) -> tuple[str, tuple[Term, ...]] | None:
    if len(form) != 2 or isinstance(form[1], str) or not form[1]:
        _err(diags, form, "expected (header (name args...))")
        return None
    inner = form[1]
    if not isinstance(inner[0], str):
        _err(diags, inner, "action name must be a symbol")
        return None
    args = _parse_terms(inner[1:], diags)
    return None if args is None else (inner[0], args)


def _parse_bindings(form: tuple, diags) -> tuple[BindingConstraint, ...]:
    out = []
    for item in form[1:]:
        if (
            isinstance(item, tuple)
            and len(item) == 3
            and isinstance(item[0], str)
            and item[0] in ("eq", "neq")
        ):
            left = parse_term(item[1], diags)
            right = parse_term(item[2], diags)
            if left is not None and right is not None:
                out.append(BindingConstraint(item[0], left, right))
        else:
            _err(diags, item, "expected (eq T T) or (neq T T)")
    return tuple(out)


def _parse_action(form: tuple, diags) -> ActionOperator | None:
    header = None
    composite = False
    pre: list[Literal] = []
    eff: list[Literal] = []
    bindings: tuple[BindingConstraint, ...] = ()
    for head, clause in _clauses(form, 1, "action", diags):
        if head == "header":
            header = _parse_header(clause, diags)
        elif head == "composite":
            composite = True
        elif head == "pre":
            pre += _parse_literals(clause[1:], diags)
        elif head == "eff":
            eff += _parse_literals(clause[1:], diags)
        elif head == "bindings":
            bindings = _parse_bindings(clause, diags)
        else:
            _err(diags, clause, f"unknown action clause {head}")
    if header is None:
        _err(diags, form, "action without header")
        return None
    name, params = header
    if not all(isinstance(a, Variable) for a in params):
        _err(diags, form, f"action {name}: header arguments must be variables")
        return None
    return ActionOperator(name, params, tuple(pre), tuple(eff), bindings, composite)


def _parse_steps(form: tuple, diags) -> tuple[StepTemplate, ...]:
    out = []
    for item in form[1:]:
        if (
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], tuple)
            and item[1]
            and isinstance(item[1][0], str)
        ):
            inner = item[1]
            args = _parse_terms(inner[1:], diags)
            if args is not None:
                out.append(StepTemplate(item[0], inner[0], args))
        else:
            _err(diags, item, "expected (label (action args...))")
    return tuple(out)


def _parse_links(form: tuple, diags) -> tuple[LinkTemplate, ...]:
    out = []
    for item in form[1:]:
        if (
            isinstance(item, tuple)
            and len(item) == 3
            and isinstance(item[0], str)
            and isinstance(item[2], str)
        ):
            cond = parse_literal(item[1], diags)
            if cond is not None:
                out.append(LinkTemplate(item[0], cond, item[2]))
        else:
            _err(diags, item, "expected (producer-label LIT consumer-label)")
    return tuple(out)


def _parse_orderings(form: tuple, diags) -> tuple[tuple[str, str], ...]:
    out = []
    for item in form[1:]:
        if isinstance(item, tuple) and len(item) == 2 and all(isinstance(x, str) for x in item):
            out.append((item[0], item[1]))
        else:
            _err(diags, item, "expected (before-label after-label)")
    return tuple(out)


def _parse_decomposition(form: tuple, diags) -> DecompositionSchema | None:
    header = None
    constraints: list[Literal] = []
    steps: tuple[StepTemplate, ...] = ()
    links: tuple[LinkTemplate, ...] = ()
    bindings: tuple[BindingConstraint, ...] = ()
    orderings: tuple[tuple[str, str], ...] = ()
    for head, clause in _clauses(form, 1, "decomposition", diags):
        if head == "header":
            header = _parse_header(clause, diags)
        elif head == "constraints":
            constraints += _parse_literals(clause[1:], diags)
        elif head == "steps":
            steps = _parse_steps(clause, diags)
        elif head == "links":
            links = _parse_links(clause, diags)
        elif head == "orderings":
            orderings = _parse_orderings(clause, diags)
        elif head == "bindings":
            bindings = _parse_bindings(clause, diags)
        else:
            _err(diags, clause, f"unknown decomposition clause {head}")
    if header is None:
        _err(diags, form, "decomposition without header")
        return None
    name, args = header
    return DecompositionSchema(name, args, tuple(constraints), steps, links, bindings, orderings)


def _lower_domain(form: tuple, diags) -> Domain:
    predicates: dict[str, int] = {}
    kb_predicates: dict[str, int] = {}
    operators: list[ActionOperator] = []
    schemata: list[DecompositionSchema] = []
    for head, clause in _clauses(form, 2, "domain", diags):
        if head == "predicates":
            predicates.update(_parse_predicates(clause, diags))
        elif head == "kb-predicates":
            kb_predicates.update(_parse_predicates(clause, diags))
        elif head == "action":
            op = _parse_action(clause, diags)
            if op is not None:
                operators.append(op)
        elif head == "decomposition":
            schema = _parse_decomposition(clause, diags)
            if schema is not None:
                schemata.append(schema)
        else:
            _err(diags, clause, f"unknown domain clause {head}")
    return Domain(form[1], predicates, kb_predicates, tuple(operators), tuple(schemata))


def _lower_problem(form: tuple, diags) -> Problem:
    domain_name = ""
    lits: dict[str, list[Literal]] = {"facts": [], "init": [], "goal": []}
    for head, clause in _clauses(form, 2, "problem", diags):
        if head == "domain":
            if len(clause) == 2 and isinstance(clause[1], str):
                domain_name = clause[1]
            else:
                _err(diags, clause, "expected (domain NAME)")
        elif head in lits:
            ground = "" if head == "goal" else head
            lits[head] += _parse_literals(clause[1:], diags, ground)
        else:
            _err(diags, clause, f"unknown problem clause {head}")
    if not domain_name:
        _err(diags, form, "problem without (domain NAME)")
    facts, init, goals = (tuple(lits[k]) for k in ("facts", "init", "goal"))
    return Problem(form[1], domain_name, facts, init, goals)


def _lower(forms: list, keyword: str, lower, diags, nowhere):
    """`lower` applied to the single `(keyword NAME ...)` form among `forms`, or
    None after a diagnostic; `nowhere` is the node a text without forms is
    reported at."""
    if len(forms) != 1 or isinstance(forms[0], str):
        _err(diags, forms[0] if forms else nowhere, f"expected a single ({keyword} ...) form")
        return None
    form = forms[0]
    if (
        len(form) < 2
        or not isinstance(form[0], str)
        or form[0] != keyword
        or not isinstance(form[1], str)
    ):
        _err(diags, form, f"expected ({keyword} NAME ...)")
        return None
    return lower(form, diags)


def _parse(text: str, filename: str, keyword: str, lower):
    """(value, []) from the plain pass when it reports nothing; otherwise
    (None, diagnostics) from the located pass, which lowers equal nodes and
    so reports at least what the plain pass did."""
    forms = read_plain(text)
    if forms is not None:
        diags: list[Diagnostic] = []
        value = _lower(forms, keyword, lower, diags, "")
        if not diags:
            return value, diags
    forms, diags = read(text, filename)
    _lower(forms, keyword, lower, diags, LocatedAtom("", SourceSpan(filename, 1, 1)))
    return None, diags


def parse_domain(text: str, filename: str = "<domain>") -> tuple[Domain | None, list[Diagnostic]]:
    """Lower domain text to a Domain; (None, diagnostics) when structure is broken."""
    return _parse(text, filename, "domain", _lower_domain)


def parse_problem(text: str, filename: str = "<problem>") -> tuple[Problem | None, list[Diagnostic]]:
    return _parse(text, filename, "problem", _lower_problem)


# ---------------------------------------------------------------------------
# Serialization (canonical lowercase; round-trips through parse_*)
# ---------------------------------------------------------------------------


def _binding_text(c: BindingConstraint) -> str:
    return f"({c.kind} {c.left} {c.right})"


def serialize_domain(domain: Domain) -> str:
    lines = [f"(domain {domain.name}"]
    if domain.kb_predicates:
        decls = " ".join(f"({p} {a})" for p, a in domain.kb_predicates.items())
        lines.append(f"  (kb-predicates {decls})")
    if domain.predicates:
        decls = " ".join(f"({p} {a})" for p, a in domain.predicates.items())
        lines.append(f"  (predicates {decls})")
    for op in domain.operators:
        head = " ".join([op.name] + [str(v) for v in op.params])
        parts = [f"  (action (header ({head}))"]
        if op.composite:
            parts.append("    (composite)")
        parts.append("    (pre {})".format(" ".join(str(l) for l in op.preconditions)))
        parts.append("    (eff {})".format(" ".join(str(l) for l in op.effects)))
        if op.constraints:
            parts.append("    (bindings {})".format(" ".join(_binding_text(c) for c in op.constraints)))
        lines.append("\n".join(parts) + ")")
    for s in domain.schemata:
        head = " ".join([s.action] + [str(t) for t in s.params])
        parts = [f"  (decomposition (header ({head}))"]
        parts.append("    (constraints {})".format(" ".join(str(l) for l in s.constraints)))
        step_texts = []
        for t in s.steps:
            inner = " ".join([t.action] + [str(a) for a in t.args])
            step_texts.append(f"({t.label} ({inner}))")
        parts.append("    (steps {})".format(" ".join(step_texts)))
        if s.links:
            link_texts = [f"({l.producer} {l.condition} {l.consumer})" for l in s.links]
            parts.append("    (links {})".format(" ".join(link_texts)))
        if s.orderings:
            parts.append("    (orderings {})".format(" ".join(f"({a} {b})" for a, b in s.orderings)))
        if s.bindings:
            parts.append("    (bindings {})".format(" ".join(_binding_text(c) for c in s.bindings)))
        lines.append("\n".join(parts) + ")")
    lines.append(")")
    return "\n".join(lines) + "\n"


def serialize_problem(problem: Problem) -> str:
    lines = [f"(problem {problem.name}", f"  (domain {problem.domain_name})"]
    lines.append("  (facts {})".format(" ".join(str(l) for l in problem.facts)))
    lines.append("  (init {})".format(" ".join(str(l) for l in problem.init)))
    lines.append("  (goal {})".format(" ".join(str(l) for l in problem.goals)))
    lines.append(")")
    return "\n".join(lines) + "\n"
