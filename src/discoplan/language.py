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
from .sexp import Diagnostic, SAtom, SList, SNode, SourceSpan, read
from .terms import Compound, Constant, Literal, Term, Variable, is_ground


def _err(diags: list[Diagnostic], node: SNode, message: str) -> None:
    diags.append(Diagnostic(node.span, message))


# Term nesting is finite and bounded by the parsed input; the cap keeps
# hostile inputs from exhausting the interpreter stack.
MAX_TERM_DEPTH = 200


def parse_term(node: SNode, diags: list[Diagnostic], depth: int = 0) -> Term | None:
    if isinstance(node, SAtom):
        text = node.text
        if text.startswith("?"):
            body = text[1:]
            if not body:
                _err(diags, node, "variable with empty name")
                return None
            if "#" in body:
                name, _, tail = body.partition("#")
                if name and tail.lstrip("-").isdigit():
                    return Variable(name, int(tail))
            return Variable(body, 0)
        return Constant(text)
    if depth >= MAX_TERM_DEPTH:
        _err(diags, node, f"term nesting deeper than {MAX_TERM_DEPTH}")
        return None
    if not node.items:
        _err(diags, node, "empty compound term")
        return None
    head = node.items[0]
    if not isinstance(head, SAtom):
        _err(diags, node, "compound term functor must be a symbol")
        return None
    args = _parse_terms(node.items[1:], diags, depth + 1)
    return None if args is None else Compound(head.text, args)


def _parse_terms(nodes, diags, depth: int = 0) -> tuple[Term, ...] | None:
    """Every node as a term; None at the first that fails, after its diagnostic."""
    out = []
    for node in nodes:
        t = parse_term(node, diags, depth)
        if t is None:
            return None
        out.append(t)
    return tuple(out)


def parse_literal(node: SNode, diags: list[Diagnostic]) -> Literal | None:
    """The literal `node` writes; each `(not ...)` around it flips its sign.

    Negations are unwrapped in a loop, so however deep they nest they cannot
    exhaust the interpreter stack.
    """
    positive = True
    while True:
        if not isinstance(node, SList) or not node.items:
            _err(diags, node, "literal must be a non-empty list")
            return None
        head = node.items[0]
        if not (isinstance(head, SAtom) and head.text == "not"):
            break
        if len(node.items) != 2:
            _err(diags, node, "negation takes exactly one literal")
            return None
        positive = not positive
        node = node.items[1]
    if not isinstance(head, SAtom):
        _err(diags, node, "literal predicate must be a symbol")
        return None
    args = _parse_terms(node.items[1:], diags)
    return None if args is None else Literal(head.text, args, positive)


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


def _clauses(form: SList, start: int, where: str, diags):
    """Yield (head, clause) for each `(head ...)` item of `form` from `start` on;
    report any other item."""
    for clause in form.items[start:]:
        if isinstance(clause, SList) and clause.items and isinstance(clause.items[0], SAtom):
            yield clause.items[0].text, clause
        else:
            _err(diags, clause, f"expected a clause list inside {where}")


def _parse_predicates(form: SList, diags) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in form.items[1:]:
        if (
            isinstance(item, SList)
            and len(item.items) == 2
            and isinstance(item.items[0], SAtom)
            and isinstance(item.items[1], SAtom)
            and item.items[1].text.isdigit()
        ):
            out[item.items[0].text] = int(item.items[1].text)
        else:
            _err(diags, item, "expected (predicate arity)")
    return out


def _parse_header(form: SList, diags) -> tuple[str, tuple[Term, ...]] | None:
    items = form.items
    if len(items) != 2 or not isinstance(items[1], SList) or not items[1].items:
        _err(diags, form, "expected (header (name args...))")
        return None
    inner = items[1]
    if not isinstance(inner.items[0], SAtom):
        _err(diags, inner, "action name must be a symbol")
        return None
    args = _parse_terms(inner.items[1:], diags)
    return None if args is None else (inner.items[0].text, args)


def _parse_bindings(form: SList, diags) -> tuple[BindingConstraint, ...]:
    out = []
    for item in form.items[1:]:
        if (
            isinstance(item, SList)
            and len(item.items) == 3
            and isinstance(item.items[0], SAtom)
            and item.items[0].text in ("eq", "neq")
        ):
            left = parse_term(item.items[1], diags)
            right = parse_term(item.items[2], diags)
            if left is not None and right is not None:
                out.append(BindingConstraint(item.items[0].text, left, right))
        else:
            _err(diags, item, "expected (eq T T) or (neq T T)")
    return tuple(out)


def _parse_action(form: SList, diags) -> ActionOperator | None:
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
            pre += _parse_literals(clause.items[1:], diags)
        elif head == "eff":
            eff += _parse_literals(clause.items[1:], diags)
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


def _parse_steps(form: SList, diags) -> tuple[StepTemplate, ...]:
    out = []
    for item in form.items[1:]:
        if (
            isinstance(item, SList)
            and len(item.items) == 2
            and isinstance(item.items[0], SAtom)
            and isinstance(item.items[1], SList)
            and item.items[1].items
            and isinstance(item.items[1].items[0], SAtom)
        ):
            inner = item.items[1]
            args = _parse_terms(inner.items[1:], diags)
            if args is not None:
                out.append(StepTemplate(item.items[0].text, inner.items[0].text, args))
        else:
            _err(diags, item, "expected (label (action args...))")
    return tuple(out)


def _parse_links(form: SList, diags) -> tuple[LinkTemplate, ...]:
    out = []
    for item in form.items[1:]:
        if (
            isinstance(item, SList)
            and len(item.items) == 3
            and isinstance(item.items[0], SAtom)
            and isinstance(item.items[2], SAtom)
        ):
            cond = parse_literal(item.items[1], diags)
            if cond is not None:
                out.append(LinkTemplate(item.items[0].text, cond, item.items[2].text))
        else:
            _err(diags, item, "expected (producer-label LIT consumer-label)")
    return tuple(out)


def _parse_orderings(form: SList, diags) -> tuple[tuple[str, str], ...]:
    out = []
    for item in form.items[1:]:
        if (
            isinstance(item, SList)
            and len(item.items) == 2
            and all(isinstance(x, SAtom) for x in item.items)
        ):
            out.append((item.items[0].text, item.items[1].text))
        else:
            _err(diags, item, "expected (before-label after-label)")
    return tuple(out)


def _parse_decomposition(form: SList, diags) -> DecompositionSchema | None:
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
            constraints += _parse_literals(clause.items[1:], diags)
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


def _top_form(text: str, filename: str, keyword: str) -> tuple[SList | None, list[Diagnostic]]:
    """The text's single `(keyword NAME ...)` form, or None after a diagnostic."""
    forms, diags = read(text, filename)
    if len(forms) != 1 or not isinstance(forms[0], SList):
        _err(diags, forms[0] if forms else SAtom("", SourceSpan(filename, 1, 1)),
             f"expected a single ({keyword} ...) form")
        return None, diags
    form = forms[0]
    if (
        len(form.items) < 2
        or not isinstance(form.items[0], SAtom)
        or form.items[0].text != keyword
        or not isinstance(form.items[1], SAtom)
    ):
        _err(diags, form, f"expected ({keyword} NAME ...)")
        return None, diags
    return form, diags


def parse_domain(text: str, filename: str = "<domain>") -> tuple[Domain | None, list[Diagnostic]]:
    """Lower domain text to a Domain; (None, diagnostics) when structure is broken."""
    form, diags = _top_form(text, filename, "domain")
    if form is None:
        return None, diags
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
    if diags:
        return None, diags
    return (
        Domain(form.items[1].text, predicates, kb_predicates, tuple(operators), tuple(schemata)),
        diags,
    )


def parse_problem(text: str, filename: str = "<problem>") -> tuple[Problem | None, list[Diagnostic]]:
    form, diags = _top_form(text, filename, "problem")
    if form is None:
        return None, diags
    domain_name = ""
    lits: dict[str, list[Literal]] = {"facts": [], "init": [], "goal": []}
    for head, clause in _clauses(form, 2, "problem", diags):
        if head == "domain":
            if len(clause.items) == 2 and isinstance(clause.items[1], SAtom):
                domain_name = clause.items[1].text
            else:
                _err(diags, clause, "expected (domain NAME)")
        elif head in lits:
            ground = "" if head == "goal" else head
            lits[head] += _parse_literals(clause.items[1:], diags, ground)
        else:
            _err(diags, clause, f"unknown problem clause {head}")
    if not domain_name:
        _err(diags, form, "problem without (domain NAME)")
    if diags:
        return None, diags
    facts, init, goals = (tuple(lits[k]) for k in ("facts", "init", "goal"))
    return Problem(form.items[1].text, domain_name, facts, init, goals), diags


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
