"""Plan serializers: structured json, graphviz dot, and a readable outline.

Output is byte-stable for a fixed plan: every collection is emitted in a
sorted or declaration order, never in hash order. Literals are written in
the same symbolic syntax the corpus uses, with plan bindings applied, so an
emitted plan file can be reloaded and audited on its own.

Cost: each literal object of a plan is resolved and printed once per
rendering (see `_texts`), though a link's condition is written again as its
consumer's precondition and in every chain hop through it. JSON documents
are written by `to_json`, which gives `json.dumps(value, indent=2)` byte for
byte without the pure-Python encoder that `indent` selects.
"""
from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .intention import IntentionReport
from .language import parse_literal, parse_term
from .oracle import PlanView
from .plan import CausalLink, DecompositionLink, Plan, Step
from .sexp import Diagnostic, read_plain
from .terms import BindingSet, Compound, Literal, Term, apply

FORMATS = ("json", "dot", "text")

PLAN_FORMAT_TAG = "plan.json/1"


def functional(t: Term) -> str:
    """name(arg, arg) style used for node labels."""
    if isinstance(t, Compound):
        return "{}({})".format(t.functor, ", ".join(functional(a) for a in t.args))
    return str(t)


def step_label(step, bindings: BindingSet) -> str:
    if not step.params:
        return step.name
    params = (bindings.resolve(a) for a in step.params)
    return "{}({})".format(step.name, ", ".join(functional(a) for a in params))


def emit(plan: Plan, report: IntentionReport | None, fmt: str) -> str:
    if fmt == "json":
        return to_json(plan_to_dict(plan, report)) + "\n"
    if fmt == "dot":
        return _emit_dot(plan)
    if fmt == "text":
        return _emit_text(plan, report)
    raise ValueError(f"unknown format {fmt}")


def to_json(value) -> str:
    """`json.dumps(value, indent=2)`, for values of exact type str, int, bool,
    None, list, tuple, and dict with str keys; any other value raises TypeError.

    One join over the document's tokens, each string through the C escaper
    that `json.dumps` itself uses.
    """
    parts: list[str] = []
    _write_json(value, "\n", parts.append)
    return "".join(parts)


def _write_json(value, newline: str, add) -> None:
    kind = type(value)
    if kind is str:
        add(encode_basestring_ascii(value))
    elif kind is int:
        add(int.__repr__(value))
    elif kind is list or kind is tuple:
        if not value:
            add("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            add(sep)
            sep = "," + inner
            _write_json(item, inner, add)
        add(newline + "]")
    elif kind is dict:
        if not value:
            add("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            # The escaper raises TypeError on a key that is not a str.
            add(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _write_json(item, inner, add)
        add(newline + "}")
    elif value is None or kind is bool:
        add("null" if value is None else "true" if value else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _texts(plan: Plan):
    """`text(l)` is `str(apply(plan.bindings, l))`, made once per literal object.

    The memo is keyed by `id(l)`: it lives for one rendering, and the plan
    holds every literal it is asked about for that long, so no id is reused.
    """
    memo: dict[int, str] = {}
    bindings = plan.bindings

    def text(l: Literal) -> str:
        s = memo.get(id(l))
        if s is None:
            s = memo[id(l)] = str(apply(bindings, l))
        return s

    return text


def _in_order(plan: Plan, text):
    """Steps, causal links and decomposition links in the order every format writes them.

    Links with the same producer and consumer are ordered by their written condition.
    """
    return (
        sorted(plan.steps, key=lambda s: s.sid),
        sorted(plan.causal_links, key=lambda l: (l.producer, l.consumer, text(l.condition))),
        sorted(plan.decomposition_links, key=lambda d: d.parent),
    )


def _labels_in_order(report: IntentionReport):
    return sorted(report.labels, key=lambda l: (l.step, l.effect_index))


def _link_dict(text, link: CausalLink) -> dict:
    """A causal link as a plan file writes it, in `causal_links` and in chains alike."""
    return {"producer": link.producer, "condition": text(link.condition),
            "consumer": link.consumer}


def _hop_dict(text, hop) -> dict:
    if isinstance(hop, CausalLink):
        return {"kind": "causal", **_link_dict(text, hop)}
    return {"kind": "correspondence", "end": hop.end, "parent": hop.parent,
            "effect_index": hop.effect_index}


def _label_dicts(plan: Plan, text, report: IntentionReport) -> list[dict]:
    return [
        {
            "step": l.step,
            "effect_index": l.effect_index,
            "effect": text(plan.step(l.step).effects[l.effect_index]),
            "intended": l.intended,
            "chain": [_hop_dict(text, h) for h in l.chain] if l.chain else [],
        }
        for l in _labels_in_order(report)
    ]


def plan_to_dict(plan: Plan, report: IntentionReport | None = None) -> dict:
    text = _texts(plan)
    steps, links, decos = _in_order(plan, text)
    out = {
        "format": PLAN_FORMAT_TAG,
        "domain": plan.domain_name,
        "problem": plan.problem_name,
        "steps": [
            {
                "id": s.sid,
                "name": s.name,
                "kind": s.kind,
                "args": [str(plan.bindings.resolve(a)) for a in s.params],
                "depth": s.depth,
                "preconditions": [text(p) for p in s.preconditions],
                "effects": [text(e) for e in s.effects],
            }
            for s in steps
        ],
        "orderings": sorted([a, b] for a, b in plan.orderings),
        "causal_links": [_link_dict(text, l) for l in links],
        "decomposition_links": [
            {
                "parent": d.parent,
                "schema": plan.step(d.parent).name,
                "begin": d.begin,
                "end": d.end,
                "members": sorted(d.members),
                "constraints": [text(c) for c in d.constraints],
                "correspondence": [[i, i] for i in range(len(plan.step(d.parent).effects))],
            }
            for d in decos
        ],
        "bindings": {
            "distinct": sorted(
                [str(plan.bindings.resolve(x)), str(plan.bindings.resolve(y))]
                for x, y in plan.bindings.distinct
            ),
        },
    }
    if report is not None:
        out["intention"] = _label_dicts(plan, text, report)
    return out


def _quote(s: str) -> str:
    return '"{}"'.format(s.replace('"', r"\""))


def _emit_dot(plan: Plan) -> str:
    text = _texts(plan)
    steps, links, decos = _in_order(plan, text)
    lines = ["digraph plan {", "  rankdir=LR;"]
    for s in steps:
        lines.append(f"  s{s.sid} [label={_quote(step_label(s, plan.bindings))}];")
    for l in links:
        lines.append(
            f"  s{l.producer} -> s{l.consumer} [label={_quote(text(l.condition))}];"
        )
    for d in decos:
        lines.append(f"  s{d.parent} -> s{d.begin} [style=dashed];")
        lines.append(f"  s{d.parent} -> s{d.end} [style=dashed];")
        for m in sorted(d.members):
            lines.append(f"  s{d.parent} -> s{m} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_text(plan: Plan, report: IntentionReport | None) -> str:
    text = _texts(plan)
    steps, links, decos = _in_order(plan, text)
    lines = [f"plan for problem {plan.problem_name} (domain {plan.domain_name})"]
    lines.append("steps:")
    for s in steps:
        lines.append(f"  [{s.sid}] {step_label(s, plan.bindings)} ({s.kind})")
        for p in s.preconditions:
            lines.append(f"        needs {text(p)}")
        for e in s.effects:
            lines.append(f"        gives {text(e)}")
    lines.append("orderings:")
    for a, b in sorted(plan.orderings):
        lines.append(f"  {a} < {b}")
    lines.append("causal links:")
    for l in links:
        lines.append(f"  [{l.producer}] --{text(l.condition)}--> [{l.consumer}]")
    lines.append("decomposition links:")
    for d in decos:
        members = " ".join(str(m) for m in sorted(d.members))
        name = plan.step(d.parent).name
        lines.append(f"  {name} [{d.parent}]: begin [{d.begin}], end [{d.end}], members [{members}]")
        for c in d.constraints:
            lines.append(f"    constraint {text(c)}")
    if report is not None:
        lines.append("effects:")
        for l in _labels_in_order(report):
            tag = "intended" if l.intended else "side effect"
            effect = text(plan.step(l.step).effects[l.effect_index])
            lines.append(f"  [{l.step}] {effect}: {tag}")
    return "\n".join(lines) + "\n"


def report_to_dict(plan: Plan, report: IntentionReport) -> dict:
    """The intention document; `informational` repeats each decomposition link's
    constraints, in plan order, as the plan file writes them."""
    text = _texts(plan)
    return {
        "format": "intention.json/1",
        "domain": plan.domain_name,
        "problem": plan.problem_name,
        "labels": _label_dicts(plan, text, report),
        "informational": [
            {
                "parent": d.parent,
                "schema": plan.step(d.parent).name,
                "constraints": [text(c) for c in d.constraints],
            }
            for d in plan.decomposition_links
        ],
    }


class PlanFileError(Exception):
    """Emitted plan file is malformed."""


def _reload(text, parse, memo: dict):
    """Read one emitted literal or term back with `parse_literal` or `parse_term`.

    `memo` maps (text, parse) to the value already read for it: a plan file
    repeats texts, since a link's condition is its consumer's precondition and
    a boundary step copies its parent's literals.
    """
    if type(text) is str:
        value = memo.get((text, parse))
        if value is not None:
            return value
        # No span is ever printed for a plan-file text, so it is read plain.
        forms = read_plain(text)
        diags: list[Diagnostic] = []
        value = parse(forms[0], diags) if forms is not None and len(forms) == 1 else None
        if value is not None and not diags:
            memo[text, parse] = value
            return value
    raise PlanFileError(f"bad {parse.__name__.removeprefix('parse_')} text {text!r}")


def _sid(value) -> int:
    if type(value) is not int:
        raise PlanFileError(f"step id {value!r} is not an integer")
    return value


def _array(obj: dict, key: str, pairs: bool = False) -> list:
    """`obj[key]`, which must be a JSON array, of arrays if `pairs`; never a
    string or an object, which would be iterated as characters or keys."""
    value = obj[key]
    if type(value) is not list:
        raise TypeError(f"{key} {value!r} is not an array")
    for item in value if pairs else ():
        if type(item) is not list:
            raise TypeError(f"{key} item {item!r} is not an array")
    return value


def _decomposition_link(d: dict, lit, names: dict) -> DecompositionLink:
    """A `decomposition_links` entry, its fields read in the order the file writes them.

    `schema` is not kept: it must be a string equal to the parent step's name,
    which `names` maps each step id to. A parent that is no step is left to
    the audit's structure check.
    """
    parent, begin, end = _sid(d["parent"]), _sid(d["begin"]), _sid(d["end"])
    members = tuple(_sid(m) for m in _array(d, "members"))
    schema = d["schema"]
    if type(schema) is not str or (parent in names and schema != names[parent]):
        raise PlanFileError(f"schema {schema!r} is not the name of parent step {parent}")
    constraints = tuple(lit(c) for c in _array(d, "constraints"))
    return DecompositionLink(parent, begin, end, members, constraints)


def plan_view_from_dict(data: dict) -> PlanView:
    """Rebuild an auditable plan view, of the planner's own records, from an emitted
    json document.

    Each distinct text is read once per call; nothing is kept between calls.
    """
    memo: dict = {}

    def lit(text) -> Literal:
        return _reload(text, parse_literal, memo)

    def term(text) -> Term:
        return _reload(text, parse_term, memo)

    try:
        steps = tuple(
            Step(
                sid=_sid(s["id"]),
                name=s["name"],
                params=tuple(term(a) for a in _array(s, "args")),
                preconditions=tuple(lit(p) for p in _array(s, "preconditions")),
                effects=tuple(lit(e) for e in _array(s, "effects")),
                kind=s["kind"],
            )
            for s in _array(data, "steps")
        )
        orderings = frozenset((_sid(a), _sid(b)) for a, b in _array(data, "orderings", pairs=True))
        links = tuple(
            CausalLink(_sid(l["producer"]), lit(l["condition"]), _sid(l["consumer"]))
            for l in _array(data, "causal_links")
        )
        names = {s.sid: s.name for s in steps}
        decos = _array(data, "decomposition_links")
        decos = tuple(_decomposition_link(d, lit, names) for d in decos)
        bindings = data.get("bindings", {})
        if type(bindings) is not dict:
            raise TypeError(f"bindings {bindings!r} is not an object")
        pairs = _array(bindings, "distinct", pairs=True) if "distinct" in bindings else ()
        distinct = tuple((term(a), term(b)) for a, b in pairs)
    except (KeyError, TypeError, ValueError) as exc:
        raise PlanFileError(f"missing or malformed plan field: {exc}") from exc
    return PlanView(steps, orderings, links, decos, BindingSet({}, distinct))
