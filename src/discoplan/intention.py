"""Intended-effect classification.

An effect is intended when it sits on a causal chain that reaches the plan's
final step, where chains may hop from an end-subplan precondition to the
corresponding effect of the subplan's parent. Everything else a step asserts
is a side effect of the choices that put the step in the plan.

Hops, labels and reports are named tuples (see `model`). A chain's two kinds
of hop never compare equal: a `CausalLink` is a dataclass, which equals only
a `CausalLink`, and a `CorrespondenceHop`, a tuple, equals only a tuple.
"""
from __future__ import annotations

from typing import NamedTuple

from .plan import CausalLink, DecompositionLink, Plan, detect_threats
from .terms import Literal, apply


class CorrespondenceHop(NamedTuple):
    end: int
    parent: int
    effect_index: int


Hop = CausalLink | CorrespondenceHop


class EffectLabel(NamedTuple):
    step: int
    effect_index: int
    effect: Literal
    intended: bool
    chain: tuple[Hop, ...] | None


class IntentionReport(NamedTuple):
    labels: tuple[EffectLabel, ...]


def _require_complete(plan: Plan) -> None:
    if plan.flaws or detect_threats(plan):
        raise ValueError("intention analysis requires a complete, flawless plan")


def classify_effects(plan: Plan) -> IntentionReport:
    """Label every (step, effect) pair intended or side effect.

    Backward fixpoint from the final step. An effect is intended when a
    causal link carries it to the final step, into an end-subplan step whose
    corresponding parent effect is intended, or into a step that has some
    intended effect of its own.
    """
    _require_complete(plan)
    final_sid = plan.final.sid
    ends: dict[int, DecompositionLink] = {d.end: d for d in plan.decomposition_links}
    # Each literal object is applied once, keyed by id while the plan holds
    # it: an end step's preconditions are its parent's effects, so a link
    # condition may be an effect too.
    resolved: dict[int, Literal] = {}

    def applied_once(l: Literal) -> Literal:
        if id(l) not in resolved:
            resolved[id(l)] = apply(plan.bindings, l)
        return resolved[id(l)]

    applied = {
        (s.sid, i): applied_once(e)
        for s in plan.steps
        for i, e in enumerate(s.effects)
    }
    # The links each effect feeds, in link order: those whose condition,
    # applied, equals the effect.
    uses: dict[tuple[int, int], list[CausalLink]] = {}
    for link in plan.causal_links:
        condition = applied_once(link.condition)
        for i in range(len(plan.step(link.producer).effects)):
            if applied[(link.producer, i)] == condition:
                uses.setdefault((link.producer, i), []).append(link)

    chains: dict[tuple[int, int], tuple[Hop, ...]] = {}
    changed = True
    while changed:
        changed = False
        for (sid, idx) in applied:
            if (sid, idx) in chains:
                continue
            for link in uses.get((sid, idx), ()):
                if link.consumer == final_sid:
                    chains[(sid, idx)] = (link,)
                    changed = True
                    break
                d = ends.get(link.consumer)
                if d is not None:
                    # The end step's k-th precondition is the parent's k-th effect.
                    k = plan.step(d.end).preconditions.index(link.condition)
                    if (d.parent, k) in chains:
                        corr = CorrespondenceHop(d.end, d.parent, k)
                        chains[(sid, idx)] = (link, corr) + chains[(d.parent, k)]
                        changed = True
                        break
                consumer_step = plan.step(link.consumer)
                follow = next(
                    (
                        j
                        for j in range(len(consumer_step.effects))
                        if (link.consumer, j) in chains
                    ),
                    None,
                )
                if follow is not None:
                    chains[(sid, idx)] = (link,) + chains[(link.consumer, follow)]
                    changed = True
                    break

    labels = []
    for s in plan.steps:
        for i in range(len(s.effects)):
            chain = chains.get((s.sid, i))
            labels.append(
                EffectLabel(
                    step=s.sid,
                    effect_index=i,
                    effect=applied[(s.sid, i)],
                    intended=chain is not None,
                    chain=chain,
                )
            )
    return IntentionReport(tuple(labels))
