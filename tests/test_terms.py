"""Unification, binding store, substitution."""
import pprint
import random
import time
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from discoplan.terms import (
    REPR_LIMIT,
    ArityMismatchError,
    Compound,
    Constant,
    EMPTY_BINDINGS,
    Literal,
    Variable,
    _occurs,
    add_noncodesignation,
    apply,
    compare_terms,
    is_ground,
    rename,
    unify,
    unify_terms,
)
from discoplan.model import (
    ActionOperator,
    BindingConstraint,
    DecompositionSchema,
    LinkTemplate,
    StepTemplate,
)
from discoplan.search import _separation_pairs
from _oracles import (
    collect_variables,
    consistent_assignments,
    ground,
    ground_literal,
    naive_canonical,
    naive_occurs,
    naive_resolve,
    naive_term_key,
)

A, B, L = Constant("a"), Constant("b"), Constant("l")
P = Variable("p")


def lit(pred, *args, positive=True):
    return Literal(pred, tuple(args), positive)


def test_unify_identity_adds_nothing():
    out = unify(lit("bel", P), lit("bel", P), EMPTY_BINDINGS)
    assert out is not None
    assert not out.assignments


def test_unify_distinct_constants_fails():
    assert unify(lit("bel", A), lit("bel", B), EMPTY_BINDINGS) is None


def test_unify_causal_relation_binds_both_propositions():
    # causes(?prop2, ?prop1) against causes(fairest(l,b), modeled(l,b))
    p1, p2 = Variable("prop1"), Variable("prop2")
    fairest = Compound("fairest", (L, B))
    modeled = Compound("modeled", (L, B))
    out = unify(lit("causes", p2, p1), lit("causes", fairest, modeled), EMPTY_BINDINGS)
    assert out is not None
    assert out.resolve(p2) == fairest
    assert out.resolve(p1) == modeled


def test_unify_polarity_and_predicate_must_match():
    assert unify(lit("q", A), lit("q", A, positive=False)) is None
    assert unify(lit("q", A), lit("r", A)) is None


def test_unify_arity_mismatch_is_a_fault():
    with pytest.raises(ArityMismatchError):
        unify(lit("q", A), lit("q", A, B))
    with pytest.raises(ArityMismatchError):
        unify_terms(Compound("f", (A,)), Compound("f", (A, B)))


def test_occurs_check_rejects_cyclic_binding():
    x = Variable("x")
    assert unify_terms(x, Compound("f", (x,))) is None


def test_noncodesignation_blocks_later_unification():
    x = Variable("x")
    bs = add_noncodesignation(EMPTY_BINDINGS, x, A)
    assert bs is not None
    assert unify(lit("p", x), lit("p", A), bs) is None


def test_noncodesignation_contradiction_fails():
    x = Variable("x")
    bs = unify_terms(x, A)
    assert add_noncodesignation(bs, x, A) is None


def test_noncodesignation_then_distinct_bindings_consistent():
    x, y = Variable("x"), Variable("y")
    bs = add_noncodesignation(EMPTY_BINDINGS, x, y)
    bs = unify_terms(x, A, bs)
    assert bs is not None
    bs = unify_terms(y, B, bs)
    assert bs is not None
    # Enumeration oracle over a 3-constant universe agrees it is satisfiable.
    env_count = len(consistent_assignments(bs, [x, y], [A, B, L]))
    assert env_count == 1  # x=a, y=b is the only completion


def test_apply_empty_bindings_is_identity():
    assert apply(EMPTY_BINDINGS, lit("bel", P)) == lit("bel", P)


def test_apply_substitutes_ground_class_representative():
    modeled = Compound("modeled", (L, B))
    bs = unify_terms(P, modeled)
    assert apply(bs, lit("bel", P)) == lit("bel", modeled)


def _random_literal(rng, variables, constants, depth=0):
    parts = []
    for _ in range(2):
        roll = rng.random()
        if roll < 0.4:
            parts.append(rng.choice(variables))
        elif roll < 0.8 or depth > 1:
            parts.append(rng.choice(constants))
        else:
            parts.append(Compound("f", (rng.choice(variables), rng.choice(constants))))
    return Literal("p", tuple(parts), rng.random() < 0.5)


def _random_bindings(rng, variables, constants):
    bs = EMPTY_BINDINGS
    for _ in range(rng.randrange(4)):
        v = rng.choice(variables)
        t = rng.choice(constants + variables)
        nxt = unify_terms(v, t, bs)
        if nxt is not None:
            bs = nxt
    return bs


def test_apply_is_idempotent_on_random_literals():
    rng = random.Random(7)
    variables = [Variable(n) for n in "xyz"]
    constants = [A, B, L]
    for _ in range(1000):
        bs = _random_bindings(rng, variables, constants)
        l = _random_literal(rng, variables, constants)
        once = apply(bs, l)
        assert apply(bs, once) == once


def test_rename_stamps_instantiation_id():
    out = rename((lit("bel", P),), 7)
    assert out == (lit("bel", Variable("p", 7)),)


def test_two_instantiations_share_no_variables():
    template = (lit("bel", P), lit("credible", Variable("q")))
    first = rename(template, 1)
    second = rename(template, 2)
    vars_first = set(collect_variables(first))
    vars_second = set(collect_variables(second))
    assert not (vars_first & vars_second)


def test_rename_keeps_the_names_labels_and_flags_of_an_operator_and_a_schema():
    x, y = Variable("x"), Variable("y")
    op = ActionOperator(
        "inform",
        (x, y),
        (lit("knows", x),),
        (lit("bel", Compound("f", (y, A))),),
        (BindingConstraint("neq", x, y),),
        composite=True,
    )
    x3, y3 = Variable("x", 3), Variable("y", 3)
    assert rename(op, 3) == ActionOperator(
        "inform",
        (x3, y3),
        (lit("knows", x3),),
        (lit("bel", Compound("f", (y3, A))),),
        (BindingConstraint("neq", x3, y3),),
        composite=True,
    )
    schema = DecompositionSchema(
        "inform",
        (x, y),
        (lit("causes", x, y, positive=False),),
        (StepTemplate("s1", "tell", (x,)),),
        (LinkTemplate("s1", lit("told", y), "final"),),
        (BindingConstraint("eq", x, A),),
        (("start", "s1"),),
    )
    renamed = rename(schema, 4)
    x4, y4 = Variable("x", 4), Variable("y", 4)
    assert type(renamed) is DecompositionSchema
    assert renamed == DecompositionSchema(
        "inform",
        (x4, y4),
        (lit("causes", x4, y4, positive=False),),
        (StepTemplate("s1", "tell", (x4,)),),
        (LinkTemplate("s1", lit("told", y4), "final"),),
        (BindingConstraint("eq", x4, A),),
        (("start", "s1"),),
    )


def test_rename_keeps_a_shared_subterm_one_object():
    shared = Compound("f", (P,))
    out = rename(lit("p", Compound("g", (shared, shared)), shared), 2)
    inner = out.args[0]
    assert inner.args[0] is inner.args[1] is out.args[1]
    assert inner.args[0] == Compound("f", (Variable("p", 2),))


def test_rename_returns_a_tuple_as_a_tuple_and_rejects_other_containers():
    out = rename((P, A, (P,)), 5)
    assert type(out) is tuple and type(out[2]) is tuple
    assert out == (Variable("p", 5), A, (Variable("p", 5),))
    for container in ([P], {P}, {P: A}, (lit("p", P), [P])):
        with pytest.raises(TypeError):
            rename(container, 5)


def test_rename_then_unify_with_original_gives_variable_class():
    original = lit("bel", P)
    renamed = rename(original, 3)
    out = unify(original, renamed, EMPTY_BINDINGS)
    assert out is not None
    # The class has no ground representative, just the two variables.
    assert isinstance(out.resolve(P), Variable)
    assert out.resolve(P) == out.resolve(Variable("p", 3))


flat_term = st.sampled_from([A, B, L, Variable("x"), Variable("y"), Variable("z")])
flat_literal = st.builds(
    lambda a, b, pos: Literal("p", (a, b), pos), flat_term, flat_term, st.booleans()
)


@settings(max_examples=200, deadline=None)
@given(flat_literal, flat_literal)
def test_unify_symmetric_with_equal_ground_sets(a, b):
    left = unify(a, b, EMPTY_BINDINGS)
    right = unify(b, a, EMPTY_BINDINGS)
    assert (left is None) == (right is None)
    if left is None:
        return
    constants = [A, B, L]
    variables = collect_variables([a, b])
    left_envs = consistent_assignments(left, variables, constants)
    right_envs = consistent_assignments(right, variables, constants)
    assert left_envs == right_envs


@settings(max_examples=200, deadline=None)
@given(flat_literal, flat_literal)
def test_unify_returns_most_general_extension(a, b):
    out = unify(a, b, EMPTY_BINDINGS)
    constants = [A, B, L]
    variables = collect_variables([a, b])
    if out is None:
        # No ground assignment may make them equal.
        for env in consistent_assignments(EMPTY_BINDINGS, variables, constants):
            assert ground_literal(a, env) != ground_literal(b, env)
        return
    for env in consistent_assignments(out, variables, constants):
        assert ground_literal(a, env) == ground_literal(b, env)
    # Every equalizing assignment is admitted by the output store.
    admitted = consistent_assignments(out, variables, constants)
    for env in consistent_assignments(EMPTY_BINDINGS, variables, constants):
        if ground_literal(a, env) == ground_literal(b, env):
            assert env in admitted


def test_operations_never_corrupt_the_store():
    rng = random.Random(11)
    variables = [Variable(n) for n in "xyz"]
    constants = [A, B, L]
    for _ in range(300):
        bs = EMPTY_BINDINGS
        for _ in range(6):
            if rng.random() < 0.5:
                nxt = unify_terms(rng.choice(variables), rng.choice(constants + variables), bs)
            else:
                nxt = add_noncodesignation(bs, rng.choice(variables), rng.choice(constants + variables))
            if nxt is None:
                continue
            bs = nxt
            # Never a corrupt store: no forbidden pair codesignates, and no
            # class carries two distinct ground representatives.
            for x, y in bs.distinct:
                assert bs.resolve(x) != bs.resolve(y)
            for v in variables:
                resolved = bs.resolve(v)
                assert resolved == bs.resolve(resolved)


# Bindings ?x0 = (f ?x1 ?x1), ?x1 = (f ?x2 ?x2), ... make ?x0 a DAG of DEPTH + 1
# distinct subterms whose tree expansion has 2**DEPTH leaves, so any walk that
# expands it as a tree never finishes.
DEPTH = 120


def _chain(name, bindings, leaf=None):
    xs = [Variable(name, k) for k in range(DEPTH + 1)]
    for k in range(DEPTH):
        bindings = unify_terms(xs[k], Compound("f", (xs[k + 1], xs[k + 1])), bindings)
    if leaf is not None:
        bindings = unify_terms(xs[-1], leaf, bindings)
    return xs, bindings


def _within_milliseconds(started):
    assert time.perf_counter() - started < 0.5


def test_unify_visits_each_shared_subterm_once():
    xs, bs = _chain("x", EMPTY_BINDINGS)
    ys, bs = _chain("y", bs)
    w = Variable("w")
    started = time.perf_counter()
    both = unify(lit("p", xs[0]), lit("p", ys[0]), bs)
    assert both is not None and both.codesignates(xs[-1], ys[-1])
    # The occurs check must search all of ?x0 before it meets ?w.
    assert unify(lit("p", w), lit("p", Compound("g", (xs[0], w))), bs) is None
    assert unify(lit("p", w), lit("p", xs[0]), bs) is not None
    _within_milliseconds(started)


def test_noncodesignation_and_distinct_checks_visit_each_shared_subterm_once():
    xs, bs = _chain("x", EMPTY_BINDINGS)
    ys, bs = _chain("y", bs)
    zs, bs = _chain("z", bs, leaf=A)
    started = time.perf_counter()
    both = unify_terms(xs[0], ys[0], bs)
    assert add_noncodesignation(both, xs[0], ys[0]) is None
    # Resolved, both sides are trees of 2**DEPTH leaves; ordering them for
    # the stored pair must not expand them. (Each check is a plain bool, so
    # a failure never prints a resolved term.)
    rx, rz = bs.resolve(xs[0]), bs.resolve(zs[0])
    apart = add_noncodesignation(bs, rx, rz)
    stored_in_order = apart.distinct == ((rz, rx),)
    assert stored_in_order
    deduplicated = add_noncodesignation(apart, bs.resolve(xs[0]), bs.resolve(zs[0])) is apart
    assert deduplicated
    in_order = sorted([rx, rz], key=cmp_to_key(compare_terms)) == [rz, rx]
    assert in_order
    # The forbidden pair codesignates only once the leaves meet, deep in the DAG.
    assert unify_terms(xs[-1], B, apart) is not None
    assert unify_terms(xs[-1], A, apart) is None
    _within_milliseconds(started)


def test_separation_pairs_visit_each_shared_subterm_once():
    xs, bs = _chain("x", EMPTY_BINDINGS)
    zs, bs = _chain("z", bs, leaf=A)
    started = time.perf_counter()
    pairs = _separation_pairs(bs, lit("p", xs[0]), lit("p", zs[0]))
    assert pairs == [(xs[-1], A)]
    _within_milliseconds(started)


def test_is_ground_visits_each_shared_subterm_once():
    # (f t t) nested 60 times: 61 distinct subterms, 2**60 leaves as a tree.
    def shared(leaf):
        for _ in range(60):
            leaf = Compound("f", (leaf, leaf))
        return leaf

    t, u = shared(A), shared(Variable("x"))
    started = time.perf_counter()
    assert is_ground(t) and is_ground(lit("p", t, t))
    # A walk in argument order searches all of t before it meets a variable.
    assert not is_ground(lit("p", t, Variable("x")))
    assert not is_ground(Compound("g", (t, u)))
    _within_milliseconds(started)


def test_is_ground_follows_a_chain_deeper_than_the_recursion_limit():
    t = A
    for _ in range(1200):
        t = Compound("g", (t,))
    assert is_ground(t) and is_ground(lit("p", t))
    u = Variable("x")
    for _ in range(1200):
        u = Compound("g", (u,))
    assert not is_ground(u) and not is_ground(lit("p", A, u))


def test_repr_spells_each_shared_subterm_once_and_is_bounded():
    xs, bs = _chain("x", EMPTY_BINDINGS)
    resolved = bs.resolve(xs[0])
    started = time.perf_counter()
    # pytest formats a failing comparison with repr and pprint.
    texts = [repr(resolved), repr(lit("p", resolved)), pprint.pformat([resolved])]
    _within_milliseconds(started)
    assert all(len(t) <= REPR_LIMIT + 3 for t in texts[:2])
    assert texts[0].startswith("Compound(functor='f', args=(Compound(functor='f', args=(")
    # A short term keeps the field-by-field repr, except that a compound met again is elided.
    g = Compound("g", (A,))
    assert repr(lit("p", g, g, P, positive=False)) == (
        "Literal(predicate='p', args=(Compound(functor='g', args=(Constant(name='a'),)), "
        "Compound(functor='g', ...), Variable(name='p', iid=0)), positive=False)"
    )
    assert str(lit("p", g, g)) == "(p (g a) (g a))"


# Two variables share a name, so the naming rule's iid tie-break is exercised.
VARS = [Variable(n) for n in "xyzw"] + [Variable("x", 2)]
ARITY = {"f": 2, "g": 1, "h": 0}


@st.composite
def shared_store(draw):
    """A pool of terms whose compounds reuse earlier pool members, and a store binding them."""
    pool = [A, B] + VARS
    for _ in range(draw(st.integers(0, 8))):
        functor = draw(st.sampled_from(sorted(ARITY)))
        arity = ARITY[functor]
        args = draw(st.lists(st.sampled_from(list(pool)), min_size=arity, max_size=arity))
        pool.append(Compound(functor, tuple(args)))
    bs = EMPTY_BINDINGS
    for _ in range(draw(st.integers(0, 6))):
        nxt = unify_terms(draw(st.sampled_from(VARS)), draw(st.sampled_from(pool)), bs)
        bs = bs if nxt is None else nxt
    return pool, bs


def _sign(n):
    return (n > 0) - (n < 0)


@settings(max_examples=200, deadline=None)
@given(shared_store())
def test_dag_walks_agree_with_tree_expansion(store):
    pool, bs = store
    asg = bs.assignments
    resolved = [naive_resolve(t, asg) for t in pool]
    for t, expanded in zip(pool, resolved):
        assert bs.resolve(t) == expanded
        for v in VARS:
            assert _occurs(v, t, asg) == naive_occurs(v, t, asg)
        # apply names every unbound class by its smallest variable.
        names = {v: naive_canonical(v, asg) for v in collect_variables([expanded])}
        assert apply(bs, lit("p", t)) == lit("p", ground(expanded, names))
    for v in VARS:
        root = bs.resolve(v)
        assert not isinstance(root, Variable) or root == naive_canonical(v, asg)
    for x, rx in zip(pool, resolved):
        for y, ry in zip(pool, resolved):
            assert bs.codesignates(x, y) == (rx == ry)
            kx, ky = naive_term_key(rx), naive_term_key(ry)
            assert _sign(compare_terms(bs.resolve(x), bs.resolve(y))) == (kx > ky) - (kx < ky)


FIELDS = {
    Constant: ("name",),
    Variable: ("name", "iid"),
    Compound: ("functor", "args"),
    Literal: ("predicate", "args", "positive"),
}


@settings(max_examples=200, deadline=None)
@given(shared_store(), flat_literal)
def test_terms_hash_as_their_field_tuples_and_kinds_never_compare_equal(store, flat):
    # Hashes equal to the field tuple's keep set and dict orders as they were
    # under frozen dataclasses, whose hash was that tuple's.
    pool, _ = store
    corners = [Constant("a"), Variable("a", 0), Compound("f", ()), Literal("f", ())]
    items = pool + corners + [flat, flat.negate()] + [lit("f", t) for t in pool]
    for t in items:
        assert hash(t) == hash(tuple(getattr(t, f) for f in FIELDS[type(t)]))
    for t in items:
        if isinstance(t, Variable):
            assert repr(t) == f"Variable(name={t.name!r}, iid={t.iid!r})"
        elif isinstance(t, Constant):
            assert repr(t) == f"Constant(name={t.name!r})"
        else:
            assert repr(t).startswith(f"{type(t).__name__}({FIELDS[type(t)][0]}=")
    for x in items:
        for y in items:
            if type(x) is not type(y):
                assert x != y and not x == y
