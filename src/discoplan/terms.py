"""First-order terms, literals, and the binding constraint store.

Variables carry an instantiation id so that two copies of one operator
never share variables. A BindingSet is a persistent value: every
extending operation returns a new store and leaves its input untouched,
so backtracking search never has to undo anything.

Cost model. Terms, literals and binding sets are named tuples, so field
access, hashing and equality run in C, and each hash equals the hash of the
tuple of its fields. Terms or literals of two kinds never compare equal: their field
tuples differ in length or in the type of the second field. Terms are
DAGs: a variable bound to a compound that mentions further bound
variables can reach one subterm along many paths, so a
resolved term may be exponentially larger as a tree than the store that
describes it. Every deep operation here (renaming apart, the occurs check,
the groundness test, resolve, the codesignation test, decomposition during
unification, term ordering and apply) therefore visits each distinct subterm,
or each distinct pair of subterms, once per call: a set or memo keyed by id()
stands in for the tree walk. Each keyed subterm is reachable from the
call's arguments or from the assignments, which a call only ever extends,
so its id() cannot be reused while the table lives; tables last for one
call.

Naming. Unification binds the later of two unbound variables, in (name,
iid) order, to the earlier, so the root of every unbound codesignation
class is its smallest variable. Resolving a term therefore writes each
unbound class by that one name, wherever the term comes from.
"""
from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple


class ArityMismatchError(Exception):
    """One symbol used with two different arities.

    This is a domain-validation bug, not a unification dead end, so it is
    raised instead of returning failure.
    """


class Constant(NamedTuple):
    name: str

    def __str__(self) -> str:
        return self.name


class Variable(NamedTuple):
    name: str
    iid: int = 0

    def __str__(self) -> str:
        if self.iid == 0:
            return f"?{self.name}"
        return f"?{self.name}#{self.iid}"


class Compound(NamedTuple):
    functor: str
    args: tuple["Term", ...]

    def __str__(self) -> str:
        if not self.args:
            return f"({self.functor})"
        return "({} {})".format(self.functor, " ".join(str(a) for a in self.args))

    def __repr__(self) -> str:
        return _bounded_repr(self)


Term = Constant | Variable | Compound


class Literal(NamedTuple):
    """A signed atom: predicate applied to terms, positive or negated."""

    predicate: str
    args: tuple[Term, ...] = ()
    positive: bool = True

    def negate(self) -> "Literal":
        return Literal(self.predicate, self.args, not self.positive)

    def atom(self) -> "Literal":
        return self if self.positive else Literal(self.predicate, self.args, True)

    def __str__(self) -> str:
        if self.args:
            body = "({} {})".format(self.predicate, " ".join(str(a) for a in self.args))
        else:
            body = f"({self.predicate})"
        return body if self.positive else f"(not {body})"

    def __repr__(self) -> str:
        return _bounded_repr(self)


# Characters a term's or literal's repr may print before it is cut off.
REPR_LIMIT = 2000


def _bounded_repr(obj: Compound | Literal) -> str:
    """The named-tuple repr of `obj`, cut off after REPR_LIMIT characters.

    Only the first occurrence of a compound is spelled out; a shared
    subterm met again prints as `Compound(functor='f', ...)`. So the walk
    visits each distinct subterm at most once, however large the tree.
    (`__str__` expands terms in full, since emitted plans are made of it.)
    """
    parts: list[str] = []
    size = 0
    seen = set()
    stack: list = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            text = item
        elif isinstance(item, Compound) and id(item) in seen:
            text = f"Compound(functor={item.functor!r}, ...)"
        elif isinstance(item, (Compound, Literal)):
            seen.add(id(item))
            if isinstance(item, Compound):
                text = f"Compound(functor={item.functor!r}, args=("
                tail = ")"
            else:
                text = f"Literal(predicate={item.predicate!r}, args=("
                tail = f", positive={item.positive})"
            stack.append((",)" if len(item.args) == 1 else ")") + tail)
            for k in range(len(item.args) - 1, -1, -1):
                stack.append(item.args[k])
                if k:
                    stack.append(", ")
        else:
            text = repr(item)
        parts.append(text)
        size += len(text)
        if size > REPR_LIMIT:
            return "".join(parts)[:REPR_LIMIT] + "..."
    return "".join(parts)


def variables_in(obj) -> Iterator[Variable]:
    """Each variable occurrence in a term or literal, left to right, visiting
    each distinct subterm once: a subterm shared along many paths yields its
    variables once."""
    seen = set()
    todo = [obj]
    while todo:
        t = todo.pop()
        if isinstance(t, Variable):
            yield t
        elif isinstance(t, (Compound, Literal)) and id(t) not in seen:
            seen.add(id(t))
            todo.extend(reversed(t.args))


def is_ground(obj) -> bool:
    """Whether a term or literal holds no variable; visits each distinct subterm once."""
    seen = set()
    todo = [obj]
    for t in todo:
        kind = type(t)
        if kind is Variable:
            return False
        if (kind is Compound or kind is Literal) and id(t) not in seen:
            seen.add(id(t))
            todo += t.args
    return True


# The types `rename` keeps as they are: constants, names, labels and flags.
_KEPT = frozenset({Constant, str, int, bool})


def rename(x, iid: int):
    """`x` with every variable stamped with instantiation id `iid`.

    `x` is a term, a literal, or a tuple or named tuple of them nested to
    any depth, such as an `ActionOperator`, a `DecompositionSchema` or one
    of their parts. Constants, strings and integers are kept; each tuple
    comes back as a tuple of its own type; any other value, a list, set or
    dict among them, raises TypeError. Each distinct compound is rebuilt
    once, without recursion, so a compound shared within `x` stays one
    object.
    """
    return _rename(x, iid, {})


def _rename(x, iid: int, memo: dict):
    kind = type(x)
    if kind is Variable:
        return Variable(x.name, iid)
    if kind in _KEPT:
        return x
    if kind is not Compound:
        if not isinstance(x, tuple):
            raise TypeError(f"cannot rename a {kind.__name__}")
        return tuple.__new__(kind, [_rename(a, iid, memo) for a in x])
    # Compounds can nest past the recursion limit, so each is rebuilt from an
    # explicit stack, compound arguments first; its other arguments are
    # leaves, renamed one call deep.
    todo = [x]
    while todo:
        t = todo.pop()
        pending = [a for a in t.args if type(a) is Compound and id(a) not in memo]
        if pending:
            todo += [t, *pending]
        elif id(t) not in memo:
            args = [memo[id(a)] if type(a) is Compound else _rename(a, iid, memo) for a in t.args]
            memo[id(t)] = Compound(t.functor, tuple(args))
    return memo[id(x)]


def _walk(t: Term, asg: Mapping) -> Term:
    while isinstance(t, Variable):
        nxt = asg.get(t)
        if nxt is None:
            return t
        t = nxt
    return t


def _resolve(t: Term, asg: Mapping, memo: dict) -> Term:
    """`t` with every bound variable substituted; each shared subterm is resolved once."""
    t = _walk(t, asg)
    if not isinstance(t, Compound):
        return t
    out = memo.get(id(t))
    if out is None:
        out = Compound(t.functor, tuple(_resolve(a, asg, memo) for a in t.args))
        memo[id(t)] = out
    return out


def _occurs(v: Variable, t: Term, asg: Mapping) -> bool:
    seen = set()
    stack = [t]
    while stack:
        t = _walk(stack.pop(), asg)
        if isinstance(t, Compound):
            if id(t) not in seen:
                seen.add(id(t))
                stack.extend(t.args)
        elif t == v:
            return True
    return False


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


_RANK = {Constant: 0, Variable: 1, Compound: 2}


def _compare(x: Term, y: Term, asg: Mapping, memo: dict) -> int:
    """compare_terms of x and y resolved under `asg`; zero iff they codesignate."""
    x = _walk(x, asg)
    y = _walk(y, asg)
    if x is y:
        return 0
    rank = _RANK[type(x)]
    if rank != _RANK[type(y)]:
        return rank - _RANK[type(y)]
    if rank == 0:
        return _cmp(x.name, y.name)
    if rank == 1:
        return _cmp((x.name, x.iid), (y.name, y.iid))
    c = memo.get((id(x), id(y)))
    if c is None:
        c = _cmp(x.functor, y.functor)
        if not c:
            for a, b in zip(x.args, y.args):
                c = _compare(a, b, asg, memo)
                if c:
                    break
            else:
                c = _cmp(len(x.args), len(y.args))
        memo[(id(x), id(y))] = c
    return c


def compare_terms(x: Term, y: Term) -> int:
    """Total order over terms; non-codesignation pairs are stored in this order.

    Constants come before variables, variables before compounds; constants
    order by name, variables by name then instantiation id, compounds by
    functor, then their arguments lexicographically, then arity. Negative,
    zero or positive as x is below, equal to or above y.
    """
    return _compare(x, y, {}, {})


class BindingSet(NamedTuple):
    """Codesignation classes plus non-codesignation pairs.

    `assignments` maps a variable to another term in its class (union-find
    style chains ending at the class representative, which is the smallest
    variable of an unbound class). `distinct` holds pairs of terms
    forbidden from ever denoting the same object. Instances are never
    mutated; extension happens through the module-level operations. Every
    store is given its own `assignments`, so none is shared by default.
    """

    assignments: Mapping[Variable, Term]
    distinct: tuple[tuple[Term, Term], ...] = ()

    def walk(self, t: Term) -> Term:
        return _walk(t, self.assignments)

    def resolve(self, t: Term) -> Term:
        """Deep walk: substitute through compounds."""
        return _resolve(t, self.assignments, {})

    def codesignates(self, x: Term, y: Term) -> bool:
        """True iff x and y resolve to the same term."""
        return _compare(x, y, self.assignments, {}) == 0


EMPTY_BINDINGS = BindingSet({})


def _unify_pairs(pairs: list[tuple[Term, Term]], asg: dict) -> bool:
    seen = set()
    stack = list(pairs)
    while stack:
        a, b = stack.pop()
        a = _walk(a, asg)
        b = _walk(b, asg)
        if a is b or (not isinstance(a, Compound) and a == b):
            continue
        if isinstance(a, Variable) and isinstance(b, Variable):
            # Two distinct unbound variables, so no occurs check can fire.
            # The later one is bound, and a class's root stays its smallest.
            if (b.name, b.iid) < (a.name, a.iid):
                a, b = b, a
            asg[b] = a
        elif isinstance(a, Variable):
            if _occurs(a, b, asg):
                return False
            asg[a] = b
        elif isinstance(b, Variable):
            if _occurs(b, a, asg):
                return False
            asg[b] = a
        elif isinstance(a, Compound) and isinstance(b, Compound):
            if a.functor != b.functor:
                return False
            if len(a.args) != len(b.args):
                raise ArityMismatchError(
                    f"functor {a.functor} used with arities {len(a.args)} and {len(b.args)}"
                )
            # A pair met again was decomposed already, and all its argument
            # pairs are unified or still on the stack.
            if (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                stack.extend(zip(a.args, b.args))
        else:
            return False
    return True


def _finish(bindings: BindingSet, asg: dict) -> BindingSet | None:
    # Eager consistency: reject if any forbidden pair now codesignates.
    for x, y in bindings.distinct:
        if _compare(x, y, asg, {}) == 0:
            return None
    return BindingSet(asg, bindings.distinct)


def unify_terms(x: Term, y: Term, bindings: BindingSet = EMPTY_BINDINGS) -> BindingSet | None:
    asg = dict(bindings.assignments)
    if not _unify_pairs([(x, y)], asg):
        return None
    return _finish(bindings, asg)


def unify(a: Literal, b: Literal, bindings: BindingSet = EMPTY_BINDINGS) -> BindingSet | None:
    """Minimal extension of `bindings` making `a` and `b` codesignate, or None.

    None is a search dead end, not an error. A same-predicate arity clash
    raises ArityMismatchError since validated domains cannot produce one.
    """
    if a.positive != b.positive or a.predicate != b.predicate:
        return None
    if len(a.args) != len(b.args):
        raise ArityMismatchError(
            f"predicate {a.predicate} used with arities {len(a.args)} and {len(b.args)}"
        )
    asg = dict(bindings.assignments)
    if not _unify_pairs(list(zip(a.args, b.args)), asg):
        return None
    return _finish(bindings, asg)


def add_noncodesignation(bindings: BindingSet, x: Term, y: Term) -> BindingSet | None:
    """Forbid x and y from denoting the same object; None if they already do."""
    if bindings.codesignates(x, y):
        return None
    first, second = (x, y) if compare_terms(x, y) < 0 else (y, x)
    for a, b in bindings.distinct:
        if compare_terms(a, first) == 0 and compare_terms(b, second) == 0:
            return bindings
    return BindingSet(dict(bindings.assignments), bindings.distinct + ((first, second),))


def extensions(
    items, options, bindings: BindingSet, chosen: tuple = ()
) -> Iterator[tuple[BindingSet, tuple]]:
    """Every consistent joint choice over the sequence `items`, depth first.

    `options(item, bindings, chosen)` yields `(bindings, choice)` for each
    way to choose for `item`, given the bindings and the `chosen` tuple of
    the items before it. Yields `(bindings, choices)` per joint choice, with
    earlier items varying slowest, as in `itertools.product`; a dead end
    prunes every completion of its prefix. A call with `chosen` continues
    from the choices already made for the first `len(chosen)` items.
    """
    if len(chosen) == len(items):
        yield bindings, chosen
        return
    for b, choice in options(items[len(chosen)], bindings, chosen):
        yield from extensions(items, options, b, chosen + (choice,))


def apply(bindings: BindingSet, literal: Literal) -> Literal:
    """`literal` resolved, each unbound class named by its root; idempotent.

    An empty store resolves nothing, so `literal` itself is returned; a plan
    view reloaded from a file always has an empty store.
    """
    if not bindings.assignments:
        return literal
    memo: dict = {}
    args = tuple(_resolve(a, bindings.assignments, memo) for a in literal.args)
    return Literal(literal.predicate, args, literal.positive)
