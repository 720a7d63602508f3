"""Finite sets, boolean relations, and the Set-side constructions.

BoolRelation is an independent, direct implementation of finite Rel (sets of
pairs).  It doubles as the oracle against which the generic matrix-completion
instance of Rel is cross-checked, and it carries the Set-level machinery:
powerset adjoint, down-set adjoint, and the exponential built from power
objects.  `relation_to_matr` and `matr_to_relation` carry a relation into a
matrix instance and back; they live here, not in `matr`, so that the kernel
never loads this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

from .errors import QlabError
from .matr import MatrInstance, MatrMorphism, quote_pairs, set_to_object

Label = Hashable


class FinRelError(QlabError):
    pass


@dataclass(frozen=True)
class FiniteSet:
    """A finite set with its labels in order; membership is a lookup in a
    frozenset of them built once, which takes no part in equality."""

    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        members = frozenset(self.labels)
        if len(members) != len(self.labels):
            raise FinRelError("duplicate labels")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "_members", members)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __contains__(self, x: Label) -> bool:
        return x in self._members


def fset(*labels: Label) -> FiniteSet:
    return FiniteSet(tuple(labels))


@dataclass(frozen=True)
class BoolRelation:
    source: FiniteSet
    target: FiniteSet
    pairs: frozenset[tuple[Label, Label]]

    def __post_init__(self) -> None:
        for x, y in self.pairs:
            if x not in self.source or y not in self.target:
                raise FinRelError(f"pair {(x, y)!r} outside {self.source} x {self.target}")
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    # -- category structure --------------------------------------------------
    @staticmethod
    def identity(x: FiniteSet) -> "BoolRelation":
        return BoolRelation(x, x, frozenset((a, a) for a in x))

    @staticmethod
    def bottom(x: FiniteSet, y: FiniteSet) -> "BoolRelation":
        return BoolRelation(x, y, frozenset())

    @staticmethod
    def top(x: FiniteSet, y: FiniteSet) -> "BoolRelation":
        return BoolRelation(x, y, frozenset(itertools.product(x.labels, y.labels)))

    def compose(self, other: "BoolRelation") -> "BoolRelation":
        """self after other: pairs (x, z) with (x, y) in other and (y, z) in self."""
        if other.target != self.source:
            raise FinRelError("composition mismatch")
        by_first: dict[Label, set[Label]] = {}
        for y, z in self.pairs:
            by_first.setdefault(y, set()).add(z)
        pairs = frozenset(
            (x, z) for x, y in other.pairs for z in by_first.get(y, ())
        )
        return BoolRelation(other.source, self.target, pairs)

    def dagger(self) -> "BoolRelation":
        return BoolRelation(self.target, self.source, frozenset((y, x) for x, y in self.pairs))

    def join(self, other: "BoolRelation") -> "BoolRelation":
        self._check_parallel(other)
        return BoolRelation(self.source, self.target, self.pairs | other.pairs)

    def meet(self, other: "BoolRelation") -> "BoolRelation":
        self._check_parallel(other)
        return BoolRelation(self.source, self.target, self.pairs & other.pairs)

    def leq(self, other: "BoolRelation") -> bool:
        self._check_parallel(other)
        return self.pairs <= other.pairs

    def _check_parallel(self, other: "BoolRelation") -> None:
        if self.source != other.source or self.target != other.target:
            raise FinRelError("relations are not parallel")

    # -- map structure --------------------------------------------------------
    def is_function(self) -> bool:
        outs = {x: 0 for x in self.source}
        for x, _ in self.pairs:
            outs[x] += 1
        return all(n == 1 for n in outs.values())

    def apply(self, x: Label) -> Label:
        ys = [y for (a, y) in self.pairs if a == x]
        if len(ys) != 1:
            raise FinRelError(f"not a function at {x!r}")
        return ys[0]

    def image_set(self, x: Label) -> frozenset[Label]:
        return frozenset(y for (a, y) in self.pairs if a == x)

    # -- product structure ------------------------------------------------------
    def times(self, other: "BoolRelation") -> "BoolRelation":
        src = product_set(self.source, other.source)
        tgt = product_set(self.target, other.target)
        pairs = frozenset(
            ((x1, x2), (y1, y2))
            for (x1, y1) in self.pairs
            for (x2, y2) in other.pairs
        )
        return BoolRelation(src, tgt, pairs)


def product_set(a: FiniteSet, b: FiniteSet) -> FiniteSet:
    return FiniteSet(tuple((x, y) for x in a for y in b))


def function_graph(src: FiniteSet, tgt: FiniteSet, f: Callable[[Label], Label] | Mapping[Label, Label]) -> BoolRelation:
    get = f.__getitem__ if isinstance(f, Mapping) else f
    return BoolRelation(src, tgt, frozenset((x, get(x)) for x in src))


def all_relations(a: FiniteSet, b: FiniteSet) -> Iterator[BoolRelation]:
    cells = list(itertools.product(a.labels, b.labels))
    for bits in itertools.product((False, True), repeat=len(cells)):
        yield BoolRelation(a, b, frozenset(c for c, keep in zip(cells, bits) if keep))


def all_functions(a: FiniteSet, b: FiniteSet) -> Iterator[BoolRelation]:
    if len(a) == 0:
        yield BoolRelation.bottom(a, b)
        return
    for images in itertools.product(b.labels, repeat=len(a)):
        yield BoolRelation(a, b, frozenset(zip(a.labels, images)))


def is_zero_mono(r: BoolRelation) -> bool:
    """r is zero-monic iff every source element has an outgoing pair."""
    covered = {x for x, _ in r.pairs}
    return covered == set(r.source.labels)


def is_per(r: BoolRelation) -> bool:
    if r.source != r.target:
        return False
    return r.dagger() == r and r.compose(r).leq(r)


def is_equivalence(r: BoolRelation) -> bool:
    return is_per(r) and BoolRelation.identity(r.source).leq(r)


def is_preorder(r: BoolRelation) -> bool:
    if r.source != r.target:
        return False
    return BoolRelation.identity(r.source).leq(r) and r.compose(r).leq(r)


# -- quoting into the matrix instances -----------------------------------------

def relation_to_matr(inst: MatrInstance, r: BoolRelation) -> MatrMorphism:
    """A boolean relation as a matrix of identity cells."""
    return quote_pairs(inst, set_to_object(inst, r.source), set_to_object(inst, r.target),
                       r.pairs)


def matr_to_relation(f: MatrMorphism) -> BoolRelation:
    """The boolean relation of non-bottom entries of a matrix of scalars.

    Inverse to quoting on its image; for instances with exactly two scalars
    it inverts quoting on every hom between quoted sets.
    """
    src = FiniteSet(f.source.labels)
    tgt = FiniteSet(f.target.labels)
    return BoolRelation(src, tgt, frozenset(key for key, _ in f.blocks))


# -- powerset adjoint -----------------------------------------------------------

def _subset_label(s: Iterable[Label]) -> tuple[Label, ...]:
    return tuple(sorted(s, key=repr))


class PowersetData(NamedTuple):
    base: FiniteSet
    power: FiniteSet          # labels are sorted tuples of base labels
    membership: BoolRelation  # P(X) -> X
    singleton: BoolRelation   # the graph of {.} : X -> P(X)


def powerset_adjoint(x: FiniteSet) -> PowersetData:
    subsets = [
        _subset_label(combo)
        for r in range(len(x) + 1)
        for combo in itertools.combinations(x.labels, r)
    ]
    power = FiniteSet(tuple(subsets))
    membership = BoolRelation(
        power, x, frozenset((s, a) for s in subsets for a in s)
    )
    singleton = function_graph(x, power, lambda a: _subset_label([a]))
    return PowersetData(x, power, membership, singleton)


def power_transpose(data: PowersetData, v: BoolRelation) -> BoolRelation:
    """The unique function f with membership o f = v, for v : A -> X."""
    if v.target != data.base:
        raise FinRelError("relation target is not the powerset base")
    return function_graph(
        v.source, data.power, lambda a: _subset_label(v.image_set(a))
    )


def power_on_morphisms(data_x: PowersetData, data_y: PowersetData, g: BoolRelation) -> BoolRelation:
    """P(g) : P(X) -> P(Y) for a relation g : X -> Y, via the universal property."""
    return power_transpose(data_y, g.compose(data_x.membership))


# -- down-set adjoint --------------------------------------------------------------

class DownsetData(NamedTuple):
    base: FiniteSet
    order: BoolRelation       # a preorder on base
    downsets: FiniteSet       # labels are sorted tuples, ordered by inclusion
    inclusion_order: BoolRelation


def down_closure(order: BoolRelation, s: Iterable[Label]) -> tuple[Label, ...]:
    keep = {x for x in order.source if any((x, y) in order.pairs for y in s)}
    return _subset_label(keep)


def downset_adjoint(x: FiniteSet, order: BoolRelation) -> DownsetData:
    if not is_preorder(order) or order.source != x:
        raise FinRelError("order is not a preorder on the given set")
    downs = sorted(
        {down_closure(order, combo)
         for r in range(len(x) + 1)
         for combo in itertools.combinations(x.labels, r)},
        key=repr,
    )
    dset = FiniteSet(tuple(downs))
    incl = BoolRelation(
        dset, dset, frozenset((s, t) for s in downs for t in downs if set(s) <= set(t))
    )
    return DownsetData(x, order, dset, incl)


def monotone_relation_to_map(data: DownsetData, v: BoolRelation) -> BoolRelation:
    """A monotone relation v : (A, <=) -> (X, <=) becomes a map A -> D(X)."""
    return function_graph(
        v.source, data.downsets, lambda a: _subset_label(v.image_set(a))
    )


def map_to_monotone_relation(data: DownsetData, f: BoolRelation) -> BoolRelation:
    """Inverse direction: a map f : A -> D(X) becomes a relation A -> X."""
    pairs = frozenset((a, x) for a in f.source for x in f.apply(a))
    return BoolRelation(f.source, data.base, pairs)


# -- exponential via power objects ----------------------------------------------------

class ExponentialData(NamedTuple):
    base: FiniteSet            # X
    codomain: FiniteSet        # Y
    exponential: FiniteSet     # labels are function graphs, sorted pair tuples
    evaluation: BoolRelation   # graph of e : Y^X x X -> Y


def exponential_via_power(x: FiniteSet, y: FiniteSet) -> ExponentialData:
    """Build Y^X inside P(X x Y) as the single-valued total relations.

    The construction follows the power-object recipe: elements R of P(X x Y)
    are sent to the subset u(R) of X on which their fibre is a singleton, and
    Y^X is the pullback of u against the constant whole-X map, i.e. the set of
    function graphs.
    """
    xy = product_set(x, y)
    power_data = powerset_adjoint(xy)

    def fibre(subset: tuple[Label, ...], a: Label) -> list[Label]:
        return [b for (p, b) in subset if p == a]

    def u(subset: tuple[Label, ...]) -> tuple[Label, ...]:
        return _subset_label(a for a in x if len(fibre(subset, a)) == 1)

    whole = _subset_label(x.labels)
    graphs = [s for s in power_data.power.labels if u(s) == whole]
    expo = FiniteSet(tuple(graphs))

    ev_src = product_set(expo, x)
    ev_pairs = frozenset(
        ((g, a), fibre(g, a)[0]) for g in graphs for a in x
    )
    evaluation = BoolRelation(ev_src, y, ev_pairs)
    return ExponentialData(x, y, expo, evaluation)


def curry(data: ExponentialData, f: BoolRelation) -> BoolRelation:
    """For a function f : Z x X -> Y, the unique g : Z -> Y^X with e o (g x id) = f."""
    if not f.is_function():
        raise FinRelError("curry expects a function")
    z = FiniteSet(tuple({p[0] for p in f.source.labels}))
    return function_graph(
        z, data.exponential,
        lambda c: _subset_label((a, f.apply((c, a))) for a in data.base),
    )
