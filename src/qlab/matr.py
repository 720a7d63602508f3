"""The matrix (biproduct) completion of a one-object or many-object base.

Objects are finite indexed families of base objects; morphisms are matrices
of base morphisms composed by sup-of-composites.  The dagger, order, monoidal,
compact and biproduct structure all lift blockwise from the base.

Two bases give the three instances:
  * QuantaleBase over the boolean quantale -> the category of relations,
  * QuantaleBase over any finite quantale -> quantale-valued relations,
  * FdOSBase (operator subspaces between finite dimensions) -> quantum relations.
Both answer the same sixteen calls, the ones in which they differ:
compose_blocks, identity, dagger, sup, leq, product_leq, meet, top,
is_bottom, size, tensor_obj, tensor_mor, unit_obj, symm_cell, eta_cell and
enum_hom.
`compose_blocks(g, f)` returns the non-bottom blocks of a whole composite
in position order: the quantale base folds each output block straight from
the rows of its quantale's join and multiplication tables
(`FiniteQuantale.join_rows` and `mul_rows`), which its sup, leq and
tensor_mor read too; the operator-subspace base groups the pairs
(g_bc, f_ab) per output block and spans their products.
`product_leq(n, m, bound)` decides n m <= bound, with None for bottom, so
that `MatrInstance.composite_leq(g, f, h)` can decide g o f <= h without
building g o f: composition preserves joins, so (g o f)_ac, the join over b
of g_bc o f_ab, lies below h_ac exactly when every single product does.
The quantale base looks the product up in its multiplication rows and the
order in its join rows; the operator-subspace base reduces each product of
basis matrices against the bound's echelon.  Base objects are
hashable, base morphisms have a canonical equality, sup joins a non-empty
list, and top takes explicit source and target objects since base
morphisms need not know their own type.  There is no base bottom: a block
left out of a morphism is bottom.  The rest of the structure is the same in
every dagger compact quantaloid built here, so `MatrInstance` derives it:
the associators and unitors have base identities as cells, every object is
its own dual, and epsilon is the dagger of eta.

Every morphism keeps its non-bottom blocks sorted by position, rank(a)
|target| + rank(b), so equality is a comparison of block tuples.  `mor` is
the validating constructor for callers: it checks each key and drops bottom
blocks.  compose, dagger, sup, meet2, tensor_mor and `HomSet.__getitem__`
skip it: they take their keys from morphisms or homsets already built and
write their blocks straight in position order (dagger and sup cannot
produce bottom; compose, meet2 and tensor_mor drop it, since a product or
meet of non-bottom values can be bottom, as 1/2 (x) 1/2 = 0 in
lukasiewicz3; a homset marks its bottom choices once).

Results are kept per instance, never process-wide: a `MatrInstance` builds
each structure morphism and object once per argument objects, and an
`FdOSBase` computes each block product `_compose_sum(pairs, src, tgt)`, each
adjoint `dagger(m)` and each structure cell once per arguments (one
elimination each), all through `_built_once`.  QuantaleBase keeps nothing
of its own but its bottom: its operations are lookups in the rows its
quantale builds once.  A memo lives exactly as long as its instance: one
law suite (`lawcheck.make_context` builds a fresh instance per suite), one
CLI command, or the process for the `qrel.instance()` singleton.

Quoting also lives here: a finite set becomes a biproduct of copies of the
tensor unit, and a set of pairs a matrix of identity cells, in any of the
three instances (`set_to_object`, `quote_pairs`, `boolean_complement`).
This module imports neither direct model: the conversions to and from
`finrel.BoolRelation` and `quantale.VRelation` live beside those classes,
and `rel_instance` loads the boolean quantale when it is called, so the
qrel instance starts without either module.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import TYPE_CHECKING, Any

from .errors import QlabError
from .exact import (
    OperatorSubspace,
    full_subspace,
    kronecker,
    span_of_rows,
    subspace_adjoint,
    subspace_join,
    subspace_leq,
    subspace_meet,
    subspace_product,
    subspace_product_leq,
    zero_subspace,
)

if TYPE_CHECKING:
    from .finrel import FiniteSet
    from .quantale import FiniteQuantale


class MatrError(QlabError):
    pass


def _built_once(method):
    """A method whose result is kept in its owner's `_built` dict, keyed by
    the method's name without leading underscores and its (hashable)
    arguments, so it runs at most once per owner and arguments."""
    name = method.__name__.lstrip("_")

    @wraps(method)
    def built(self, *objs):
        key = (name, *objs)
        out = self._built.get(key)
        if out is None:
            out = self._built[key] = method(self, *objs)
        return out

    return built


class QuantaleBase:
    """One-object base whose endomorphisms form a commutative finite quantale."""

    def __init__(self, quantale: FiniteQuantale):
        self.quantale = quantale

    # Read on first use, not here, as FiniteQuantale.bottom is.
    @cached_property
    def _bottom(self):
        return self.quantale.bottom

    def __eq__(self, other):
        return isinstance(other, QuantaleBase) and self.quantale == other.quantale

    def __hash__(self):
        return hash(("QuantaleBase", self.quantale))

    def compose_blocks(self, g, f):
        """The blocks of g o f in position order.  The block at position
        rank(a) |target| + rank(c) is the join, from bottom, of the table
        products g_bc f_ab over b; blocks equal to bottom are dropped."""
        q = self.quantale
        mul, join = q.mul_rows, q.join_rows
        bottom = self._bottom
        tgt_index = g.target.index
        width = len(tgt_index)
        after: dict = {}  # b -> [(rank of c, c, the row of g_bc in mul)]
        for (b, c), n in g.blocks:
            row = after.get(b)
            if row is None:
                after[b] = [(tgt_index[c][0], c, mul[n])]
            else:
                row.append((tgt_index[c][0], c, mul[n]))
        src_index = f.source.index
        acc: dict = {}  # position -> join so far
        keys: dict = {}  # position -> (a, c)
        for (a, b), m in f.blocks:
            row = after.get(b)
            if row is None:
                continue
            offset = src_index[a][0] * width
            for rc, c, times_n in row:
                pos = offset + rc
                if pos in acc:
                    acc[pos] = join[acc[pos]][times_n[m]]
                else:
                    keys[pos] = (a, c)
                    acc[pos] = join[bottom][times_n[m]]
        return tuple([(keys[pos], v) for pos, v in sorted(acc.items()) if v != bottom])

    def identity(self, b):
        return self.quantale.unit

    def dagger(self, m):
        return m

    def sup(self, ms):
        join = self.quantale.join_rows
        acc = ms[0]
        for m in ms[1:]:
            acc = join[acc][m]
        return acc

    def leq(self, m1, m2):
        return self.quantale.join_rows[m1][m2] == m2

    def product_leq(self, n, m, bound):
        """n m <= bound, with None for bottom."""
        if bound is None:
            bound = self._bottom
        return self.quantale.join_rows[self.quantale.mul_rows[n][m]][bound] == bound

    def meet(self, m1, m2):
        return self.quantale.meet(m1, m2)

    def top(self, src, tgt):
        return self.quantale.top

    def is_bottom(self, m):
        return m == self._bottom

    def size(self, m):
        """What a cell costs, in scalars of an operator subspace: star on the
        full relation on 20 to 30 elements keeps about 390 bytes per cell,
        where star on span{I} at dimension 7 to 10 keeps 30 to 40 bytes per
        scalar."""
        return 12

    def tensor_obj(self, a, b):
        return "*"

    def tensor_mor(self, m, n):
        return self.quantale.mul_rows[m][n]

    def unit_obj(self):
        return "*"

    def symm_cell(self, a, b):
        return self.quantale.unit

    def eta_cell(self, a):
        return self.quantale.unit

    def enum_hom(self, src, tgt):
        return list(self.quantale.elements)


def _span_of_ones(d: int, c: int, ones: Iterable[int]) -> OperatorSubspace:
    """span{m} for the c x d 0/1 matrix m with its ones at the given row-major
    positions.  The structure cells all have a one at position 0, so m's
    vectorization is already the canonical row."""
    re = [0] * (d * c)
    for k in ones:
        re[k] = 1
    return span_of_rows(d, c, [(re, [0] * (d * c))])


class FdOSBase:
    """Base for quantum relations: objects are positive dimensions, morphisms
    are operator subspaces between the corresponding matrix spaces."""

    def __init__(self):
        self._built: dict[tuple, OperatorSubspace] = {}

    def __eq__(self, other):
        return isinstance(other, FdOSBase)

    def __hash__(self):
        return hash("FdOSBase")

    def compose_blocks(self, g, f):
        """The blocks of g o f in position order: the pairs (g_bc, f_ab) are
        grouped by output position rank(a) |target| + rank(c), and each
        group's span of products is computed once per instance; zero blocks
        are dropped."""
        src_index, tgt_index = f.source.index, g.target.index
        width = len(tgt_index)
        after: dict = {}  # b -> [(rank of c, c, g_bc)]
        for (b, c), n in g.blocks:
            after.setdefault(b, []).append((tgt_index[c][0], c, n))
        groups: dict = {}  # position -> (a, c, [(g_bc, f_ab)])
        for (a, b), m in f.blocks:
            row = after.get(b)
            if row is None:
                continue
            offset = src_index[a][0] * width
            for rc, c, n in row:
                group = groups.get(offset + rc)
                if group is None:
                    groups[offset + rc] = (a, c, [(n, m)])
                else:
                    group[2].append((n, m))
        blocks = []
        for pos in sorted(groups):
            a, c, pairs = groups[pos]
            m = self._compose_sum(tuple(pairs), src_index[a][1], tgt_index[c][1])
            if not m.is_zero():
                blocks.append(((a, c), m))
        return tuple(blocks)

    @_built_once
    def _compose_sum(self, pairs: tuple, src: int, tgt: int) -> OperatorSubspace:
        """The span of every composite w v over the pairs (w, v)."""
        return subspace_product(pairs, src, tgt)

    @_built_once
    def identity(self, b: int) -> OperatorSubspace:
        return _span_of_ones(b, b, range(0, b * b, b + 1))

    @_built_once
    def dagger(self, m: OperatorSubspace) -> OperatorSubspace:
        return subspace_adjoint(m)

    def sup(self, ms):
        out = ms[0]
        for m in ms[1:]:
            out = subspace_join(out, m)
        return out

    def leq(self, m1, m2):
        return subspace_leq(m1, m2)

    def product_leq(self, n, m, bound):
        """n m <= bound, with None for the zero subspace, tested product by
        product: no elimination and no memo entry."""
        return subspace_product_leq(n, m, bound)

    def meet(self, m1, m2):
        return subspace_meet(m1, m2)

    def top(self, src, tgt):
        return full_subspace(src, tgt)

    def is_bottom(self, m):
        return m.is_zero()

    def size(self, m):
        """The scalars of m's basis: dim m times the entries of a matrix."""
        return m.dim * m.domain_dim * m.codomain_dim

    def tensor_obj(self, a, b):
        return a * b

    def tensor_mor(self, m, n):
        return kronecker(m, n)

    def unit_obj(self):
        return 1

    @_built_once
    def symm_cell(self, a, b):
        # The permutation taking e_i (x) e_j in C^a (x) C^b to e_j (x) e_i.
        n = a * b
        return _span_of_ones(n, n, ((j * a + i) * n + i * b + j
                                    for i in range(a) for j in range(b)))

    @_built_once
    def eta_cell(self, a):
        # span{vec I}, with vec I as an a^2 x 1 column.
        return _span_of_ones(1, a * a, range(0, a * a, a + 1))

    def enum_hom(self, src, tgt):
        if src == 1 and tgt == 1:
            return [zero_subspace(1, 1), full_subspace(1, 1)]
        return None


@dataclass(frozen=True)
class MatrObject:
    """A finite indexed family of base objects.

    `labels` is the tuple of component labels, and `index` maps each label to
    (rank, base object), where rank is the label's position in the labels
    sorted by repr.  Both are computed once, as is the hash; neither takes
    part in equality.
    """

    base: QuantaleBase | FdOSBase
    components: tuple  # tuple of (label, base object)

    def __post_init__(self):
        labels = tuple(lab for lab, _ in self.components)
        if len(set(labels)) != len(labels):
            raise MatrError(f"duplicate component labels: {list(labels)}")
        rank = {lab: r for r, lab in enumerate(sorted(labels, key=repr))}
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "index", {lab: (rank[lab], b) for lab, b in self.components})
        object.__setattr__(self, "_hash", hash((self.base, self.components)))

    def __hash__(self):
        return self._hash

    def base_obj(self, label) -> Any:
        try:
            return self.index[label][1]
        except KeyError:
            raise MatrError(f"no component labelled {label!r}") from None

    def __repr__(self):
        parts = ", ".join(f"{lab!r}: {b!r}" for lab, b in self.components)
        return f"MatrObject({parts})"


@dataclass(frozen=True, init=False)
class MatrMorphism:
    """A matrix of base morphisms; bottom blocks are omitted."""

    source: MatrObject
    target: MatrObject
    blocks: tuple  # sorted tuple of ((source label, target label), base morphism)

    def __init__(self, source: MatrObject, target: MatrObject, blocks: tuple) -> None:
        # Written straight into the instance dict: the frozen dataclass's own
        # __init__ pays for object.__setattr__ on every field.
        d = self.__dict__
        d["source"] = source
        d["target"] = target
        d["blocks"] = blocks

    def block_map(self) -> dict:
        return dict(self.blocks)

    def __repr__(self):
        return (
            f"MatrMorphism({self.source.labels} -> {self.target.labels}, "
            f"{len(self.blocks)} blocks)"
        )


def _middles_differ(g: MatrMorphism, f: MatrMorphism) -> MatrError:
    return MatrError(f"cannot compose: middle objects differ, {f.target.labels} and "
                     f"{g.source.labels}")


_ORDER_TYPES = "order compares morphisms of the same type"


def _in_position_order(src: MatrObject, tgt: MatrObject, kept: list) -> MatrMorphism:
    """The morphism src -> tgt with the blocks of `kept`, a list of
    (position, block) pairs, sorted by position."""
    # The positions are distinct, so the sort never compares two blocks.
    kept.sort()
    return MatrMorphism(src, tgt, tuple([item for _, item in kept]))


class MatrInstance:
    """The dagger compact quantaloid of matrices over a base.

    Objects are interned: `obj` returns the same MatrObject for equal
    components, so its label index is built once per object.  The structure
    morphisms and objects (identities, unitors, associators, symmetries, units
    and counits, the unit and tensors) are built once per argument objects.
    `name` is "rel", "vrel" or "qrel": it picks the instance's JSON format.
    """

    def __init__(self, base: QuantaleBase | FdOSBase, name: str):
        self.base = base
        self.name = name
        self._objects: dict[tuple, MatrObject] = {}
        self._built: dict[tuple, MatrObject | MatrMorphism] = {}

    # -- object and morphism builders ----------------------------------------
    def obj(self, components: Iterable[tuple]) -> MatrObject:
        components = tuple(components)
        x = self._objects.get(components)
        if x is None:
            x = self._objects[components] = MatrObject(self.base, components)
        return x

    def mor(self, src: MatrObject, tgt: MatrObject, blocks: dict) -> MatrMorphism:
        """The morphism with the given blocks, bottom blocks dropped, the rest
        ordered by the repr of their source label, then of their target label."""
        src_index, tgt_index = src.index, tgt.index
        is_bottom = self.base.is_bottom
        width = len(tgt_index)
        kept = []
        for item in blocks.items():
            (a, b), m = item
            try:
                ra = src_index[a][0]
                rb = tgt_index[b][0]
            except KeyError:
                raise MatrError(f"block key {(a, b)!r} outside {src.labels} x {tgt.labels}") from None
            if not is_bottom(m):
                kept.append((ra * width + rb, item))
        return _in_position_order(src, tgt, kept)

    # -- quantaloid structure ----------------------------------------
    def source(self, f: MatrMorphism) -> MatrObject:
        return f.source

    def target(self, f: MatrMorphism) -> MatrObject:
        return f.target

    @_built_once
    def identity(self, x: MatrObject) -> MatrMorphism:
        return self.mor(x, x, {(lab, lab): self.base.identity(b) for lab, b in x.components})

    def compose(self, g: MatrMorphism, f: MatrMorphism) -> MatrMorphism:
        """(g o f)_ac = sup over b of g_bc o f_ab, every block from one base call."""
        if f.target is not g.source and f.target != g.source:
            raise _middles_differ(g, f)
        return MatrMorphism(f.source, g.target, self.base.compose_blocks(g, f))

    def dagger(self, f: MatrMorphism) -> MatrMorphism:
        src_index, tgt_index = f.source.index, f.target.index
        width = len(src_index)
        dagger = self.base.dagger
        return _in_position_order(f.target, f.source, [
            (tgt_index[b][0] * width + src_index[a][0], ((b, a), dagger(m)))
            for (a, b), m in f.blocks
        ])

    def sup(self, fs: Sequence[MatrMorphism], src: MatrObject, tgt: MatrObject) -> MatrMorphism:
        gathered: dict = {}
        for f in fs:
            if ((f.source is not src and f.source != src)
                    or (f.target is not tgt and f.target != tgt)):
                raise MatrError("sup of morphisms with different types")
            for key, m in f.blocks:
                gathered.setdefault(key, []).append(m)
        src_index, tgt_index = src.index, tgt.index
        width = len(tgt_index)
        sup = self.base.sup
        kept = []
        for (a, b), ms in gathered.items():
            pos = src_index[a][0] * width + tgt_index[b][0]
            kept.append((pos, ((a, b), ms[0] if len(ms) == 1 else sup(ms))))
        return _in_position_order(src, tgt, kept)

    def meet2(self, f: MatrMorphism, g: MatrMorphism) -> MatrMorphism:
        if ((f.source is not g.source and f.source != g.source)
                or (f.target is not g.target and f.target != g.target)):
            raise MatrError("meet of morphisms with different types")
        gmap = g.block_map()
        meet, is_bottom = self.base.meet, self.base.is_bottom
        # A subsequence of f's blocks, so already in position order.
        blocks = []
        for key, m in f.blocks:
            n = gmap.get(key)
            if n is not None:
                v = meet(m, n)
                if not is_bottom(v):
                    blocks.append((key, v))
        return MatrMorphism(f.source, f.target, tuple(blocks))

    def bottom(self, src: MatrObject, tgt: MatrObject) -> MatrMorphism:
        return self.mor(src, tgt, {})

    def join2(self, f: MatrMorphism, g: MatrMorphism) -> MatrMorphism:
        return self.sup([f, g], f.source, f.target)

    def equal(self, f: MatrMorphism, g: MatrMorphism) -> bool:
        return f == g

    def leq(self, f: MatrMorphism, g: MatrMorphism) -> bool:
        if ((f.source is not g.source and f.source != g.source)
                or (f.target is not g.target and f.target != g.target)):
            raise MatrError(_ORDER_TYPES)
        gmap = g.block_map()
        leq = self.base.leq
        for key, m in f.blocks:
            other = gmap.get(key)
            # Stored blocks are never bottom, so a block of f that g lacks
            # (is bottom in g) is not below it.
            if other is None or not leq(m, other):
                return False
        return True

    def composite_leq(self, g: MatrMorphism, f: MatrMorphism, h: MatrMorphism) -> bool:
        """leq(compose(g, f), h), with the same errors, without building g o f.

        Composition preserves joins, so (g o f)_ac, the join over b of
        g_bc o f_ab, lies below h_ac exactly when every single product does:
        each pair is one `product_leq` call against h's block (None where h
        is bottom), and the first that fails answers False."""
        if f.target is not g.source and f.target != g.source:
            raise _middles_differ(g, f)
        if ((f.source is not h.source and f.source != h.source)
                or (g.target is not h.target and g.target != h.target)):
            raise MatrError(_ORDER_TYPES)
        after: dict = {}  # b -> [(c, g_bc)]
        for (b, c), n in g.blocks:
            after.setdefault(b, []).append((c, n))
        hmap = h.block_map()
        product_leq = self.base.product_leq
        for (a, b), m in f.blocks:
            for c, n in after.get(b, ()):
                if not product_leq(n, m, hmap.get((a, c))):
                    return False
        return True

    def top(self, src: MatrObject, tgt: MatrObject) -> MatrMorphism:
        blocks = {
            (a, b): self.base.top(oa, ob)
            for a, oa in src.components
            for b, ob in tgt.components
        }
        return self.mor(src, tgt, blocks)

    # -- monoidal structure ----------------------------------------
    @_built_once
    def tensor_obj(self, x: MatrObject, y: MatrObject) -> MatrObject:
        comps = [
            ((la, lb), self.base.tensor_obj(oa, ob))
            for la, oa in x.components
            for lb, ob in y.components
        ]
        return self.obj(comps)

    def tensor_mor(self, f: MatrMorphism, g: MatrMorphism) -> MatrMorphism:
        src = self.tensor_obj(f.source, g.source)
        tgt = self.tensor_obj(f.target, g.target)
        src_index, tgt_index = src.index, tgt.index
        width = len(tgt_index)
        tensor, is_bottom = self.base.tensor_mor, self.base.is_bottom
        kept = []
        for (a, c), m in f.blocks:
            for (b, d), n in g.blocks:
                v = tensor(m, n)
                if not is_bottom(v):
                    ab, cd = (a, b), (c, d)
                    kept.append((src_index[ab][0] * width + tgt_index[cd][0], ((ab, cd), v)))
        return _in_position_order(src, tgt, kept)

    @_built_once
    def unit_obj(self) -> MatrObject:
        return self.obj([("*", self.base.unit_obj())])

    @_built_once
    def assoc(self, x: MatrObject, y: MatrObject, z: MatrObject) -> MatrMorphism:
        src = self.tensor_obj(self.tensor_obj(x, y), z)
        tgt = self.tensor_obj(x, self.tensor_obj(y, z))
        ident = self.base.identity
        blocks = {(((a, b), c), (a, (b, c))): ident(o) for ((a, b), c), o in src.components}
        return self.mor(src, tgt, blocks)

    @_built_once
    def lunit(self, x: MatrObject) -> MatrMorphism:
        src = self.tensor_obj(self.unit_obj(), x)
        ident = self.base.identity
        return self.mor(src, x, {(("*", a), a): ident(o) for (_, a), o in src.components})

    @_built_once
    def runit(self, x: MatrObject) -> MatrMorphism:
        src = self.tensor_obj(x, self.unit_obj())
        ident = self.base.identity
        return self.mor(src, x, {((a, "*"), a): ident(o) for (a, _), o in src.components})

    @_built_once
    def symm(self, x: MatrObject, y: MatrObject) -> MatrMorphism:
        src = self.tensor_obj(x, y)
        tgt = self.tensor_obj(y, x)
        blocks = {
            ((a, b), (b, a)): self.base.symm_cell(oa, ob)
            for a, oa in x.components
            for b, ob in y.components
        }
        return self.mor(src, tgt, blocks)

    # -- compact structure ----------------------------------------
    def dual_obj(self, x: MatrObject) -> MatrObject:
        """Every object is its own dual."""
        return x

    @_built_once
    def eta(self, x: MatrObject) -> MatrMorphism:
        tgt = self.tensor_obj(self.dual_obj(x), x)
        blocks = {("*", (a, a)): self.base.eta_cell(oa) for a, oa in x.components}
        return self.mor(self.unit_obj(), tgt, blocks)

    @_built_once
    def epsilon(self, x: MatrObject) -> MatrMorphism:
        return self.dagger(self.eta(x))

    # -- biproducts ----------------------------------------
    def biproduct(self, objs: Sequence[MatrObject]) -> tuple[MatrObject, list, list]:
        comps = []
        for k, o in enumerate(objs):
            comps.extend(((k, lab), b) for lab, b in o.components)
        total = self.obj(comps)
        injections = []
        for k, o in enumerate(objs):
            blocks = {(lab, (k, lab)): self.base.identity(b) for lab, b in o.components}
            injections.append(self.mor(o, total, blocks))
        projections = [self.dagger(i) for i in injections]
        return total, injections, projections

    # -- enumeration ----------------------------------------
    def enum_hom(self, src: MatrObject, tgt: MatrObject) -> HomSet | None:
        """All morphisms src -> tgt, or None when the homset is not enumerable."""
        keys = [
            ((a, b), oa, ob) for a, oa in src.components for b, ob in tgt.components
        ]
        choices = []
        for _, oa, ob in keys:
            hom = self.base.enum_hom(oa, ob)
            if hom is None:
                return None
            choices.append(hom)
        return HomSet(self, src, tgt, [key for key, _, _ in keys], choices)

    def scalars(self) -> list:
        """The endomorphisms of the tensor unit, which both bases enumerate."""
        return list(self.enum_hom(self.unit_obj(), self.unit_obj()))


class HomSet(Sequence):
    """The morphisms of a finite homset, each built only when it is read.

    Morphism i has, at block k, choice number d_k of that block, where the
    d_k are the digits of i in mixed radix with the last block fastest: the
    order of itertools.product over the per-block choices.  It is the
    morphism `inst.mor(src, tgt, dict(zip(keys, choices)))` would build, put
    together by position instead: each block's choices are checked against
    bottom once per homset, and the blocks are visited in position order.
    """

    def __init__(self, inst: MatrInstance, src: MatrObject, tgt: MatrObject,
                 keys: list, choices: list[list]):
        self.inst = inst
        self.src = src
        self.tgt = tgt
        self.keys = keys
        self.choices = choices
        self.size = math.prod(len(c) for c in choices)
        # Per block, in position order: its digit's stride (the product of
        # the radices after it), its radix, and for each choice the block it
        # gives, or None for bottom.
        src_index, tgt_index = src.index, tgt.index
        width = len(tgt_index)
        is_bottom = inst.base.is_bottom
        cells = []
        stride = 1
        for (a, b), choice in reversed(list(zip(keys, choices))):
            cells.append((src_index[a][0] * width + tgt_index[b][0], stride, len(choice), [
                None if is_bottom(m) else ((a, b), m) for m in choice
            ]))
            stride *= len(choice)
        cells.sort()
        self._by_position = [cell[1:] for cell in cells]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> MatrMorphism:
        i = operator.index(i)
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError("homset index out of range")
        return MatrMorphism(self.src, self.tgt, tuple([
            block for stride, n, blocks in self._by_position
            if (block := blocks[i // stride % n]) is not None
        ]))


# -- the three concrete instances -----------------------------------------------

def rel_instance() -> MatrInstance:
    from .quantale import boolean_quantale  # read by rel only, once per instance

    return MatrInstance(QuantaleBase(boolean_quantale()), name="rel")


def vrel_instance(quantale: FiniteQuantale) -> MatrInstance:
    return MatrInstance(QuantaleBase(quantale), name="vrel")


def qrel_instance() -> MatrInstance:
    return MatrInstance(FdOSBase(), name="qrel")


# -- quoting: finite sets and sets of pairs in any of the instances --------------

def set_to_object(inst: MatrInstance, a: FiniteSet) -> MatrObject:
    """A finite set as the |A|-fold biproduct of the tensor unit."""
    unit = inst.base.unit_obj()
    return inst.obj([(lab, unit) for lab in a.labels])


def quote_pairs(inst: MatrInstance, src: MatrObject, tgt: MatrObject,
                pairs: Iterable[tuple]) -> MatrMorphism:
    """The morphism between quoted sets with the identity cell of the tensor
    unit at each pair and bottom elsewhere."""
    cell = inst.base.identity(inst.base.unit_obj())
    return inst.mor(src, tgt, {pair: cell for pair in pairs})


def boolean_complement(inst: MatrInstance, f: MatrMorphism) -> MatrMorphism:
    """The morphism between quoted sets with an identity cell exactly where f
    has none: the complement of f read as a boolean relation."""
    present = f.block_map()
    return quote_pairs(inst, f.source, f.target, [
        (a, b) for a in f.source.labels for b in f.target.labels if (a, b) not in present
    ])
