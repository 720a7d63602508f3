"""Finite commutative unital quantales and V-valued relations.

A quantale is given by tables; validation checks its elements, its tables
and every lattice and distributivity law in one ordered pass, and stops at
the first violation, which it reports with a witness.  VRelation is a direct
entrywise implementation of V-valued relations used both on its own and as
the oracle for the generic matrix-completion instance built over the same
quantale; `vrelation_to_matr` and `matr_to_vrelation` carry it there and
back, here rather than in `matr` so that the kernel never loads this module.
`all_vrelations` is a homset of V-valued relations indexed like
`matr.HomSet`, each relation built when it is first read.  The V-valued
powerset comes with its transpose and the check that the counit factors
each relation through it.

Every operation reads the tables, with no call per cell:
  * `FiniteQuantale.leq` and `sup` read `join_table`; `mul_rows` and
    `join_rows` are the two tables by rows, n -> {m: n m} and
    x -> {y: x v y}, built once per quantale on first read.  They are shared
    by VRelation and by the matrix instance's `QuantaleBase`.
  * `VRelation.compose` folds each cell from bottom over `join_rows` and
    `mul_rows`; `join` and `leq` read `join_rows`, `times` reads `mul_rows`.
    Products keep the kernel's order, the later factor on the left:
    `s.compose(r)` joins s(y, z) r(x, y) as `QuantaleBase.compose_blocks`
    joins g_bc f_ab, and `r.times(s)` multiplies r(x1, y1) s(x2, y2).
    Their results, and those of `dagger` and `all_vrelations`, hold every cell
    in label order already, so they skip the validating constructor.  The
    hash is computed once, on first use.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterator, Mapping, NamedTuple, Sequence

from .errors import QlabError
from .finrel import BoolRelation, FiniteSet, function_graph, product_set
from .matr import MatrError, MatrInstance, MatrMorphism, QuantaleBase, set_to_object

Label = Hashable


class QuantaleError(QlabError):
    pass


@dataclass(frozen=True)
class FiniteQuantale:
    """A finite complete lattice with a sup-distributive multiplication."""

    elements: tuple[Label, ...]
    join_table: Mapping[tuple[Label, Label], Label]
    mul_table: Mapping[tuple[Label, Label], Label]
    unit: Label

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "join_table", dict(self.join_table))
        object.__setattr__(self, "mul_table", dict(self.mul_table))

    def __hash__(self) -> int:
        return hash((self.elements, self.unit))

    def join(self, a: Label, b: Label) -> Label:
        return self.join_table[(a, b)]

    def mul(self, a: Label, b: Label) -> Label:
        return self.mul_table[(a, b)]

    def leq(self, a: Label, b: Label) -> bool:
        return self.join_table[(a, b)] == b

    def sup(self, items: Sequence[Label]) -> Label:
        join = self.join_table
        acc = self.bottom
        for x in items:
            acc = join[(acc, x)]
        return acc

    # The tables by rows, built on first read like bottom and top: a fold
    # takes the row of its left operand once and then looks up no pair.
    @cached_property
    def mul_rows(self) -> dict[Label, dict[Label, Label]]:
        """n -> {m: n m}."""
        es, mul = self.elements, self.mul_table
        return {n: {m: mul[(n, m)] for m in es} for n in es}

    @cached_property
    def join_rows(self) -> dict[Label, dict[Label, Label]]:
        """x -> {y: x v y}."""
        es, join = self.elements, self.join_table
        return {x: {y: join[(x, y)] for y in es} for x in es}

    # bottom and top are found on first read, not in __post_init__, so that
    # validate_quantale can still report a join table that is not total.
    @property
    def bottom(self) -> Label:
        if "_bottom" not in self.__dict__:
            b = self.elements[0]
            for x in self.elements:
                if self.leq(x, b):
                    b = x
            object.__setattr__(self, "_bottom", b)
        return self.__dict__["_bottom"]

    @property
    def top(self) -> Label:
        if "_top" not in self.__dict__:
            t = self.elements[0]
            for x in self.elements:
                if self.leq(t, x):
                    t = x
            object.__setattr__(self, "_top", t)
        return self.__dict__["_top"]

    def meet(self, a: Label, b: Label) -> Label:
        """The join of every common lower bound of a and b, read from a table
        built on first call."""
        if "_meet" not in self.__dict__:
            es = self.elements
            below = {y: [x for x in es if self.leq(x, y)] for y in es}
            table = {
                (y, z): self.sup([x for x in below[y] if self.leq(x, z)])
                for y in es for z in es
            }
            object.__setattr__(self, "_meet", table)
        return self.__dict__["_meet"][(a, b)]

    # -- flags ----------------------------------------------------------------
    def is_nontrivial(self) -> bool:
        return self.bottom != self.top

    def is_affine(self) -> bool:
        return self.unit == self.top

    def is_commutative(self) -> bool:
        return all(self.mul(a, b) == self.mul(b, a) for a in self.elements for b in self.elements)

    def is_idempotent(self) -> bool:
        return all(self.mul(a, a) == a for a in self.elements)

    def is_frame(self) -> bool:
        return all(self.mul(a, b) == self.meet(a, b) for a in self.elements for b in self.elements)


def quantale_from_tables(
    elements: Sequence[Label],
    mul: Mapping[tuple[Label, Label], Label],
    unit: Label,
    join: Mapping[tuple[Label, Label], Label] | None = None,
    leq: set[tuple[Label, Label]] | None = None,
) -> FiniteQuantale:
    """Build a quantale from a join table or a <= table; both given, cross-check."""
    if join is None and leq is None:
        raise QuantaleError("need a join table or a leq table")
    if join is None:
        join = {}
        for a, b in itertools.product(elements, repeat=2):
            uppers = [
                c for c in elements
                if (a, c) in leq and (b, c) in leq
            ]
            least = [c for c in uppers if all((c, d) in leq for d in uppers)]
            if len(least) != 1:
                raise QuantaleError(f"no least upper bound for {(a, b)!r}")
            join[(a, b)] = least[0]
    elif leq is not None:
        derived = {(a, b) for a in elements for b in elements if join[(a, b)] == b}
        if derived != set(leq):
            raise QuantaleError("join table and leq table disagree")
    return FiniteQuantale(tuple(elements), join, dict(mul), unit)


class ValidationReport(NamedTuple):
    ok: bool
    failures: tuple[tuple[str, tuple], ...]
    flags: Mapping[str, bool]


def validate_quantale(q: FiniteQuantale) -> ValidationReport:
    """Check every axiom in one ordered pass; report the first violation with
    a witness, or the flags when there is none."""
    failure = _first_violation(q)
    if failure is not None:
        return ValidationReport(False, (failure,), {})
    flags = {
        "nontrivial": q.is_nontrivial(),
        "affine": q.is_affine(),
        "commutative": q.is_commutative(),
        "idempotent": q.is_idempotent(),
        "frame": q.is_frame(),
    }
    return ValidationReport(True, (), flags)


def _first_violation(q: FiniteQuantale) -> tuple[str, tuple] | None:
    es = q.elements
    if not es:
        return "no elements", ()
    seen = set()
    for a in es:
        if a in seen:
            return "elements repeat", (a,)
        seen.add(a)
    if q.unit not in es:
        return "unit outside elements", (q.unit,)
    for a, b in itertools.product(es, repeat=2):
        if (a, b) not in q.join_table:
            return "join table not total", (a, b)
        if (a, b) not in q.mul_table:
            return "mul table not total", (a, b)
        if q.join_table[(a, b)] not in seen or q.mul_table[(a, b)] not in seen:
            return "table value outside elements", (a, b)

    join, mul = q.join, q.mul
    for a in es:
        if join(a, a) != a:
            return "join idempotent", (a,)
    for a, b in itertools.product(es, repeat=2):
        if join(a, b) != join(b, a):
            return "join commutative", (a, b)
    for a, b, c in itertools.product(es, repeat=3):
        if join(join(a, b), c) != join(a, join(b, c)):
            return "join associative", (a, b, c)
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            return "mul associative", (a, b, c)
    for a in es:
        if mul(q.unit, a) != a or mul(a, q.unit) != a:
            return "unit neutral", (a,)
    for a, b in itertools.product(es, repeat=2):
        if mul(a, b) != mul(b, a):
            return "mul commutative", (a, b)
    # finite sup-distributivity follows from binary + bottom cases
    bot = q.bottom
    for a in es:
        if mul(bot, a) != bot or mul(a, bot) != bot:
            return "bottom absorbing", (a,)
    for a, b, c in itertools.product(es, repeat=3):
        if mul(join(a, b), c) != join(mul(a, c), mul(b, c)):
            return "mul distributes over join", (a, b, c)
    return None


# -- built-in quantales ------------------------------------------------------------

def boolean_quantale() -> FiniteQuantale:
    """The two-element frame: join = or, mul = and, unit = top."""
    els = ("0", "1")
    join = {(a, b): "1" if "1" in (a, b) else "0" for a in els for b in els}
    mul = {(a, b): "1" if a == b == "1" else "0" for a in els for b in els}
    return FiniteQuantale(els, join, mul, "1")


def chain_min_quantale(n: int) -> FiniteQuantale:
    """The n-element chain 0 < 1 < ... < n-1 with mul = min; a frame."""
    els = tuple(str(i) for i in range(n))
    join = {(a, b): str(max(int(a), int(b))) for a in els for b in els}
    mul = {(a, b): str(min(int(a), int(b))) for a in els for b in els}
    return FiniteQuantale(els, join, mul, els[-1])


def lukasiewicz3_quantale() -> FiniteQuantale:
    """The 3-chain {0, 1/2, 1} with truncated addition x.y = max(0, x+y-1).

    Affine and commutative but not idempotent (1/2 . 1/2 = 0), hence not a
    frame: the witness for the failure of the modular relation law.
    """
    els = ("0", "1/2", "1")
    val = {"0": 0, "1/2": 1, "1": 2}
    name = {0: "0", 1: "1/2", 2: "1"}
    join = {(a, b): name[max(val[a], val[b])] for a in els for b in els}
    mul = {(a, b): name[max(0, val[a] + val[b] - 2)] for a in els for b in els}
    return FiniteQuantale(els, join, mul, "1")


BUILTIN_QUANTALES: dict[str, FiniteQuantale] = {
    "bool": boolean_quantale(),
    "chain3": chain_min_quantale(3),
    "chain4": chain_min_quantale(4),
    "lukasiewicz3": lukasiewicz3_quantale(),
}


# -- V-valued relations ----------------------------------------------------------------

@dataclass(frozen=True)
class VRelation:
    quantale: FiniteQuantale
    source: FiniteSet
    target: FiniteSet
    values: Mapping[tuple[Label, Label], Label]

    def __post_init__(self) -> None:
        q = self.quantale
        bottom, elements = q.bottom, q.elements
        given = self.values
        targets = self.target.labels
        vals = {}
        for x in self.source.labels:
            for y in targets:
                v = given.get((x, y), bottom)
                if v not in elements:
                    raise QuantaleError(f"value {v!r} not in quantale")
                vals[(x, y)] = v
        object.__setattr__(self, "values", vals)

    @classmethod
    def _built(cls, q: FiniteQuantale, source: FiniteSet, target: FiniteSet,
               values: dict) -> "VRelation":
        """The relation with these values, which must hold every cell of
        source x target in label order, each an element of q: what the
        operations below produce, so they skip __post_init__."""
        r = object.__new__(cls)
        d = r.__dict__
        d["quantale"] = q
        d["source"] = source
        d["target"] = target
        d["values"] = values
        return r

    def __hash__(self) -> int:
        # Frozen, so the hash is computed once, on first use.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(
                (self.source, self.target, frozenset(self.values.items())))
        return h

    def at(self, x: Label, y: Label) -> Label:
        return self.values[(x, y)]

    @staticmethod
    def identity(q: FiniteQuantale, x: FiniteSet) -> "VRelation":
        return VRelation(q, x, x, {(a, a): q.unit for a in x})

    @staticmethod
    def top(q: FiniteQuantale, x: FiniteSet, y: FiniteSet) -> "VRelation":
        return VRelation(q, x, y, {(a, b): q.top for a in x for b in y})

    def compose(self, other: "VRelation") -> "VRelation":
        """self after other: (x, z) |-> sup over y of self(y, z) other(x, y),
        folded from bottom over the rows of the join and mul tables."""
        if other.target != self.source or other.quantale != self.quantale:
            raise QuantaleError("composition mismatch")
        q = self.quantale
        mul, join, bottom = q.mul_rows, q.join_rows, q.bottom
        first, then = other.values, self.values
        mid, targets = self.source.labels, self.target.labels
        vals = {}
        for x in other.source.labels:
            # (y, other(x, y)) for each y
            fx = [(y, first[(x, y)]) for y in mid]
            for z in targets:
                acc = bottom
                for y, v in fx:
                    acc = join[acc][mul[then[(y, z)]][v]]
                vals[(x, z)] = acc
        return VRelation._built(q, other.source, self.target, vals)

    def dagger(self) -> "VRelation":
        vals = self.values
        sources = self.source.labels
        return VRelation._built(
            self.quantale, self.target, self.source,
            {(y, x): vals[(x, y)] for y in self.target.labels for x in sources},
        )

    def join(self, other: "VRelation") -> "VRelation":
        self._check_parallel(other)
        join, theirs = self.quantale.join_rows, other.values
        return VRelation._built(
            self.quantale, self.source, self.target,
            {k: join[v][theirs[k]] for k, v in self.values.items()},
        )

    def leq(self, other: "VRelation") -> bool:
        self._check_parallel(other)
        join, theirs = self.quantale.join_rows, other.values
        for k, v in self.values.items():
            w = theirs[k]
            if join[v][w] != w:
                return False
        return True

    def _check_parallel(self, other: "VRelation") -> None:
        if self.source != other.source or self.target != other.target:
            raise QuantaleError("relations are not parallel")

    def times(self, other: "VRelation") -> "VRelation":
        q = self.quantale
        mul, mine, theirs = q.mul_rows, self.values, other.values
        src = product_set(self.source, other.source)
        tgt = product_set(self.target, other.target)
        tgt_pairs = tgt.labels
        vals = {}
        for x1, x2 in src.labels:
            for y1, y2 in tgt_pairs:
                vals[((x1, x2), (y1, y2))] = mul[mine[(x1, y1)]][theirs[(x2, y2)]]
        return VRelation._built(q, src, tgt, vals)


# -- the matrix instance over a quantale ---------------------------------------------

def vrelation_to_matr(inst: MatrInstance, r: VRelation) -> MatrMorphism:
    if not isinstance(inst.base, QuantaleBase) or inst.base.quantale != r.quantale:
        raise MatrError("the instance base must carry the relation's quantale")
    src = set_to_object(inst, r.source)
    tgt = set_to_object(inst, r.target)
    blocks = {(a, b): r.at(a, b) for a in r.source.labels for b in r.target.labels}
    return inst.mor(src, tgt, blocks)


def matr_to_vrelation(inst: MatrInstance, f: MatrMorphism) -> VRelation:
    q = inst.base.quantale
    src = FiniteSet(f.source.labels)
    tgt = FiniteSet(f.target.labels)
    return VRelation(q, src, tgt, {key: m for key, m in f.blocks})


class all_vrelations(Sequence):
    """Every V-valued relation a -> b, each built when it is first read and
    then kept: `random.sample` copies a small population whole on every call,
    so iteration, which that copy runs, reads one list built on the first pass.

    Relation i has, at the k-th cell of a x b in label order, element number
    d_k of q, where the d_k are the digits of i in base |V| with the last
    cell fastest: the order of itertools.product over the cells' values.
    """

    def __init__(self, q: FiniteQuantale, a: FiniteSet, b: FiniteSet):
        self.quantale = q
        self.source = a
        self.target = b
        self.cells = list(itertools.product(a.labels, b.labels))
        self.size = len(q.elements) ** len(self.cells)
        self._kept: dict[int, VRelation] = {}

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> VRelation:
        i = operator.index(i)
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError("relation index out of range")
        r = self._kept.get(i)
        if r is None:
            es, rest, digits = self.quantale.elements, i, []
            for _ in self.cells:
                rest, d = divmod(rest, len(es))
                digits.append(es[d])
            r = self._kept[i] = VRelation._built(
                self.quantale, self.source, self.target,
                dict(zip(self.cells, reversed(digits))))
        return r

    def __iter__(self) -> Iterator[VRelation]:
        return iter(self._every)

    @cached_property
    def _every(self) -> list[VRelation]:
        return [self[i] for i in range(self.size)]


def circ_embed(q: FiniteQuantale, r: BoolRelation) -> VRelation:
    """Unit-valued embedding of a boolean relation."""
    if not q.is_nontrivial():
        raise QuantaleError("embedding needs a nontrivial quantale")
    return VRelation(q, r.source, r.target, {p: q.unit for p in r.pairs})


def allegory_witness(q: FiniteQuantale) -> tuple[Label, VRelation] | None:
    """An element v with v not <= v.v.v, plus the 1x1 relation r with r not <= r r^dag r.

    Returns None exactly when no such element exists (e.g. for frames).
    """
    if not q.is_affine():
        raise QuantaleError("witness search is stated for affine quantales")
    one = fset_one()
    for v in q.elements:
        if not q.leq(v, q.mul(v, q.mul(v, v))):
            r = VRelation(q, one, one, {("*", "*"): v})
            return v, r
    return None


def fset_one() -> FiniteSet:
    return FiniteSet(("*",))


# -- V-valued powerset --------------------------------------------------------------------

class VPowerData(NamedTuple):
    quantale: FiniteQuantale
    base: FiniteSet
    power: FiniteSet      # labels are tuples of (x, value) pairs: functions X -> V
    omega: FiniteSet      # the object of truth values: the elements of V
    omega_effect: VRelation  # omega : V -> 1, (v, *) |-> v
    counit: VRelation     # membership-style counit P(X) -> X


def v_power_adjoint(q: FiniteQuantale, x: FiniteSet) -> VPowerData:
    functions = [
        tuple(zip(x.labels, vals))
        for vals in itertools.product(q.elements, repeat=len(x))
    ]
    power = FiniteSet(tuple(functions))
    omega = FiniteSet(q.elements)
    one = fset_one()
    omega_effect = VRelation(q, omega, one, {(v, "*"): v for v in q.elements})
    counit = VRelation(
        q, power, x,
        {(g, a): v for g in functions for a, v in g},
    )
    return VPowerData(q, x, power, omega, omega_effect, counit)


def v_power_transpose(data: VPowerData, v: VRelation) -> BoolRelation:
    """The canonical transpose of v : A -> X, the function f : A -> V^X with
    f(a) = (x |-> v(a, x)); the counit composed with f embedded gives v back.

    It need not be the only such function: for some quantales other functions
    A -> V^X factor v through the counit too (on P(Z2) and on 2x2, for
    instance), so this is a choice, not a uniqueness claim."""
    if v.target != data.base:
        raise QuantaleError("relation target is not the powerset base")
    return function_graph(
        v.source, data.power,
        lambda a: tuple((x, v.at(a, x)) for x in data.base),
    )


def v_power_counit_check(data: VPowerData, v: VRelation) -> bool:
    """A V-valued relation A -> X factors as the counit after its transpose."""
    f = circ_embed(data.quantale, v_power_transpose(data, v))
    return data.counit.compose(f) == v
