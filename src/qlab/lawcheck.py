"""Named law suites, run exhaustively at small size for the enumerable
instances and over seeded samples for quantum relations.

A suite is a body `(ctx, law)` registered with `@suite(name, kinds)`.  It
declares its laws with `law(text)` (`pad=True` marks a law that is padded
with one pass when it gets no check), draws its morphisms from the Context
(`homs`, `hom_pairs`, and the filtered `maps` and `preorders`; laws of one
suite share their draws) and counts each check with
`LawResult.record(ok, *witness)`.  The registry returns the laws in
declaration order.  All generation is deterministic given the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from . import calculus, core, orders, power, qrel
from .errors import QlabError
from .exact import span_of_rows
from .finrel import (
    BoolRelation,
    all_functions,
    all_relations,
    curry,
    downset_adjoint,
    exponential_via_power,
    fset,
    matr_to_relation,
    powerset_adjoint,
    product_set,
    relation_to_matr,
)
from .matr import (
    MatrInstance,
    boolean_complement,
    qrel_instance,
    rel_instance,
    set_to_object,
    vrel_instance,
)
from .quantale import (
    FiniteQuantale,
    VRelation,
    all_vrelations,
    allegory_witness,
    boolean_quantale,
    chain_min_quantale,
    circ_embed,
    lukasiewicz3_quantale,
    matr_to_vrelation,
    v_power_adjoint,
    vrelation_to_matr,
)


@dataclass
class LawResult:
    suite: str
    law: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.checked > 0

    def record(self, ok: bool, *witness) -> None:
        """Count one check.  The witness of a failed check is rendered only
        if it is kept (the first five): its parts joined by ';', a str as it
        is, a zero-argument callable by calling it, anything else by repr."""
        self.checked += 1
        if not ok and len(self.failures) < 5:
            text = ";".join(part if isinstance(part, str)
                            else part() if callable(part) else repr(part)
                            for part in witness)
            self.failures.append(text or "unnamed counterexample")

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "law": self.law,
            "checked": self.checked,
            "ok": self.ok,
            "failures": list(self.failures),
        }


class SuiteReport(NamedTuple):
    name: str
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def as_dict(self) -> dict:
        return {"suite": self.name, "ok": self.ok, "laws": [r.as_dict() for r in self.results]}


# -- contexts: one per instance kind ------------------------------------------------

# Twice the entries 0, 1, -1, i, 1+i and 1/2, as Gaussian integers (re, im):
# scaling a matrix does not change its span.
_PALETTE = ((0, 0), (2, 0), (-2, 0), (0, 2), (2, 2), (1, 0))


def _random_subspace(rng: random.Random, d: int, c: int):
    k = rng.randint(0, 2)
    mats = []
    for _ in range(k):
        entries = [rng.choice(_PALETTE) for _ in range(d * c)]
        mats.append(([x for x, _ in entries], [y for _, y in entries]))
    return span_of_rows(d, c, mats)


class Context:
    """Deterministic morphism supply for one instance."""

    def __init__(self, kind: str, inst: MatrInstance, rng: random.Random,
                 quantale: FiniteQuantale | None = None):
        self.kind = kind
        self.inst = inst
        self.rng = rng
        self.quantale = quantale
        if kind == "qrel":
            self.objects = [
                inst.obj([("a", 1)]),
                inst.obj([("a", 2)]),
                inst.obj([("a", 2), ("b", 1)]),
            ]
        else:
            self.objects = [
                set_to_object(inst, fset("0")),
                set_to_object(inst, fset("0", "1")),
                set_to_object(inst, fset("0", "1", "2")),
            ]

    def some_objects(self, n: int):
        return self.objects[:n]

    def homs(self, x, y, cap: int):
        enum = self.inst.enum_hom(x, y)
        if enum is not None:
            if len(enum) <= cap:
                return list(enum)
            # random.sample reads only the population's length and the drawn
            # positions, so sampling the positions makes the same RNG calls and
            # builds only the morphisms drawn.
            return [enum[i] for i in self.rng.sample(range(len(enum)), cap)]
        out = []
        for _ in range(cap):
            blocks = {}
            for a, da in x.components:
                for b, db in y.components:
                    blocks[(a, b)] = _random_subspace(self.rng, da, db)
            out.append(self.inst.mor(x, y, blocks))
        return out

    def maps(self, x, y, cap: int):
        """The maps among `homs(x, y, cap)`, in draw order."""
        return [f for f in self.homs(x, y, cap) if core.is_map(self.inst, f)]

    def preorders(self, x, cap: int, keep: int):
        """The first `keep` preorders among `homs(x, x, cap)`, or the discrete
        order on x when there is none."""
        found = [r for r in self.homs(x, x, cap) if core.is_preorder(self.inst, r)]
        return ([orders.PreorderedObject(x, r) for r in found[:keep]]
                or [orders.discrete(self.inst, x)])

    def hom_pairs(self, x, y, z, cap: int):
        fs = self.homs(x, y, cap)
        gs = self.homs(y, z, cap)
        pairs = list(itertools.product(fs, gs))
        if len(pairs) > cap * 4:
            pairs = self.rng.sample(pairs, cap * 4)
        return pairs


def make_context(kind: str, seed: int, quantale: FiniteQuantale | None = None) -> Context:
    rng = random.Random(f"{seed}:{kind}")
    if kind == "rel":
        return Context(kind, rel_instance(), rng, boolean_quantale())
    if kind == "vrel":
        q = quantale or chain_min_quantale(3)
        return Context(kind, vrel_instance(q), rng, q)
    if kind == "qrel":
        return Context(kind, qrel_instance(), rng, None)
    raise QlabError(f"unknown instance kind {kind!r}")


# -- suites --------------------------------------------------------------------

SUITES: dict = {}


def suite(name: str, kinds: tuple):
    """Register `body(ctx, law)` as the suite `name` for the instance `kinds`.

    `law(text, pad=False)` declares one law of the suite and returns its
    LawResult; the suite reports its laws in declaration order.  A law
    declared with `pad=True` that has no check when the body returns records
    one pass.  SUITES maps the name to `(run(ctx) -> list[LawResult], kinds)`."""
    def wrap(body):
        def run(ctx: Context) -> list:
            laws, padded = [], []

            def law(text: str, pad: bool = False) -> LawResult:
                res = LawResult(name, text)
                laws.append(res)
                if pad:
                    padded.append(res)
                return res

            body(ctx, law)
            for res in padded:
                if res.checked == 0:
                    res.record(True)
            return laws
        SUITES[name] = (run, kinds)
        return run
    return wrap


@suite("composition", ("rel", "vrel", "qrel"))
def suite_composition(ctx: Context, law) -> None:
    inst = ctx.inst
    assoc = law("h o (g o f) = (h o g) o f")
    unit_l = law("id o f = f")
    unit_r = law("f o id = f")
    x, y, z = ctx.some_objects(3)
    for f in ctx.homs(x, y, 12):
        unit_l.record(inst.equal(inst.compose(inst.identity(y), f), f), f)
        unit_r.record(inst.equal(inst.compose(f, inst.identity(x)), f), f)
        for g in ctx.homs(y, z, 6):
            gf = inst.compose(g, f)
            for h in ctx.homs(z, x, 4):
                lhs = inst.compose(h, gf)
                rhs = inst.compose(inst.compose(h, g), f)
                assoc.record(inst.equal(lhs, rhs), f, g, h)


@suite("order", ("rel", "vrel", "qrel"))
def suite_order(ctx: Context, law) -> None:
    inst = ctx.inst
    dist_l = law("g o sup(fs) = sup(g o fs)")
    dist_r = law("sup(gs) o f = sup(gs o f)")
    lattice = law("join/meet are lub/glb for the order")
    bot_law = law("bottom composes to bottom")
    x, y, z = ctx.some_objects(3)
    fs = ctx.homs(x, y, 8)
    gs = ctx.homs(y, z, 8)
    sup_fs = inst.sup(fs, x, y)
    for g in gs[:4]:
        lhs = inst.compose(g, sup_fs)
        rhs = inst.sup([inst.compose(g, f) for f in fs], x, z)
        dist_l.record(inst.equal(lhs, rhs), g)
    sup_gs = inst.sup(gs, y, z)
    for f in fs[:4]:
        lhs = inst.compose(sup_gs, f)
        rhs = inst.sup([inst.compose(g, f) for g in gs], x, z)
        dist_r.record(inst.equal(lhs, rhs), f)
    for f, g in zip(fs, fs[1:]):
        j = inst.join2(f, g)
        m = inst.meet2(f, g)
        ok = (
            inst.leq(f, j) and inst.leq(g, j)
            and inst.leq(m, f) and inst.leq(m, g)
            and inst.leq(inst.meet2(j, f), f)
        )
        lattice.record(ok, f, g)
    bot = inst.bottom(x, y)
    for g in gs[:4]:
        bot_law.record(inst.equal(inst.compose(g, bot), inst.bottom(x, z)), g)


@suite("dagger", ("rel", "vrel", "qrel"))
def suite_dagger(ctx: Context, law) -> None:
    inst = ctx.inst
    invol = law("dagger(dagger(f)) = f")
    contra = law("dagger(g o f) = dagger(f) o dagger(g)")
    monot = law("f <= g implies dagger(f) <= dagger(g)")
    ident = law("dagger(id) = id")
    x, y, z = ctx.some_objects(3)
    ident.record(inst.equal(inst.dagger(inst.identity(x)), inst.identity(x)))
    for f in ctx.homs(x, y, 10):
        invol.record(inst.equal(inst.dagger(inst.dagger(f)), f), f)
        for g in ctx.homs(y, z, 5):
            lhs = inst.dagger(inst.compose(g, f))
            rhs = inst.compose(inst.dagger(f), inst.dagger(g))
            contra.record(inst.equal(lhs, rhs), f, g)
    fs = ctx.homs(x, y, 10)
    for f in fs:
        for g in fs[:5]:
            j = inst.join2(f, g)
            monot.record(inst.leq(inst.dagger(f), inst.dagger(j)), f, g)


@suite("monoidal", ("rel", "vrel", "qrel"))
def suite_monoidal(ctx: Context, law) -> None:
    inst = ctx.inst
    functor = law("(g1 x g2) o (f1 x f2) = (g1 o f1) x (g2 o f2)")
    nat_sym = law("symmetry is natural")
    nat_assoc = law("associator is natural")
    unitors = law("unitors are natural dagger isos")
    pentagon = law("pentagon coherence")
    triangle = law("triangle coherence")
    sym_inv = law("symm(y,x) o symm(x,y) = id")
    x, y, z = ctx.some_objects(3)
    for f1, g1 in ctx.hom_pairs(x, y, z, 4)[:6]:
        for f2, g2 in ctx.hom_pairs(x, y, z, 3)[:4]:
            lhs = inst.compose(inst.tensor_mor(g1, g2), inst.tensor_mor(f1, f2))
            rhs = inst.tensor_mor(inst.compose(g1, f1), inst.compose(g2, f2))
            functor.record(inst.equal(lhs, rhs))
    for f in ctx.homs(x, y, 4):
        for g in ctx.homs(x, z, 4):
            s_src = inst.symm(x, x)
            s_tgt = inst.symm(y, z)
            lhs = inst.compose(s_tgt, inst.tensor_mor(f, g))
            rhs = inst.compose(inst.tensor_mor(g, f), s_src)
            nat_sym.record(inst.equal(lhs, rhs), f, g)
    for f in ctx.homs(x, y, 3):
        a_src = inst.assoc(x, x, x)
        a_tgt = inst.assoc(y, y, y)
        fff_l = inst.tensor_mor(inst.tensor_mor(f, f), f)
        fff_r = inst.tensor_mor(f, inst.tensor_mor(f, f))
        nat_assoc.record(inst.equal(inst.compose(a_tgt, fff_l), inst.compose(fff_r, a_src)), f)
    for obj in (x, y):
        for cell_fn in (inst.lunit, inst.runit):
            cell = cell_fn(obj)
            unitors.record(core.is_dagger_iso(inst, cell))
        for f in ctx.homs(x, obj, 3):
            lu_src = inst.lunit(x)
            lu_tgt = inst.lunit(obj)
            one = inst.identity(inst.unit_obj())
            lhs = inst.compose(lu_tgt, inst.tensor_mor(one, f))
            rhs = inst.compose(f, lu_src)
            unitors.record(inst.equal(lhs, rhs), f)
    # pentagon on (x, y, x, y) and triangle on (x, y)
    a, b, c, d = x, y, x, y
    top1 = inst.compose(inst.assoc(a, b, inst.tensor_obj(c, d)),
                        inst.assoc(inst.tensor_obj(a, b), c, d))
    ida = inst.identity(a)
    idd = inst.identity(d)
    bot1 = inst.compose(
        inst.tensor_mor(ida, inst.assoc(b, c, d)),
        inst.compose(inst.assoc(a, inst.tensor_obj(b, c), d),
                     inst.tensor_mor(inst.assoc(a, b, c), idd)),
    )
    pentagon.record(inst.equal(top1, bot1))
    lhs = inst.compose(inst.tensor_mor(inst.identity(a), inst.lunit(b)),
                       inst.assoc(a, inst.unit_obj(), b))
    rhs = inst.tensor_mor(inst.runit(a), inst.identity(b))
    triangle.record(inst.equal(lhs, rhs))
    for p, q in ((x, y), (y, z)):
        s = inst.symm(p, q)
        sym_inv.record(
            inst.equal(inst.compose(inst.symm(q, p), s),
                       inst.identity(inst.tensor_obj(p, q)))
        )


@suite("compact", ("rel", "vrel", "qrel"))
def suite_compact(ctx: Context, law) -> None:
    inst = ctx.inst
    snake1 = law("first snake equation")
    snake2 = law("second snake equation")
    dag_eps = law("symm o dagger(epsilon) = eta")
    for x in ctx.some_objects(3):
        idx = inst.identity(x)
        xd = inst.dual_obj(x)
        idxd = inst.identity(xd)
        lhs = core.name_inverse(inst, inst.eta(x), x, x)
        snake1.record(inst.equal(lhs, idx), x)
        lhs2 = inst.compose(inst.tensor_mor(idxd, inst.epsilon(x)),
               inst.compose(inst.assoc(xd, x, xd),
               inst.compose(inst.tensor_mor(inst.eta(x), idxd),
                            inst.dagger(inst.lunit(xd)))))
        lhs2 = inst.compose(inst.runit(xd), lhs2)
        snake2.record(inst.equal(lhs2, idxd), x)
        eps_dag = inst.compose(inst.symm(x, xd), inst.dagger(inst.epsilon(x)))
        dag_eps.record(inst.equal(eps_dag, inst.eta(x)), x)


@suite("compact-calculus", ("rel", "vrel", "qrel"))
def suite_compact_calculus(ctx: Context, law) -> None:
    inst = ctx.inst
    name_rt = law("name then name-inverse is the identity")
    coname_rt = law("coname then coname-inverse is the identity")
    star_inv = law("transpose is involutive")
    star_contra = law("transpose is contravariant")
    trace_cyc = law("trace is cyclic")
    trace_dag = law("trace commutes with dagger")
    x, y, _ = ctx.some_objects(3)
    for f in ctx.homs(x, y, 10):
        n = core.name_of(inst, f)
        name_rt.record(inst.equal(core.name_inverse(inst, n, x, y), f), f)
        k = core.coname_of(inst, f)
        coname_rt.record(inst.equal(core.coname_inverse(inst, k, x, y), f), f)
        star_inv.record(inst.equal(core.star_of(inst, core.star_of(inst, f)), f), f)
    for f, g in ctx.hom_pairs(x, y, x, 5)[:10]:
        sl = core.star_of(inst, inst.compose(g, f))
        sr = inst.compose(core.star_of(inst, f), core.star_of(inst, g))
        star_contra.record(inst.equal(sl, sr), f, g)
        t1 = core.trace_of(inst, inst.compose(g, f))
        t2 = core.trace_of(inst, inst.compose(f, g))
        trace_cyc.record(inst.equal(t1, t2), f, g)
    for r in ctx.homs(x, x, 8):
        t1 = core.trace_of(inst, inst.dagger(r))
        t2 = inst.dagger(core.trace_of(inst, r))
        trace_dag.record(inst.equal(t1, t2), r)


@suite("biproduct", ("rel", "vrel", "qrel"))
def suite_biproduct(ctx: Context, law) -> None:
    inst = ctx.inst
    structural = law("p_k o i_l = delta and sup(i_k o p_k) = id")
    tupling = law("p_k o <f_j> = f_k and i-cotupling dually")
    sup_sum = law("superposition sum equals the join")
    distrib = law("tensor distributes over biproducts")
    x, y, z = ctx.some_objects(3)
    data = calculus.biproduct_data(inst, [x, y])
    for k in range(2):
        for l in range(2):
            comp = inst.compose(data.projections[l], data.injections[k])
            if k == l:
                ok = inst.equal(comp, inst.identity([x, y][k]))
            else:
                ok = inst.equal(comp, inst.bottom([x, y][k], [x, y][l]))
            structural.record(ok, lambda: f"{k},{l}")
    s = inst.sup(
        [inst.compose(i, p) for i, p in zip(data.injections, data.projections)],
        data.total, data.total,
    )
    structural.record(inst.equal(s, inst.identity(data.total)))
    for f in ctx.homs(z, x, 5):
        for g in ctx.homs(z, y, 4):
            t = calculus.tuple_into(inst, data, [f, g])
            ok = (
                inst.equal(inst.compose(data.projections[0], t), f)
                and inst.equal(inst.compose(data.projections[1], t), g)
            )
            tupling.record(ok, f, g)
            ct = calculus.cotuple_from(inst, data, [inst.dagger(f), inst.dagger(g)])
            ok2 = (
                inst.equal(inst.compose(ct, data.injections[0]), inst.dagger(f))
                and inst.equal(inst.compose(ct, data.injections[1]), inst.dagger(g))
            )
            tupling.record(ok2, f, g)
    fs = ctx.homs(x, y, 8)
    for f, g in zip(fs, fs[1:]):
        total = calculus.superposition_sum(inst, f, g)
        sup_sum.record(inst.equal(total, inst.join2(f, g)), f, g)
    d, _, _ = calculus.distributor(inst, x, [y, z])
    distrib.record(core.is_dagger_iso(inst, d))


@suite("maps", ("rel", "vrel", "qrel"))
def suite_maps(ctx: Context, law) -> None:
    inst = ctx.inst
    closed = law("composites of maps are maps", pad=True)
    rigid = law("comparable parallel maps are equal", pad=True)
    ids = law("identities and dagger isos are maps")
    x, y, z = ctx.some_objects(3)
    maps_xy = ctx.maps(x, y, 120)
    maps_yz = ctx.maps(y, z, 120)
    ids.record(core.is_map(inst, inst.identity(x)))
    ids.record(core.is_map(inst, inst.symm(x, y)))
    for f in maps_xy[:8]:
        for g in maps_yz[:8]:
            closed.record(core.is_map(inst, inst.compose(g, f)), f, g)
    for f in maps_xy[:10]:
        for g in maps_xy[:10]:
            if inst.leq(f, g):
                rigid.record(inst.equal(f, g), f, g)
    # Not the pad-if-empty rule: rigid gets this pass beside its real checks
    # whenever maps_yz is empty.
    if not maps_xy or not maps_yz:
        rigid.record(True)


@suite("endorelation-flags", ("rel",))
def suite_endo_flags(ctx: Context, law) -> None:
    inst = ctx.inst
    agree = law("flags agree with the direct relational oracle")
    a = fset("0", "1", "2")
    diagonal = {(u, u) for u in a.labels}
    for r in all_relations(a, a):
        pairs = r.pairs
        square = {(u, w) for u, v in pairs for v2, w in pairs if v == v2}
        converse = {(v, u) for u, v in pairs}
        refl, trans, sym = diagonal <= pairs, square <= pairs, converse == pairs
        idem, anti = square == pairs, pairs & converse <= diagonal
        direct = {
            "reflexive": refl, "transitive": trans, "idempotent": idem,
            "symmetric": sym, "antisymmetric": anti, "irreflexive": not pairs & diagonal,
            "preorder": refl and trans, "order": refl and trans and anti,
            "PER": sym and trans, "equivalence": sym and trans and refl,
            "projection": sym and idem,
        }
        flags = core.endorelation_class(inst, relation_to_matr(inst, r))
        agree.record(flags == {name for name, holds in direct.items() if holds},
                     lambda: repr(sorted(pairs)))


@suite("rel-oracle", ("rel",))
def suite_rel_oracle(ctx: Context, law) -> None:
    inst = ctx.inst
    res = law("matrix ops agree with the direct relation ops")
    a = fset("0", "1")
    b = fset("x", "y", "z")
    after = [(s, relation_to_matr(inst, s)) for s in itertools.islice(all_relations(b, a), 16)]
    beside = [(s, relation_to_matr(inst, s)) for s in itertools.islice(all_relations(a, b), 8)]
    for r in all_relations(a, b):
        mr = relation_to_matr(inst, r)
        assert matr_to_relation(mr) == r
        res.record(matr_to_relation(inst.dagger(mr)) == r.dagger(), r.pairs)
        for s, ms in after:
            res.record(
                matr_to_relation(inst.compose(ms, mr)) == s.compose(r),
                lambda: f"{sorted(r.pairs)};{sorted(s.pairs)}",
            )
        for s, ms in beside:
            res.record(
                matr_to_relation(inst.join2(mr, ms)) == r.join(s)
                and inst.leq(mr, ms) == r.leq(s),
                lambda: f"{sorted(r.pairs)};{sorted(s.pairs)}",
            )
    r0 = BoolRelation(a, b, frozenset([("0", "x"), ("1", "z")]))
    s0 = BoolRelation(b, a, frozenset([("x", "1")]))
    res.record(
        matr_to_relation(inst.tensor_mor(relation_to_matr(inst, r0),
                                         relation_to_matr(inst, s0)))
        == r0.times(s0)
    )


@suite("vrel-oracle", ("vrel",))
def suite_vrel_oracle(ctx: Context, law) -> None:
    inst = ctx.inst
    q = ctx.quantale
    res = law("matrix ops agree with the direct valued-relation ops")
    a = fset("0", "1")
    b = fset("x", "y")
    rels_ab = list(all_vrelations(q, a, b))
    rels_ba = list(all_vrelations(q, b, a))
    # Each sampled relation is quoted once.  The keys are ids, which skips
    # hashing each relation; rels_ab and rels_ba keep every key alive.
    quoted = {}

    def quote(r):
        m = quoted.get(id(r))
        if m is None:
            m = quoted[id(r)] = vrelation_to_matr(inst, r)
        return m

    cap = min(len(rels_ab), 30)
    for r in ctx.rng.sample(rels_ab, cap):
        mr = quote(r)
        assert matr_to_vrelation(inst, mr) == r
        res.record(matr_to_vrelation(inst, inst.dagger(mr)) == r.dagger())
        for s in ctx.rng.sample(rels_ba, min(len(rels_ba), 10)):
            ms = quote(s)
            res.record(
                matr_to_vrelation(inst, inst.compose(ms, mr)) == s.compose(r)
            )
        for s in ctx.rng.sample(rels_ab, 6):
            ms = quote(s)
            res.record(
                matr_to_vrelation(inst, inst.join2(mr, ms)) == r.join(s)
                and inst.leq(mr, ms) == r.leq(s)
            )


@suite("vrel-embedding", ("vrel",))
def suite_vrel_embedding(ctx: Context, law) -> None:
    q = ctx.quantale
    inst = ctx.inst
    functorial = law("unit-valued embedding preserves composition, dagger and identities")
    faithful = law("unit-valued embedding is injective")
    quote_match = law("unit-valued embedding agrees with quoting into the matrix instance")
    a = fset("0", "1")
    b = fset("x", "y")
    seen = set()
    after = [(s, circ_embed(q, s)) for s in itertools.islice(all_relations(b, a), 8)]
    for r in all_relations(a, b):
        er = circ_embed(q, r)
        seen.add(er)
        for s, es in after:
            functorial.record(es.compose(er) == circ_embed(q, s.compose(r)))
        functorial.record(er.dagger() == circ_embed(q, r.dagger()))
        quote_match.record(
            vrelation_to_matr(inst, er) == relation_to_matr(inst, r)
        )
    functorial.record(
        circ_embed(q, BoolRelation(a, a, frozenset((x, x) for x in a)))
        == VRelation(q, a, a, {(x, x): q.unit for x in a})
    )
    faithful.record(len(seen) == 2 ** (len(a) * len(b)))


@suite("vrel-facts", ("vrel",))
def suite_vrel_facts(ctx: Context, law) -> None:
    q = ctx.quantale
    inst = ctx.inst
    affine = law("the instance is affine exactly when the quantale is")
    nondeg = law("the instance is nondegenerate exactly when the quantale is nontrivial")
    modular = law("an affine non-frame quantale breaks the modular law")
    affine.record(core.is_affine(inst) == q.is_affine())
    nondeg.record(core.is_nondegenerate(inst) == q.is_nontrivial())
    lk = lukasiewicz3_quantale()
    w = allegory_witness(lk)
    modular.record(w is not None, "no witness in the Lukasiewicz 3-chain")
    if w is not None:
        v, r = w
        modular.record(not lk.leq(v, lk.mul(v, lk.mul(v, v))), repr(v))
    frame = chain_min_quantale(3)
    modular.record(allegory_witness(frame) is None, "frame produced a witness")


@suite("quote", ("rel", "vrel", "qrel"))
def suite_quote(ctx: Context, law) -> None:
    inst = ctx.inst
    functorial = law("quoting preserves composition, identities, dagger and sups")
    faithful = law("quoting is injective")
    full = law("quoting is full exactly when there are two scalars")
    coherence = law("the product coherence cell is a dagger iso matching products")
    a = fset("0", "1")
    b = fset("x", "y")
    seen = set()
    rels = list(all_relations(a, b))
    after = [(s, relation_to_matr(inst, s)) for s in itertools.islice(all_relations(b, a), 6)]
    for r in rels:
        qr = relation_to_matr(inst, r)
        seen.add(qr)
        for s, qs in after:
            functorial.record(
                inst.equal(inst.compose(qs, qr),
                           relation_to_matr(inst, s.compose(r)))
            )
        functorial.record(
            inst.equal(inst.dagger(qr), relation_to_matr(inst, r.dagger()))
        )
    ida = BoolRelation(a, a, frozenset((x, x) for x in a))
    functorial.record(
        inst.equal(relation_to_matr(inst, ida),
                   inst.identity(set_to_object(inst, a)))
    )
    for r, s in zip(rels, rels[1:]):
        functorial.record(
            inst.equal(
                inst.join2(relation_to_matr(inst, r),
                           relation_to_matr(inst, s)),
                relation_to_matr(inst, r.join(s)),
            )
        )
    faithful.record(len(seen) == len(rels))
    # seen is the quoted image of the homset a -> b
    expecting_full = calculus.quote_is_full(inst)
    is_full = set(inst.enum_hom(set_to_object(inst, a), set_to_object(inst, b))) == seen
    full.record(is_full == expecting_full)
    if expecting_full:
        full.record(is_full, "quoted image differs from the full homset")
    phi = calculus.quote_product_cell(inst, a, b)
    coherence.record(core.is_dagger_iso(inst, phi))
    r0 = BoolRelation(a, a, frozenset([("0", "1")]))
    s0 = BoolRelation(b, b, frozenset([("x", "x"), ("y", "x")]))
    lhs = inst.compose(relation_to_matr(inst, r0.times(s0)), phi)
    rhs = inst.compose(
        phi,
        inst.tensor_mor(relation_to_matr(inst, r0),
                        relation_to_matr(inst, s0)),
    )
    coherence.record(inst.equal(lhs, rhs), "naturality square")


@suite("qrel-kernel", ("qrel",))
def suite_qrel_kernel(ctx: Context, law) -> None:
    inst = ctx.inst
    monic = law("the kernel inclusion is a dagger mono", pad=True)
    kills = law("composing a morphism with its kernel gives bottom")
    maximal = law("any morphism killed by the set factors through the kernel", pad=True)
    x, y = ctx.some_objects(3)[1:]
    for f in ctx.homs(x, y, 25):
        k, e = qrel.dagger_kernel(inst, [f])
        if k.components:
            monic.record(core.is_dagger_mono(inst, e), f)
            kills.record(inst.equal(inst.compose(f, e), inst.bottom(k, y)), f)
        proj = inst.compose(e, inst.dagger(e)) if k.components else inst.bottom(x, x)
        for g in ctx.homs(y, x, 6):
            if inst.composite_leq(f, g, inst.bottom(y, y)):
                maximal.record(inst.equal(inst.compose(proj, g), g), f, g)


@suite("qrel-zero-mono", ("qrel",))
def suite_qrel_zero_mono(ctx: Context, law) -> None:
    inst = ctx.inst
    char = law("zero-mono exactly when no nonzero morphism is killed")
    per_law = law("zero-monic symmetric idempotents contain the identity")
    x, y = ctx.some_objects(3)[1:]
    for f in ctx.homs(x, y, 30):
        zm = qrel.is_zero_mono(f)
        found = False
        for g in ctx.homs(y, x, 10):
            if not inst.equal(g, inst.bottom(y, x)) and inst.composite_leq(
                f, g, inst.bottom(y, y)
            ):
                found = True
                break
        if zm:
            char.record(not found, f)
        else:
            k, e = qrel.dagger_kernel(inst, [f])
            char.record(bool(k.components), f)
    for r in ctx.homs(x, x, 60):
        if core.is_per(inst, r) and qrel.is_zero_mono(r):
            per_law.record(inst.leq(inst.identity(x), r), r)
    # the identity itself is the canonical example
    per_law.record(inst.leq(inst.identity(x), inst.identity(x)))


@suite("qrel-neg", ("qrel",))
def suite_qrel_neg(ctx: Context, law) -> None:
    inst = ctx.inst
    invol = law("double orthocomplement is the identity")
    antitone = law("orthocomplement reverses the order")
    demorgan = law("orthocomplement swaps join and meet")
    orthomod = law("orthomodular law: r <= s gives s = r v (s ^ neg r)")
    perp_routes = law("trace orthogonality agrees with blockwise orthogonality")
    x, y = ctx.some_objects(3)[1:]
    fs = ctx.homs(x, y, 25)
    for f in fs:
        invol.record(inst.equal(qrel.orthocomplement(inst, qrel.orthocomplement(inst, f)), f), f)
    for f, g in zip(fs, fs[1:]):
        j = inst.join2(f, g)
        antitone.record(inst.leq(qrel.orthocomplement(inst, j), qrel.orthocomplement(inst, f)))
        demorgan.record(
            inst.equal(
                qrel.orthocomplement(inst, j),
                inst.meet2(qrel.orthocomplement(inst, f), qrel.orthocomplement(inst, g)),
            ),
            f, g,
        )
        r, s = inst.meet2(f, g), j
        rec = inst.join2(r, inst.meet2(s, qrel.orthocomplement(inst, r)))
        orthomod.record(inst.equal(rec, s), r, s)
        perp_routes.record(qrel.is_perp_blockwise(f, g) == core.is_perp(inst, f, g), f, g)


@suite("qrel-classical", ("qrel",))
def suite_qrel_classical(ctx: Context, law) -> None:
    inst = ctx.inst
    bij = law("maps into I (+) I correspond to effects")
    mapness = law("both correspondence directions produce maps/effects")
    om = calculus.omega_data(inst)
    unit = inst.unit_obj()
    x = ctx.some_objects(2)[1]
    for r in ctx.homs(x, unit, 20):
        f = orders.downset_to_monotone_map(inst, om, r, lambda r: qrel.orthocomplement(inst, r))
        mapness.record(core.is_map(inst, f), r)
        bij.record(inst.equal(orders.monotone_map_to_downset(inst, om, f), r), r)
    fixture, _ = qrel.invertible_not_dagger_iso(inst)
    mapness.record(not core.is_dagger_iso(inst, fixture))


@suite("qrel-fixtures", ("qrel",))
def suite_qrel_fixtures(ctx: Context, law) -> None:
    inst = ctx.inst
    fix = law("an invertible quantum relation need not be a dagger iso")
    dims = law("categorical dimension counts the squared atom dimensions")
    v, w = qrel.invertible_not_dagger_iso(inst)
    x = v.source
    fix.record(inst.equal(inst.compose(v, w), inst.identity(x)))
    fix.record(inst.equal(inst.compose(w, v), inst.identity(x)))
    fix.record(not inst.equal(inst.dagger(v), w))
    fix.record(not core.is_dagger_iso(inst, v))
    for obj in ctx.some_objects(3):
        d = core.dimension_of(inst, obj)
        unit = inst.unit_obj()
        dims.record(inst.equal(d, inst.top(unit, unit)), obj)


@suite("orders", ("rel", "vrel", "qrel"))
def suite_orders(ctx: Context, law) -> None:
    inst = ctx.inst
    evals = law("the four truth-value projection identities")
    mono_eq = law("the three monotonicity conditions agree on maps")
    adjoint = law("lower and upper companions are adjoint monotone relations", pad=True)
    monrel = law("the converse order is the monotone-relation identity")
    om = orders.omega_order(inst)
    for text, ok in orders.omega_eval_identities(inst, om):
        evals.record(ok, text)
    x = ctx.some_objects(2)[1]
    preorders = ctx.preorders(x, 120, 4)
    maps_xx = [inst.identity(x), *ctx.maps(x, x, 80)]
    for p in preorders:
        for q in preorders:
            for f in maps_xx[:6]:
                c1, c2, c3 = orders.monotone_map_conditions(inst, p, q, f)
                mono_eq.record(c1 == c2 == c3, p.order, q.order, f)
                if c1:
                    adjoint.record(orders.diamond_adjunction_check(inst, p, q, f), p.order, f)
        idm = orders.monrel_identity(inst, p)
        for v in ctx.homs(x, x, 10):
            s = orders.monotone_saturate(inst, p, p, v)
            monrel.record(
                inst.equal(inst.compose(idm, s), s)
                and inst.equal(inst.compose(s, idm), s),
                v,
            )


@suite("orders-structure", ("rel", "vrel", "qrel"))
def suite_orders_structure(ctx: Context, law) -> None:
    inst = ctx.inst
    tensor_law = law("tensors of preorders are preorders")
    bi_law = law("monotone-relation biproduct structural laws")
    compact_law = law("monotone-relation compact snake")
    x = ctx.some_objects(2)[1]
    preorders = ctx.preorders(x, 120, 3)
    for p in preorders:
        for q in preorders[:2]:
            t = orders.preorder_tensor(inst, p, q)
            tensor_law.record(core.is_preorder(inst, t.order))
            bi = orders.monrel_biproduct(inst, [p, q])
            ids = [orders.monrel_identity(inst, o) for o in (p, q)]
            ok = all(
                inst.equal(inst.compose(pr, i), ids[k])
                for k, (i, pr) in enumerate(zip(bi.injections, bi.projections))
            )
            s = inst.sup(
                [inst.compose(i, pr) for i, pr in zip(bi.injections, bi.projections)],
                bi.ordered.obj, bi.ordered.obj,
            )
            ok = ok and inst.equal(s, orders.monrel_identity(inst, bi.ordered))
            bi_law.record(ok, p.order, q.order)
        mc = orders.monrel_compact(inst, p)
        obj = p.obj
        ge = orders.converse(inst, p)
        lhs = inst.compose(inst.tensor_mor(mc.epsilon, ge),
              inst.compose(inst.dagger(inst.assoc(obj, inst.dual_obj(obj), obj)),
              inst.compose(inst.tensor_mor(ge, mc.eta),
                           inst.dagger(inst.runit(obj)))))
        lhs = inst.compose(inst.lunit(obj), lhs)
        compact_law.record(inst.equal(lhs, ge), p.order)


@suite("downsets", ("rel",))
def suite_downsets(ctx: Context, law) -> None:
    inst = ctx.inst
    bij = law("monotone maps into the ordered truth values are the downsets")
    oracle = law("the count matches the direct downset construction")
    a = fset("0", "1", "2")
    x = set_to_object(inst, a)
    chain = relation_to_matr(
        inst, BoolRelation(a, a, frozenset((s, t) for s in a for t in a if s <= t))
    )
    p = orders.preordered(inst, x, chain)
    om = orders.omega_order(inst)
    downsets = []
    for r in inst.enum_hom(x, inst.unit_obj()):
        if orders.is_downset_relation(inst, p, r):
            downsets.append(r)
            f = orders.downset_to_monotone_map(
                inst, om.data, r, lambda r: boolean_complement(inst, r)
            )
            ok = (
                core.is_map(inst, f)
                and orders.is_monotone_map(inst, p, om.ordered, f)
                and inst.equal(orders.monotone_map_to_downset(inst, om.data, f), r)
            )
            bij.record(ok, r)
    data = downset_adjoint(a, matr_to_relation(chain))
    oracle.record(
        len(downsets) == len(data.downsets),
        lambda: f"{len(downsets)} vs {len(data.downsets)}",
    )


@suite("power", ("rel",))
def suite_power(ctx: Context, law) -> None:
    inst = ctx.inst
    adj = law("the powerset adjunction, with uniqueness")
    funct = law("the power construction is functorial on relations")
    quoted = law("the adjunction survives quoting into the matrix instance")
    expo = law("exponentials reconstructed from the power object, with currying")
    a = fset("a", "b")
    xset = fset("x", "y")
    data = powerset_adjoint(xset)
    data_a = powerset_adjoint(a)
    for v in all_relations(a, xset):
        adj.record(power.power_counit_check(data, v), lambda: repr(sorted(v.pairs)))
        adj.record(power.power_uniqueness_check(data, v), lambda: repr(sorted(v.pairs)))
        funct.record(power.power_functor_check(data_a, data, v), lambda: repr(sorted(v.pairs)))
    qp = power.quoted_power(inst, xset)
    for v in itertools.islice(all_relations(a, xset), 10):
        quoted.record(power.quoted_power_check(inst, qp, v), lambda: repr(sorted(v.pairs)))
    yset = fset(0, 1)
    z = fset("z",)
    ed = exponential_via_power(xset, yset)
    for f in all_functions(product_set(z, xset), yset):
        g = curry(ed, f)
        ok = g.is_function()
        for zz in z:
            gz = g.apply(zz)
            for xx in xset:
                ok = ok and ed.evaluation.apply((gz, xx)) == f.apply((zz, xx))
        expo.record(ok, lambda: repr(sorted(f.pairs)))


@suite("v-power", ("vrel",))
def suite_v_power(ctx: Context, law) -> None:
    q = ctx.quantale
    adj = law("valued relations factor through the valued predicates")
    omega_law = law("the truth-value effect evaluates predicates pointwise")
    a = fset("a",)
    xset = fset("x", "y")
    data = v_power_adjoint(q, xset)
    rels = list(all_vrelations(q, a, xset))
    cap = min(len(rels), 80)
    for v in ctx.rng.sample(rels, cap):
        adj.record(power.v_power_counit_check(data, v))
    for g in data.power.labels:
        for x in xset:
            omega_law.record(data.counit.at(g, x) == dict(g)[x])


@suite("scalars", ("rel", "vrel", "qrel"))
def suite_scalars(ctx: Context, law) -> None:
    inst = ctx.inst
    act = law("scalar action is unital and multiplicative")
    flags = law("nondegeneracy and affineness come out as expected")
    unit = inst.unit_obj()
    one = inst.identity(unit)
    x, y = ctx.some_objects(2)
    scalars = inst.scalars()
    for s in scalars[:4]:
        for t in scalars[:4]:
            for f in ctx.homs(x, y, 3):
                lhs = core.scalar_mul(inst, s, core.scalar_mul(inst, t, f))
                rhs = core.scalar_mul(inst, inst.compose(s, t), f)
                act.record(inst.equal(lhs, rhs))
    for f in ctx.homs(x, y, 4):
        act.record(inst.equal(core.scalar_mul(inst, one, f), f), f)
    flags.record(core.is_nondegenerate(inst))
    # qrel has no context quantale; its unit scalar is the top one
    flags.record(core.is_affine(inst) == (ctx.quantale is None or ctx.quantale.is_affine()))


@suite("classical-maps", ("rel", "qrel"))
def suite_classical_maps(ctx: Context, law) -> None:
    inst = ctx.inst
    crit = law("maps onto a quoted set are the orthogonal total tuples")
    a = fset("p", "q")
    data = calculus.biproduct_data(inst, [
        set_to_object(inst, fset(lab)) for lab in a.labels
    ])
    x = ctx.some_objects(2)[1]
    for f in ctx.homs(x, data.total, 60):
        lhs = core.is_map(inst, f)
        rhs = calculus.is_map_onto_quoted_set(inst, f, data)
        crit.record(lhs == rhs, f)


# -- runner ---------------------------------------------------------------------

def available_suites(kind: str) -> list[str]:
    return [name for name, (_, kinds) in SUITES.items() if kind in kinds]


def _applicable(name: str, kind: str):
    """The body of suite `name`, refused unless it exists and applies to `kind`."""
    if name not in SUITES:
        raise QlabError(f"unknown suite {name!r}")
    fn, kinds = SUITES[name]
    if kind not in kinds:
        raise QlabError(f"suite {name!r} does not apply to instance {kind!r}")
    return fn


def run_suite(name: str, kind: str, seed: int = 0,
              quantale: FiniteQuantale | None = None) -> SuiteReport:
    fn = _applicable(name, kind)
    ctx = make_context(kind, seed, quantale)
    ctx.rng = random.Random(f"{seed}:{kind}:{name}")
    return SuiteReport(name, fn(ctx))


def run_all(kind: str, seed: int = 0, quantale: FiniteQuantale | None = None,
            suites: list[str] | None = None) -> list[SuiteReport]:
    """Every named suite (default: all that apply to `kind`), each refused
    before any runs unless it applies.  A suite that raises a `QlabError` has
    met a structure that breaks a law it builds on (an order that is not a
    preorder, say); it is reported with one failed law, "the suite runs to the
    end", whose witness is "<error type>: <message>"."""
    names = suites or available_suites(kind)
    for n in names:
        _applicable(n, kind)
    reports = []
    for n in names:
        try:
            reports.append(run_suite(n, kind, seed, quantale))
        except QlabError as exc:
            aborted = LawResult(n, "the suite runs to the end")
            aborted.record(False, f"{type(exc).__name__}: {exc}")
            reports.append(SuiteReport(n, [aborted]))
    return reports


def render_text(reports: list[SuiteReport]) -> str:
    lines = []
    for rep in reports:
        mark = "PASS" if rep.ok else "FAIL"
        lines.append(f"[{mark}] suite {rep.name}")
        for r in rep.results:
            mark = "pass" if r.ok else "FAIL"
            lines.append(f"    [{mark}] {r.law} ({r.checked} checks)")
            for w in r.failures:
                lines.append(f"        counterexample: {w}")
    total = sum(len(rep.results) for rep in reports)
    bad = sum(1 for rep in reports for r in rep.results if not r.ok)
    lines.append(f"{total - bad}/{total} laws hold")
    return "\n".join(lines)


def render_json(reports: list[SuiteReport]) -> dict:
    return {
        "ok": all(rep.ok for rep in reports),
        "suites": [rep.as_dict() for rep in reports],
    }
