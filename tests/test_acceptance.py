"""The acceptance gate: twelve criteria, one test (and one pass/fail line) each.

Run with `pytest tests/test_acceptance.py -v`.  Every check uses exact
arithmetic; nothing is compared up to tolerance.
"""

import itertools
import random
import time
from fractions import Fraction

from qlab import core
from qlab.calculus import (
    biproduct_data,
    is_map_onto_quoted_set,
    omega_data,
    quote_is_full,
    quote_product_cell,
)
from qlab.core import is_dagger_iso, is_map, name_inverse, name_of, trace_of
from qlab.exact import ExactMatrix, GaussianRational, span_of
from qlab.finrel import (
    BoolRelation,
    all_functions,
    all_relations,
    curry,
    downset_adjoint,
    exponential_via_power,
    fset,
    is_per as finrel_is_per,
    is_zero_mono as finrel_is_zero_mono,
    matr_to_relation,
    power_counit_check,
    power_functor_check,
    power_uniqueness_check,
    powerset_adjoint,
    product_set,
    relation_to_matr,
)
from qlab.lawcheck import run_all
from qlab.matr import (
    qrel_instance,
    rel_instance,
    set_to_object,
    vrel_instance,
)
from qlab.orders import (
    diamond_adjunction_check,
    downset_to_monotone_map,
    is_downset_relation,
    is_monotone_map,
    monotone_map_to_downset,
    monrel_biproduct,
    monrel_compact,
    monrel_identity,
    omega_eval_identities,
    omega_order,
    preordered,
)
from qlab.qrel import (
    dagger_kernel,
    invertible_not_dagger_iso,
    is_perp_blockwise,
    is_zero_mono,
    orthocomplement,
    qmor,
    qset,
)
from qlab.quantale import (
    BUILTIN_QUANTALES,
    all_vrelations,
    allegory_witness,
    lukasiewicz3_quantale,
    v_power_adjoint,
    v_power_counit_check,
)

AXIOM_SUITES = ["composition", "order", "dagger", "monoidal", "compact", "biproduct"]

REL = rel_instance()
QREL = qrel_instance()

X1 = qset([("x", 1)])
X2 = qset([("x", 2)])
X21 = qset([("x", 2), ("y", 1)])


def _random_block(rng, dc, dr):
    k = rng.randrange(0, 3)
    mats = []
    for _ in range(k):
        rows = [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(dc)] for _ in range(dr)]
        if any(any(row) for row in rows):
            mats.append(ExactMatrix.from_ints(rows))
    if not mats:
        return None
    return span_of(*mats)


def _random_qmor(rng, src, tgt):
    blocks = {}
    for a, da in src.components:
        for b, db in tgt.components:
            v = _random_block(rng, da, db)
            if v is not None:
                blocks[(a, b)] = v
    return QREL.mor(src, tgt, blocks)


def test_criterion_01_axiom_suites_exhaustive_and_sampled():
    instances = (
        ("rel", None),
        ("vrel:bool", BUILTIN_QUANTALES["bool"]),
        ("vrel:chain3", BUILTIN_QUANTALES["chain3"]),
        ("vrel:chain4", BUILTIN_QUANTALES["chain4"]),
        ("vrel:lukasiewicz3", BUILTIN_QUANTALES["lukasiewicz3"]),
        ("qrel", None),
    )
    for tag, q in instances:
        kind = tag.split(":")[0]
        t0 = time.monotonic()
        reports = run_all(kind, seed=0, quantale=q, suites=AXIOM_SUITES)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, (tag, elapsed)
        assert all(rep.ok for rep in reports), (
            tag, [rep.name for rep in reports if not rep.ok]
        )


def test_criterion_02_compact_structure_and_calculus():
    for kind, q in (("vrel", lukasiewicz3_quantale()), ("qrel", None)):
        reports = run_all(kind, seed=0, quantale=q, suites=["compact", "compact-calculus"])
        assert all(rep.ok for rep in reports), kind
    rng = random.Random(2)
    count = 0
    while count < 100:
        f = _random_qmor(rng, X21, X2)
        if not f.blocks:
            continue
        count += 1
        named = name_of(QREL, f)
        back = name_inverse(QREL, named, X21, X2)
        assert QREL.equal(back, f)


def test_criterion_03_orthomodular_complement():
    rng = random.Random(3)
    shapes = [(X2, X2), (X21, X2), (X2, X21), (X1, X2)]
    unit = QREL.unit_obj()
    for src, tgt in shapes:
        for _ in range(200):
            r = _random_qmor(rng, src, tgt)
            s = _random_qmor(rng, src, tgt)
            nr = orthocomplement(QREL, r)
            assert QREL.equal(orthocomplement(QREL, nr), r)
            assert QREL.equal(QREL.meet2(r, nr), QREL.bottom(src, tgt))
            assert QREL.equal(QREL.join2(r, nr), QREL.top(src, tgt))
            if QREL.leq(r, s):
                assert QREL.leq(orthocomplement(QREL, s), nr)
                assert QREL.equal(s, QREL.join2(r, QREL.meet2(s, nr)))
            else:
                rs = QREL.join2(r, s)
                assert QREL.equal(rs, QREL.join2(r, QREL.meet2(rs, nr)))
            via_trace = QREL.equal(
                trace_of(QREL, QREL.compose(QREL.dagger(s), r)),
                QREL.bottom(unit, unit),
            )
            assert via_trace == is_perp_blockwise(r, s)


def test_criterion_04_invertible_but_not_dagger_iso():
    t0 = time.monotonic()
    v, w = invertible_not_dagger_iso(QREL)
    x = v.source
    assert QREL.equal(QREL.compose(w, v), QREL.identity(x))
    assert QREL.equal(QREL.compose(v, w), QREL.identity(x))
    assert not is_dagger_iso(QREL, v)
    assert not is_map(QREL, v)
    assert time.monotonic() - t0 < 1.0


def test_criterion_05_dagger_kernels():
    rng = random.Random(5)
    for _ in range(100):
        r = _random_qmor(rng, X21, X2)
        ker, e = dagger_kernel(QREL, [r])
        assert core.is_dagger_mono(QREL, e)
        assert QREL.equal(QREL.compose(r, e), QREL.bottom(ker, X2))
    one = qset([("u", 1)])
    for _ in range(20):
        r = _random_qmor(rng, X2, one)
        ker, e = dagger_kernel(QREL, [r])
        s = QREL.compose(e, _random_qmor(rng, X21, ker))
        assert QREL.equal(QREL.compose(r, s), QREL.bottom(X21, one))
        t = QREL.compose(QREL.dagger(e), s)
        assert QREL.equal(QREL.compose(e, t), s)
    # mutation check: a corrupted inclusion must break the kernel law
    eff = qmor(X2, one, {("x", "u"): span_of(ExactMatrix.from_ints([[1, 0]]))})
    ker, e = dagger_kernel(QREL, [eff])
    bad = QREL.mor(ker, X2, {
        (ker.components[0][0], "x"): span_of(ExactMatrix.from_ints([[1], [0]]))
    })
    assert QREL.equal(QREL.compose(eff, e), QREL.bottom(ker, one))
    assert not QREL.equal(QREL.compose(eff, bad), QREL.bottom(ker, one))


def test_criterion_06_zero_monomorphisms():
    unit = QREL.unit_obj()
    top_effect = QREL.top(X2, unit)
    i = GaussianRational(Fraction(0), Fraction(1))
    family = [ExactMatrix.from_ints([[1, 0]]), ExactMatrix.from_ints([[0, 1]]),
              ExactMatrix.from_ints([[1, 1]]), ExactMatrix.from_ints([[1, i]])]
    for k in range(1, len(family) + 1):
        for rows in itertools.combinations(family, k):
            r = QREL.mor(X2, unit, {("x", "*"): span_of(*rows)})
            assert is_zero_mono(r) == QREL.equal(r, top_effect)
    rng = random.Random(6)
    for _ in range(200):
        v = _random_block(rng, 2, 1)
        if v is None:
            continue
        r = QREL.mor(X2, unit, {("x", "*"): v})
        assert is_zero_mono(r) == QREL.equal(r, top_effect)
    # zero-monic partial equivalence relations contain the identity
    pers = 0
    idm = QREL.identity(X2)
    while pers < 500:
        t = _random_qmor(rng, X2, X2)
        t = QREL.join2(t, QREL.dagger(t))
        for _ in range(6):
            grown = QREL.join2(t, QREL.compose(t, t))
            if QREL.equal(grown, t):
                break
            t = grown
        if not QREL.equal(QREL.compose(t, t), t):
            continue
        pers += 1
        if is_zero_mono(t):
            assert QREL.leq(idm, t)
    # the boolean analogue, exhaustively on sets of size three and below
    for n in (1, 2, 3):
        xs = fset(*[str(k) for k in range(n)])
        one = fset("*")
        for r in all_relations(xs, one):
            assert finrel_is_zero_mono(r) == (len(r.pairs) == n)
        for r in all_relations(xs, xs):
            if finrel_is_per(r) and finrel_is_zero_mono(r):
                assert all((x, x) in r.pairs for x in xs)


def test_criterion_07_maps_onto_quoted_sets():
    rng = random.Random(7)
    for labels in (["p"], ["p", "q"], ["p", "q", "r"]):
        a = fset(*labels)
        data = biproduct_data(QREL, [set_to_object(QREL, fset(lab)) for lab in labels])
        for _ in range(200):
            f = _random_qmor(rng, X21, data.total)
            assert is_map(QREL, f) == is_map_onto_quoted_set(QREL, f, data)


def test_criterion_08_quote_embedding():
    sets = [fset(*[str(k) for k in range(n)]) for n in (1, 2, 3)]
    for a in sets:
        for r in all_relations(a, a):
            m = relation_to_matr(QREL, r)
            assert matr_to_relation(m) == r
            assert QREL.equal(relation_to_matr(QREL, r.dagger()), QREL.dagger(m))
    small = sets[1]
    for r in all_relations(small, small):
        mr = relation_to_matr(QREL, r)
        for s in all_relations(small, small):
            ms = relation_to_matr(QREL, s)
            assert QREL.equal(
                relation_to_matr(QREL, s.compose(r)), QREL.compose(ms, mr)
            )
            assert QREL.equal(relation_to_matr(QREL, r.join(s)), QREL.join2(mr, ms))
    qa = set_to_object(QREL, sets[2])
    assert QREL.equal(
        relation_to_matr(QREL, BoolRelation(
            sets[2], sets[2], frozenset(itertools.product(sets[2].labels, repeat=2))
        )),
        QREL.top(qa, qa),
    )
    total, injections, _ = QREL.biproduct([set_to_object(QREL, fset(lab)) for lab in sets[2]])
    assert sorted(lab for lab, _ in total.components) == sorted(
        (k, lab) for k, lab in enumerate(sets[2].labels)
    )
    # fullness: every morphism between quoted sets is a quoted relation
    assert quote_is_full(QREL)
    for f in QREL.enum_hom(set_to_object(QREL, small), set_to_object(QREL, small)):
        assert QREL.equal(relation_to_matr(QREL, matr_to_relation(f)), f)
    # the product comparison cell is a natural dagger isomorphism
    b = sets[1]
    c = sets[2]
    phi = quote_product_cell(QREL, b, c)
    assert is_dagger_iso(QREL, phi)
    r = BoolRelation(b, b, frozenset([("0", "1"), ("1", "1")]))
    s = BoolRelation(c, c, frozenset([("0", "2")]))
    rs = BoolRelation(
        product_set(b, c), product_set(b, c),
        frozenset(((x, y), (u, v)) for x, u in r.pairs for y, v in s.pairs),
    )
    lhs = QREL.compose(relation_to_matr(QREL, rs), phi)
    rhs = QREL.compose(
        phi, QREL.tensor_mor(relation_to_matr(QREL, r), relation_to_matr(QREL, s))
    )
    assert QREL.equal(lhs, rhs)


def test_criterion_09_power_objects():
    for na, nx in itertools.product((1, 2, 3), repeat=2):
        a = fset(*[f"a{k}" for k in range(na)])
        x = fset(*[f"x{k}" for k in range(nx)])
        data = powerset_adjoint(x)
        assert len(data.power) == 2 ** nx
        rels = list(all_relations(a, x))
        assert len(rels) == 2 ** (na * nx)
        data_a = powerset_adjoint(a)
        for v in rels:
            assert power_counit_check(data, v)
            assert power_functor_check(data_a, data, v)
            if na * nx <= 6:
                assert power_uniqueness_check(data, v)
    for qname in ("bool", "chain3", "lukasiewicz3"):
        q = BUILTIN_QUANTALES[qname]
        for na, nx in itertools.product((1, 2), repeat=2):
            a = fset(*[f"a{k}" for k in range(na)])
            x = fset(*[f"x{k}" for k in range(nx)])
            data = v_power_adjoint(q, x)
            assert len(data.power) == len(q.elements) ** nx
            vrels = list(all_vrelations(q, a, x))
            assert len(vrels) == len(q.elements) ** (na * nx)
            for v in vrels:
                assert v_power_counit_check(data, v)
    rng = random.Random(9)
    om = omega_data(QREL)
    count = 0
    while count < 100:
        blocks = {}
        for atom, da in X21.components:
            v = _random_block(rng, da, 1)
            if v is not None:
                blocks[(atom, "*")] = v
        r = QREL.mor(X21, QREL.unit_obj(), blocks)
        count += 1
        f = downset_to_monotone_map(QREL, om, r, lambda r: orthocomplement(QREL, r))
        assert is_map(QREL, f)
        assert QREL.equal(monotone_map_to_downset(QREL, om, f), r)


def test_criterion_10_exponentials():
    for nx, ny in itertools.product((1, 2, 3), repeat=2):
        x = fset(*[f"x{k}" for k in range(nx)])
        y = fset(*[f"y{k}" for k in range(ny)])
        ed = exponential_via_power(x, y)
        assert len(ed.exponential) == ny ** nx
        for f in all_functions(x, y):
            cf = curry(ed, BoolRelation(
                product_set(fset("*"), x), y,
                frozenset((("*", a), b) for a, b in f.pairs),
            ))
            lam = cf.apply("*")
            for a in x:
                assert ed.evaluation.apply((lam, a)) == f.apply(a)


def test_criterion_11_ordered_structure():
    for inst in (REL, QREL):
        om = omega_order(inst)
        for law, ok in omega_eval_identities(inst, om):
            assert ok, (law, inst)
    xs = fset("0", "1", "2")
    x = set_to_object(REL, xs)
    preorders = []
    for r in all_relations(xs, xs):
        m = relation_to_matr(REL, r)
        if "preorder" in core.endorelation_class(REL, m):
            preorders.append(preordered(REL, x, m))
    rng = random.Random(11)
    funcs = [relation_to_matr(REL, f) for f in all_functions(xs, xs)]
    checked = 0
    while checked < 100:
        p = rng.choice(preorders)
        q = rng.choice(preorders)
        f = rng.choice(funcs)
        if not is_monotone_map(REL, p, q, f):
            continue
        checked += 1
        assert diamond_adjunction_check(REL, p, q, f)
    p, q = preorders[0], preorders[-1]
    bp = monrel_biproduct(REL, [p, q])
    ids = [monrel_identity(REL, o) for o in (p, q)]
    for k in range(2):
        assert REL.equal(REL.compose(bp.projections[k], bp.injections[k]), ids[k])
    assert REL.equal(
        REL.sup([REL.compose(i, pr) for i, pr in zip(bp.injections, bp.projections)],
                bp.ordered.obj, bp.ordered.obj),
        monrel_identity(REL, bp.ordered),
    )
    mc = monrel_compact(REL, p)
    ge = monrel_identity(REL, p)
    snake = REL.compose(
        REL.tensor_mor(mc.epsilon, ge),
        REL.compose(
            REL.dagger(REL.assoc(x, REL.dual_obj(x), x)),
            REL.compose(REL.tensor_mor(ge, mc.eta), REL.dagger(REL.runit(x))),
        ),
    )
    snake = REL.compose(REL.lunit(x), snake)
    assert REL.equal(snake, ge)
    # downset counts agree with the direct construction for every poset on <= 3 points
    om = omega_order(REL)
    unit = REL.unit_obj()

    def complement(r):
        top = REL.top(REL.source(r), unit)
        keys = set(k for k, _ in top.blocks) - set(k for k, _ in r.blocks)
        return REL.mor(REL.source(r), unit, {k: REL.base.quantale.unit for k in keys})

    for n in (1, 2, 3):
        ys = fset(*[str(k) for k in range(n)])
        y = set_to_object(REL, ys)
        for r in all_relations(ys, ys):
            m = relation_to_matr(REL, r)
            flags = core.endorelation_class(REL, m)
            if not {"preorder", "antisymmetric"} <= flags:
                continue
            p = preordered(REL, y, m)
            count = 0
            for v in REL.enum_hom(y, unit):
                if not is_downset_relation(REL, p, v):
                    continue
                count += 1
                f = downset_to_monotone_map(REL, om.data, v, complement)
                assert is_monotone_map(REL, p, om.ordered, f)
                assert REL.equal(monotone_map_to_downset(REL, om.data, f), v)
            assert count == len(downset_adjoint(ys, r).downsets)


def test_criterion_12_allegory_modularity_witness():
    got = allegory_witness(BUILTIN_QUANTALES["lukasiewicz3"])
    assert got is not None
    v, r = got
    q = BUILTIN_QUANTALES["lukasiewicz3"]
    assert not q.leq(v, q.mul(v, q.mul(v, v)))
    assert not r.leq(r.compose(r.dagger().compose(r)))
    for name in ("bool", "chain3", "chain4"):
        assert allegory_witness(BUILTIN_QUANTALES[name]) is None
