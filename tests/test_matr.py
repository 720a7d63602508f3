"""The matrix-completion kernel shared by the boolean, valued, and quantum instances."""

import ast
import dataclasses
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab.exact import (
    Q0,
    Q1,
    ExactMatrix,
    full_subspace,
    parse_scalar,
    span_of,
    span_of_rows,
    subspace_adjoint,
    subspace_product,
)
from qlab.finrel import BoolRelation, all_relations, fset, matr_to_relation, relation_to_matr
from qlab import lawcheck, matr
from qlab.lawcheck import make_context
from qlab.matr import (
    FdOSBase,
    MatrError,
    MatrMorphism,
    MatrObject,
    boolean_complement,
    qrel_instance,
    rel_instance,
    set_to_object,
    vrel_instance,
)
from qlab.quantale import (
    BUILTIN_QUANTALES,
    VRelation,
    chain_min_quantale,
    lukasiewicz3_quantale,
    matr_to_vrelation,
    quantale_from_tables,
    vrelation_to_matr,
)

REL = rel_instance()
L3 = lukasiewicz3_quantale()
VREL = vrel_instance(L3)
QREL = qrel_instance()

A = fset("a", "b")
X = fset("x", "y", "z")


def test_relation_roundtrip_exhaustive():
    for r in all_relations(A, X):
        m = relation_to_matr(REL, r)
        assert matr_to_relation(m) == r


@pytest.mark.parametrize("inst", [REL, QREL], ids=["rel", "qrel"])
def test_boolean_complement_exhaustive(inst):
    a = set_to_object(inst, A)
    top, bottom = inst.top(a, a), inst.bottom(a, a)
    for r in all_relations(A, A):
        f = relation_to_matr(inst, r)
        neg = boolean_complement(inst, f)
        assert inst.join2(f, neg) == top
        assert inst.meet2(f, neg) == bottom
        assert boolean_complement(inst, neg) == f


def test_relation_functor_exhaustive_small():
    small = fset("a", "b")
    for r in all_relations(small, small):
        for s in all_relations(small, small):
            lhs = relation_to_matr(REL, s.compose(r))
            rhs = REL.compose(relation_to_matr(REL, s), relation_to_matr(REL, r))
            assert REL.equal(lhs, rhs)
        assert REL.equal(
            relation_to_matr(REL, r.dagger()),
            REL.dagger(relation_to_matr(REL, r)),
        )


def test_vrelation_roundtrip():
    r = VRelation(L3, A, X, {("a", "x"): "1/2", ("b", "z"): "1"})
    m = vrelation_to_matr(VREL, r)
    assert matr_to_vrelation(VREL, m) == r


def test_identity_and_order():
    xa = set_to_object(REL, A)
    idm = REL.identity(xa)
    assert REL.equal(REL.compose(idm, idm), idm)
    bot = REL.bottom(xa, xa)
    top = REL.top(xa, xa)
    assert REL.leq(bot, idm) and REL.leq(idm, top)
    assert REL.equal(REL.sup([bot, idm, idm], xa, xa), idm)


def test_tensor_labels_are_pairs():
    xa = set_to_object(REL, A)
    xx = set_to_object(REL, X)
    t = REL.tensor_obj(xa, xx)
    labels = [lab for lab, _ in t.components]
    assert set(labels) == {(a, x) for a in A for x in X}


def test_biproduct_injections_orthogonal():
    xa = set_to_object(REL, A)
    xx = set_to_object(REL, X)
    total, injections, _ = REL.biproduct([xa, xx])
    i0, i1 = injections
    p0 = REL.dagger(i0)
    assert REL.equal(REL.compose(p0, i0), REL.identity(xa))
    assert REL.equal(REL.compose(p0, i1), REL.bottom(xx, xa))


def test_enum_hom_counts():
    xa = set_to_object(REL, A)
    homs = list(REL.enum_hom(xa, xa))
    assert len(homs) == 2 ** 4

    one = QREL.obj([("u", 1)])
    qhoms = list(QREL.enum_hom(one, one))
    assert len(qhoms) == 2 == len(QREL.enum_hom(one, one))
    assert QREL.enum_hom(one, QREL.obj([("v", 2)])) is None


def eager_enum_hom(inst, src, tgt):
    """Reference: every morphism of the homset, built up front in
    itertools.product order over the per-block choices."""
    keys = [(a, b) for a, _ in src.components for b, _ in tgt.components]
    choices = [inst.base.enum_hom(oa, ob)
               for _, oa in src.components for _, ob in tgt.components]
    return [inst.mor(src, tgt, dict(zip(keys, combo)))
            for combo in itertools.product(*choices)]


CLASSICAL = pytest.mark.parametrize(
    "kind, quantale", [("rel", None), ("vrel", chain_min_quantale(3))],
    ids=["rel", "vrel-chain3"])


@CLASSICAL
def test_lazy_homset_matches_eager_enumeration(kind, quantale):
    ctx = make_context(kind, 0, quantale)
    for x, y in itertools.product(ctx.objects, repeat=2):
        lazy = ctx.inst.enum_hom(x, y)
        eager = eager_enum_hom(ctx.inst, x, y)
        assert len(lazy) == len(eager)
        assert list(lazy) == eager
        assert lazy[-1] == eager[-1]
        with pytest.raises(IndexError):
            lazy[len(eager)]


def _mixed_radix_digits(i, radices):
    """The digits of i, last position fastest."""
    digits = []
    for n in reversed(radices):
        i, d = divmod(i, n)
        digits.append(d)
    return digits[::-1]


@pytest.mark.parametrize("inst", [
    rel_instance(), vrel_instance(chain_min_quantale(3)), vrel_instance(L3),
], ids=["rel", "vrel-chain3", "vrel-lukasiewicz3"])
def test_homset_builds_by_position_what_mor_builds(inst):
    # Label orders unlike the repr order, so position order is not key order.
    unit = inst.base.unit_obj()
    objs = [inst.obj([(lab, unit) for lab in labels])
            for labels in [("b", "a"), (2, ("a", 1), "b"), ("*",)]]
    for x, y in itertools.product(objs, repeat=2):
        hom = inst.enum_hom(x, y)
        if len(hom) > 800:
            continue
        radices = [len(c) for c in hom.choices]
        for i in range(len(hom)):
            digits = _mixed_radix_digits(i, radices)
            picks = [c[d] for c, d in zip(hom.choices, digits)]
            assert hom[i] == inst.mor(x, y, dict(zip(hom.keys, picks))), (x, y, i)


@CLASSICAL
def test_homs_draws_as_sampling_the_eager_list(kind, quantale):
    # random.sample copies a population of at most 21 + 4**ceil(log4(3 * cap))
    # elements (277 for cap 60) and indexes a larger one; with homsets of 3 to
    # 19,683 morphisms and these caps both branches run, as does cap >= size.
    ctx = make_context(kind, 0, quantale)
    ref = random.Random(7)
    ctx.rng = random.Random(7)
    for x, y in itertools.product(ctx.objects, repeat=2):
        eager = eager_enum_hom(ctx.inst, x, y)
        for cap in (3, 60, 120):
            want = eager if len(eager) <= cap else ref.sample(eager, cap)
            got = ctx.homs(x, y, cap)
            assert type(got) is list
            assert got == want
    assert ctx.rng.getstate() == ref.getstate()


# The structure cells of the qrel base as spans of GaussianRational matrices,
# the way they were built before they became integer rows.

def reference_commutation_matrix(m, n):
    """The permutation taking e_i (x) e_j in C^m (x) C^n to e_j (x) e_i."""
    size = m * n
    ent = [Q0] * (size * size)
    for i in range(m):
        for j in range(n):
            ent[(j * m + i) * size + (i * n + j)] = Q1
    return ExactMatrix(size, size, tuple(ent))


def reference_vec_identity_column(n):
    return ExactMatrix.from_vector(ExactMatrix.identity(n).entries, n * n, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_qrel_structure_cells_match_reference(n):
    base = QREL.base
    cells = [(base.identity(n), span_of(ExactMatrix.identity(n))),
             (base.eta_cell(n), span_of(reference_vec_identity_column(n))),
             (QREL.epsilon(QREL.obj([("a", n)])).block_map()[(("a", "a"), "*")],
              span_of(reference_vec_identity_column(n).adjoint()))]
    cells += [(base.symm_cell(n, m), span_of(reference_commutation_matrix(n, m)))
              for m in range(1, 5)]
    for got, want in cells:
        assert got == want
        assert got.pivots == want.pivots


def test_qrel_blocks_drop_zero():
    one = QREL.obj([("u", 1)])
    two = QREL.obj([("v", 2)])
    m = QREL.mor(one, two, {("u", "v"): span_of(ExactMatrix.zero(2, 1))})
    assert m.blocks == ()
    assert QREL.equal(m, QREL.bottom(one, two))


def test_qrel_composition_example():
    one = QREL.obj([("u", 1)])
    two = QREL.obj([("v", 2)])
    col = span_of(ExactMatrix.from_vector((parse_scalar("1"), parse_scalar("0")), 2, 1))
    row = span_of(ExactMatrix.from_vector((parse_scalar("0"), parse_scalar("1")), 1, 2))
    up = QREL.mor(one, two, {("u", "v"): col})
    down = QREL.mor(two, one, {("v", "u"): row})
    c = QREL.compose(down, up)
    # row . col = 0, so the composite is the zero scalar relation
    assert QREL.equal(c, QREL.bottom(one, one))
    assert QREL.equal(QREL.compose(QREL.dagger(up), up), QREL.identity(one))


def test_mor_rejects_bad_labels():
    xa = set_to_object(REL, A)
    with pytest.raises(MatrError):
        REL.mor(xa, xa, {("nope", "a"): True})


def test_compose_names_both_middle_objects():
    xa, xx = set_to_object(REL, A), set_to_object(REL, X)
    with pytest.raises(MatrError, match=r"\('a', 'b'\) and \('x', 'y', 'z'\)"):
        REL.compose(REL.identity(xx), REL.identity(xa))


def test_duplicate_atom_labels_rejected():
    for _ in range(2):  # a failed build must not be interned
        with pytest.raises(MatrError, match="duplicate"):
            QREL.obj([("u", 1), ("u", 2)])


# -- the label index and block order -------------------------------------------------

# Labels as the JSON boundary admits them: strings, integers (2 sorts after 10
# by repr) and nested tuples.
LABELS = st.recursive(st.text(max_size=3) | st.integers(-12, 12),
                      lambda inner: st.tuples(inner, inner), max_leaves=4)
LABEL_LISTS = st.lists(LABELS, max_size=5, unique=True)


def by_repr(item):
    (a, b), _ = item
    return repr(a), repr(b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mor_keeps_non_bottom_blocks_in_repr_order(data):
    inst = vrel_instance(L3)
    src_labels, tgt_labels = data.draw(LABEL_LISTS), data.draw(LABEL_LISTS)
    src = inst.obj([(lab, "*") for lab in src_labels])
    tgt = inst.obj([(lab, "*") for lab in tgt_labels])
    keys = [(a, b) for a in src_labels for b in tgt_labels]
    chosen = data.draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    blocks = {key: data.draw(st.sampled_from(L3.elements)) for key in chosen}
    want = sorted(((k, m) for k, m in blocks.items() if m != L3.bottom), key=by_repr)
    assert inst.mor(src, tgt, blocks).blocks == tuple(want)

    if src_labels and data.draw(st.booleans()):
        bad = (data.draw(st.sampled_from(src_labels)),
               data.draw(LABELS.filter(lambda lab: lab not in tgt_labels)))
    else:
        bad = (data.draw(LABELS.filter(lambda lab: lab not in src_labels)), "x")
    items = list(blocks.items())
    items.insert(data.draw(st.integers(0, len(items))), (bad, L3.top))
    with pytest.raises(MatrError, match="outside"):
        inst.mor(src, tgt, dict(items))


def test_object_index_ranks_labels_by_repr():
    x = VREL.obj([(2, "*"), (10, "*"), ("a", "*")])
    assert x.labels == (2, 10, "a")
    # repr order: "'a'" < "10" < "2"
    assert x.index == {"a": (0, "*"), 10: (1, "*"), 2: (2, "*")}
    assert x.base_obj(10) == "*"
    with pytest.raises(MatrError, match="no component labelled 3"):
        x.base_obj(3)


def test_obj_interns_and_equality_ignores_the_index():
    comps = [("u", 2), ("v", 1)]
    assert QREL.obj(comps) is QREL.obj(tuple(comps))
    x = vrel_instance(L3).obj([("a", "*")])
    y = vrel_instance(lukasiewicz3_quantale()).obj([("a", "*")])
    assert x is not y
    assert x == y and hash(x) == hash(y)
    assert x == MatrObject(x.base, x.components)


def test_matr_morphism_is_a_frozen_value():
    x, y = QREL.obj([("u", 2)]), QREL.obj([("v", 1)])
    f = QREL.mor(x, y, {("u", "v"): span_of(ExactMatrix.from_rows([[Q1, Q0]]))})
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.blocks = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.cached = 1
    same = MatrMorphism(f.source, f.target, tuple(f.blocks))
    assert same == f and hash(same) == hash(f) and same is not f
    assert same != MatrMorphism(f.source, f.target, ())
    assert [fld.name for fld in dataclasses.fields(MatrMorphism)] == ["source", "target", "blocks"]
    assert repr(f) == "MatrMorphism(('u',) -> ('v',), 1 blocks)"


# -- one-pass composition and built-once structure -------------------------------------

def reference_compose(inst, g, f):
    """Composition as it was built before the one-pass form: contribution
    lists of single base composites, a base sup per block, then `mor`."""
    base = inst.base

    def composite(n, m):
        if isinstance(base, FdOSBase):
            return subspace_product([(n, m)], m.domain_dim, n.codomain_dim)
        return base.quantale.mul(n, m)

    gmap = {}
    for (b, c), n in g.blocks:
        gmap.setdefault(b, []).append((c, n))
    contributions = {}
    for (a, b), m in f.blocks:
        for c, n in gmap.get(b, ()):
            contributions.setdefault((a, c), []).append(composite(n, m))
    blocks = {
        (a, c): base.sup(ms) for (a, c), ms in contributions.items()
    }
    return inst.mor(f.source, g.target, blocks)


# The chain 0 < m < 1 with unit m, which is not integral.
_C3 = ("0", "m", "1")
C3_NON_INTEGRAL = quantale_from_tables(
    _C3,
    {(a, b): "0" if "0" in (a, b) else b if a == "m" else a if b == "m" else "1"
     for a in _C3 for b in _C3},
    "m",
    join={(a, b): max(a, b, key=_C3.index) for a in _C3 for b in _C3},
)

COMPOSE_INSTANCES = {
    "rel": rel_instance,
    "vrel-chain4": lambda: vrel_instance(BUILTIN_QUANTALES["chain4"]),
    "vrel-c3-non-integral": lambda: vrel_instance(C3_NON_INTEGRAL),
    # 1/2 (x) 1/2 = 0: products of non-bottom blocks reach bottom, in
    # compose and in tensor_mor.
    "vrel-lukasiewicz3": lambda: vrel_instance(L3),
    "qrel": qrel_instance,
}

# Twice 0, 1, -1, i and 1 + i as Gaussian integers, and 1.
_ENTRIES = st.sampled_from([(0, 0), (2, 0), (-2, 0), (0, 2), (2, 2), (1, 0)])


@st.composite
def block_values(draw, inst, da, db):
    if isinstance(inst.base, FdOSBase):
        mats = []
        for _ in range(draw(st.integers(0, 2))):
            entries = draw(st.lists(_ENTRIES, min_size=da * db, max_size=da * db))
            mats.append(([x for x, _ in entries], [y for _, y in entries]))
        return span_of_rows(da, db, mats)
    return draw(st.sampled_from(inst.base.quantale.elements))


@st.composite
def matr_objects(draw, inst):
    # Integers and strings together, so the repr order of the labels often
    # differs from their order of insertion; no labels gives empty homs.
    labels = draw(st.one_of(LABEL_LISTS, st.just([2, 10, "a"])))
    if isinstance(inst.base, FdOSBase):
        return inst.obj([(lab, draw(st.integers(1, 2))) for lab in labels])
    return inst.obj([(lab, "*") for lab in labels])


@st.composite
def matr_morphisms(draw, inst, src, tgt):
    keys = [(a, oa, b, ob) for a, oa in src.components for b, ob in tgt.components]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    return inst.mor(src, tgt, {(a, b): draw(block_values(inst, oa, ob)) for a, oa, b, ob in chosen})


@pytest.mark.parametrize("name", list(COMPOSE_INSTANCES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compose_matches_the_contribution_list_reference(name, data):
    inst = COMPOSE_INSTANCES[name]()
    x, y, z = (data.draw(matr_objects(inst)) for _ in range(3))
    f = data.draw(matr_morphisms(inst, x, y))
    g = data.draw(matr_morphisms(inst, y, z))
    got = inst.compose(g, f)
    want = reference_compose(inst, g, f)
    assert got == want
    assert [key for key, _ in got.blocks] == [key for key, _ in want.blocks]


@pytest.mark.parametrize("name", list(COMPOSE_INSTANCES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_composite_leq_is_leq_of_the_composite(name, data):
    inst = COMPOSE_INSTANCES[name]()
    x, y, z = (data.draw(matr_objects(inst)) for _ in range(3))
    f = data.draw(matr_morphisms(inst, x, y))
    g = data.draw(matr_morphisms(inst, y, z))
    gf = inst.compose(g, f)
    bounds = [inst.bottom(x, z), inst.top(x, z), gf, data.draw(matr_morphisms(inst, x, z))]
    for h in bounds:
        assert inst.composite_leq(g, f, h) == inst.leq(gf, h)
    assert inst.composite_leq(g, f, gf)


@pytest.mark.parametrize("name", ["qrel", "vrel-lukasiewicz3"])
def test_composite_leq_skips_a_zero_product_under_a_nonzero_bound(name):
    # E12 E12 = 0 in qrel and 1/2 (x) 1/2 = 0 in lukasiewicz3: f o f is bottom,
    # so it lies below every bound, here a nonzero one.
    inst = COMPOSE_INSTANCES[name]()
    if name == "qrel":
        x = inst.obj([("a", 2)])
        cell = span_of(ExactMatrix.from_ints([[0, 1], [0, 0]]))
        bound = span_of(ExactMatrix.from_ints([[1, 0], [0, 0]]))
    else:
        x = inst.obj([("a", "*")])
        cell, bound = "1/2", "1/2"
    f = inst.mor(x, x, {("a", "a"): cell})
    h = inst.mor(x, x, {("a", "a"): bound})
    assert inst.compose(f, f) == inst.bottom(x, x)
    assert inst.composite_leq(f, f, h)
    assert inst.composite_leq(f, f, inst.bottom(x, x))


def test_composite_leq_raises_the_errors_of_compose_then_leq():
    x, y = REL.obj([("a", "*")]), REL.obj([("a", "*"), ("b", "*")])
    f, g = REL.identity(x), REL.identity(y)
    # Middle objects differ and h has the wrong type: compose's error first.
    with pytest.raises(MatrError, match=r"^cannot compose: middle objects differ, "
                                        r"\('a',\) and \('a', 'b'\)$"):
        REL.composite_leq(g, f, REL.identity(y))
    with pytest.raises(MatrError, match="^order compares morphisms of the same type$"):
        REL.composite_leq(f, f, REL.identity(y))
    with pytest.raises(MatrError, match="^order compares morphisms of the same type$"):
        REL.composite_leq(g, g, REL.top(x, y))


@pytest.mark.parametrize("name", list(COMPOSE_INSTANCES))
def test_structure_is_built_once_and_equals_a_fresh_build(name):
    inst = COMPOSE_INSTANCES[name]()
    if isinstance(inst.base, FdOSBase):
        objs = [inst.obj([("a", 1)]), inst.obj([("a", 2)]), inst.obj([(2, 2), (10, 1)])]
    else:
        objs = [inst.obj([]), inst.obj([("a", "*")]), inst.obj([(2, "*"), (10, "*"), ("a", "*")])]
    for x in objs:
        assert inst.identity(x) is inst.identity(x)
        assert inst.dual_obj(x) is inst.dual_obj(x)
        for method in (inst.lunit, inst.runit, inst.eta, inst.epsilon):
            method(x)
        for y in objs:
            assert inst.tensor_obj(x, y) is inst.tensor_obj(x, y)
            inst.symm(x, y)
            for z in objs:
                inst.assoc(x, y, z)
    assert inst.unit_obj() is inst.unit_obj()
    fresh = COMPOSE_INSTANCES[name]()
    built = list(inst._built.items())
    assert {method for (method, *_), _ in built} == {
        "identity", "lunit", "runit", "assoc", "symm", "eta", "epsilon",
        "unit_obj", "tensor_obj"}
    for (method, *args), value in built:
        args = [fresh.obj(arg.components) for arg in args]
        assert getattr(fresh, method)(*args) == value


# -- positional builds ------------------------------------------------------------------
#
# dagger, sup, meet2 and tensor_mor as they were built before they wrote their
# blocks in position order themselves: a dict of blocks handed to `mor`.

def reference_dagger(inst, f):
    blocks = {(b, a): inst.base.dagger(m) for (a, b), m in f.blocks}
    return inst.mor(f.target, f.source, blocks)


def reference_sup(inst, fs, src, tgt):
    gathered = {}
    for f in fs:
        if f.source != src or f.target != tgt:
            raise MatrError("sup of morphisms with different types")
        for key, m in f.blocks:
            gathered.setdefault(key, []).append(m)
    blocks = {(a, b): inst.base.sup(ms) for (a, b), ms in gathered.items()}
    return inst.mor(src, tgt, blocks)


def reference_meet2(inst, f, g):
    if f.source != g.source or f.target != g.target:
        raise MatrError("meet of morphisms with different types")
    gmap = g.block_map()
    blocks = {key: inst.base.meet(m, gmap[key]) for key, m in f.blocks if key in gmap}
    return inst.mor(f.source, f.target, blocks)


def reference_tensor_mor(inst, f, g):
    src = inst.tensor_obj(f.source, g.source)
    tgt = inst.tensor_obj(f.target, g.target)
    blocks = {}
    for (a, c), m in f.blocks:
        for (b, d), n in g.blocks:
            blocks[((a, b), (c, d))] = inst.base.tensor_mor(m, n)
    return inst.mor(src, tgt, blocks)


@st.composite
def small_matr_objects(draw, inst):
    """At most three labels, so that a tensor of two morphisms stays small."""
    labels = draw(st.lists(LABELS, max_size=3, unique=True))
    if isinstance(inst.base, FdOSBase):
        return inst.obj([(lab, draw(st.integers(1, 2))) for lab in labels])
    return inst.obj([(lab, "*") for lab in labels])


def assert_same_blocks(got, want):
    """Same type, keys, block order and values, in repr order: the ranks of
    the labels are their places in repr order, so that is position order,
    checked here without the sort that `mor` shares with the positional
    builds."""
    assert (got.source, got.target) == (want.source, want.target)
    keys = [key for key, _ in got.blocks]
    assert keys == [key for key, _ in want.blocks]
    assert keys == sorted(keys, key=lambda key: (repr(key[0]), repr(key[1])))
    assert got.blocks == want.blocks


@pytest.mark.parametrize("name", list(COMPOSE_INSTANCES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_positional_builds_match_the_mor_references(name, data):
    inst = COMPOSE_INSTANCES[name]()
    x, y = data.draw(matr_objects(inst)), data.draw(matr_objects(inst))
    fs = [data.draw(matr_morphisms(inst, x, y)) for _ in range(data.draw(st.integers(0, 3)))]
    for f in fs:
        assert_same_blocks(inst.dagger(f), reference_dagger(inst, f))
    assert_same_blocks(inst.sup(fs, x, y), reference_sup(inst, fs, x, y))
    for f, g in itertools.product(fs, repeat=2):
        assert_same_blocks(inst.meet2(f, g), reference_meet2(inst, f, g))
        assert_same_blocks(inst.join2(f, g), reference_sup(inst, [f, g], x, y))
        assert inst.leq(f, g) == (inst.join2(f, g) == g)
    z = data.draw(small_matr_objects(inst))
    if z != x:
        with pytest.raises(MatrError, match="different types"):
            inst.sup([data.draw(matr_morphisms(inst, z, y))], x, y)
        with pytest.raises(MatrError, match="different types"):
            inst.meet2(data.draw(matr_morphisms(inst, x, y)), data.draw(matr_morphisms(inst, z, y)))
    a, b, c, d = (data.draw(small_matr_objects(inst)) for _ in range(4))
    f, g = data.draw(matr_morphisms(inst, a, b)), data.draw(matr_morphisms(inst, c, d))
    assert_same_blocks(inst.tensor_mor(f, g), reference_tensor_mor(inst, f, g))


@pytest.mark.parametrize("kind, quantale", [
    ("rel", None), ("vrel", L3), ("vrel", C3_NON_INTEGRAL), ("qrel", None),
], ids=["rel", "vrel-lukasiewicz3", "vrel-c3-non-integral", "qrel"])
def test_law_runs_build_only_sorted_morphisms_without_bottom_blocks(kind, quantale, monkeypatch):
    """Every morphism a law run builds, through `mor` or not, has its blocks at
    strictly increasing positions rank(a) |target| + rank(b) and none of them
    bottom: the invariant that `equal` relies on."""
    init = MatrMorphism.__init__
    built, multi = 0, 0

    def checked_init(self, source, target, blocks):
        nonlocal built, multi
        src_index, tgt_index, base = source.index, target.index, source.base
        positions = []
        for (a, b), m in blocks:
            assert not base.is_bottom(m), f"bottom block at {(a, b)!r}"
            positions.append(src_index[a][0] * len(tgt_index) + tgt_index[b][0])
        assert all(p < q for p, q in zip(positions, positions[1:])), positions
        built += 1
        multi += len(positions) > 1
        init(self, source, target, blocks)

    monkeypatch.setattr(MatrMorphism, "__init__", checked_init)
    assert all(rep.ok for rep in lawcheck.run_all(kind, 0, quantale=quantale))
    assert built > 1000 and multi > 100


# -- the base protocol -----------------------------------------------------------------

BASE_PROTOCOL = {
    "compose_blocks", "dagger", "enum_hom", "eta_cell", "identity", "is_bottom", "leq",
    "meet", "product_leq", "size", "sup", "symm_cell", "tensor_mor", "tensor_obj", "top",
    "unit_obj",
}
MATR_CLASSES = {
    node.name: node
    for node in ast.parse(Path(matr.__file__).read_text()).body
    if isinstance(node, ast.ClassDef)
}


def public_methods(cls: ast.ClassDef) -> set[str]:
    return {node.name for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def base_reads(cls: ast.ClassDef) -> set[str]:
    """The names n of every `self.base.n` in the class."""
    return {
        node.attr for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute) and node.value.attr == "base"
        and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"
    }


def test_both_bases_answer_exactly_the_protocol():
    assert public_methods(MATR_CLASSES["QuantaleBase"]) == BASE_PROTOCOL
    assert public_methods(MATR_CLASSES["FdOSBase"]) == BASE_PROTOCOL


def test_matr_instance_reads_only_the_protocol():
    reads = base_reads(MATR_CLASSES["MatrInstance"])
    assert {"compose_blocks", "identity", "eta_cell"} <= reads
    assert reads <= BASE_PROTOCOL


# -- the per-instance memo of the qrel base ---------------------------------------------

def distinct_copy(v):
    """A subspace equal to v that shares no object with it."""
    return span_of_rows(v.domain_dim, v.codomain_dim, [(list(re), list(im)) for re, im in v.rows])


def fresh_compose(g, f):
    """g o f with one direct subspace_product per output block, no memo."""
    pairs = {}
    for (b, c), n in g.blocks:
        for (a, b2), m in f.blocks:
            if b2 == b:
                pairs.setdefault((a, c), []).append((n, m))
    blocks = {
        (a, c): subspace_product(ps, f.source.base_obj(a), g.target.base_obj(c))
        for (a, c), ps in pairs.items()
    }
    return QREL.mor(f.source, g.target, blocks)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_qrel_memo_matches_fresh_products_and_adjoints(data):
    inst = qrel_instance()
    x, y, z = (data.draw(matr_objects(inst)) for _ in range(3))
    f = data.draw(matr_morphisms(inst, x, y))
    g = data.draw(matr_morphisms(inst, y, z))
    want = fresh_compose(g, f)
    want_dagger = QREL.mor(y, x, {(b, a): subspace_adjoint(m) for (a, b), m in f.blocks})
    first = inst.compose(g, f)
    assert first == want
    assert inst.dagger(f) == want_dagger
    entries = len(inst.base._built)
    # Repeated arguments, and equal arguments that are distinct objects, are
    # answered from the memo: equal results, no new entries.
    f_copy = inst.mor(x, y, {key: distinct_copy(m) for key, m in f.blocks})
    g_copy = inst.mor(y, z, {key: distinct_copy(n) for key, n in g.blocks})
    for gg, ff in ((g, f), (g_copy, f_copy), (g, f_copy)):
        again = inst.compose(gg, ff)
        assert again == want
        assert all(m is m0 for (_, m), (_, m0) in zip(again.blocks, first.blocks))
        assert inst.dagger(ff) == want_dagger
    assert len(inst.base._built) == entries


def test_qrel_instances_do_not_share_memo_entries():
    one, two = qrel_instance(), qrel_instance()
    x = one.obj([("u", 2)])
    f = one.mor(x, x, {("u", "u"): full_subspace(2, 2)})
    ff, fd, ident = one.compose(f, f), one.dagger(f), one.base.identity(3)
    assert one.base._built and two.base._built == {}
    assert {name for name, *_ in one.base._built} == {"compose_sum", "dagger", "identity"}
    # The second instance computes its own, equal values.
    assert two.compose(f, f) == ff and two.dagger(f) == fd
    assert two.compose(f, f).blocks[0][1] is not ff.blocks[0][1]
    assert two.base.identity(3) == ident and two.base.identity(3) is not ident
