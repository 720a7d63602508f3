"""Quantum relations: orthocomplements, dagger kernels, zero-monos, effects."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qlab import cli, lawcheck, serialize
from qlab.calculus import omega_data
from qlab.core import is_dagger_iso, is_map, trace_of
from qlab.exact import Q0, ExactMatrix, GaussianRational, nullspace, parse_scalar, span_of
from qlab.matr import MatrError, qrel_instance
from qlab.orders import downset_to_monotone_map, monotone_map_to_downset
from qlab.qrel import (
    _norm_obstruction,
    _orthonormal_columns,
    _two_squares_int,
    dagger_kernel,
    instance,
    invertible_not_dagger_iso,
    is_perp_blockwise,
    is_zero_mono,
    orthocomplement,
    qmor,
    qset,
)

INST = instance()
X2 = qset([("x", 2)])
X21 = qset([("x", 2), ("y", 1)])


def _ints(rows):
    return span_of(ExactMatrix.from_ints(rows))


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


def _random_mor(rng, src, tgt):
    blocks = {}
    for a, da in src.components:
        for b, db in tgt.components:
            v = _random_block(rng, da, db)
            if v is not None:
                blocks[(a, b)] = v
    return INST.mor(src, tgt, blocks)


def test_orthocomplement_involutive_and_lattice():
    rng = random.Random(7)
    for _ in range(60):
        r = _random_mor(rng, X21, X2)
        n = orthocomplement(INST, r)
        assert INST.equal(orthocomplement(INST, n), r)
        assert INST.equal(INST.meet2(r, n), INST.bottom(X21, X2))
        assert INST.equal(INST.join2(r, n), INST.top(X21, X2))


def test_orthocomplement_reverses_order():
    rng = random.Random(11)
    for _ in range(60):
        r = _random_mor(rng, X2, X2)
        s = INST.join2(r, _random_mor(rng, X2, X2))
        assert INST.leq(r, s)
        assert INST.leq(orthocomplement(INST, s), orthocomplement(INST, r))


def test_is_perp_routes_agree():
    rng = random.Random(13)
    for _ in range(80):
        r = _random_mor(rng, X2, X21)
        s = _random_mor(rng, X2, X21)
        via_trace = INST.equal(
            trace_of(INST, INST.compose(INST.dagger(s), r)),
            INST.bottom(INST.unit_obj(), INST.unit_obj()),
        )
        assert via_trace == is_perp_blockwise(r, s)


def test_kernel_of_projection_effect():
    e = qmor(X2, qset([("u", 1)]), {("x", "u"): _ints([[1, 0]])})
    ker, incl = dagger_kernel(INST, [e])
    assert ker.components == ((("k", "x"), 1),)
    assert INST.equal(INST.compose(e, incl), INST.bottom(ker, e.target))
    assert INST.equal(INST.compose(INST.dagger(incl), incl), INST.identity(ker))


def test_kernel_factorization_random():
    rng = random.Random(17)
    for _ in range(40):
        r = _random_mor(rng, X21, X2)
        ker, incl = dagger_kernel(INST, [r])
        assert INST.equal(INST.compose(r, incl), INST.bottom(ker, X2))
        s = INST.compose(incl, _random_mor(rng, X2, ker))
        assert INST.equal(INST.compose(r, s), INST.bottom(X2, X2))
        t = INST.compose(INST.dagger(incl), s)
        assert INST.equal(INST.compose(incl, t), s)


def test_kernel_of_full_morphism_is_empty():
    f = qmor(X2, X2, {("x", "x"): _ints([[1, 0], [0, 1]])})
    ker, incl = dagger_kernel(INST, [f])
    assert ker.components == ()
    assert incl.blocks == ()


# Two 5 -> 1 blocks whose kernels differ in rank and Gram determinant D.  A
# dagger-monic inclusion with Gaussian rational entries exists for a kernel of
# odd rank always, and for one of even rank exactly when D is a sum of two
# rational squares.
X5 = qset([("x", 5)])
U1 = qset([("u", 1)])


def _five_to_one(*rows):
    return qmor(X5, U1, {("x", "u"): span_of(*(ExactMatrix.from_ints([r]) for r in rows))})


@pytest.mark.xfail(strict=True, raises=MatrError,
                   reason="Gram-Schmidt gives column norms 1, 1 and 3, in different norm classes")
def test_kernel_of_rank_3_has_an_inclusion():
    f = _five_to_one([0, 0, 1, -1, 0], [0, 0, 1, 0, -1])
    # The orthogonal columns (1+i,1,0,0,0), (-1,1-i,0,0,0) and (0,0,1,1,1),
    # each of squared norm 3, span the kernel: an inclusion exists.
    cols = ExactMatrix.from_rows([[parse_scalar(t) for t in row] for row in (
        ["1+i", "-1", "0"], ["1", "1-i", "0"], ["0", "0", "1"], ["0", "0", "1"], ["0", "0", "1"])])
    k3 = qset([("k", 3)])
    e = qmor(k3, X5, {("k", "x"): span_of(cols)})
    assert INST.equal(INST.compose(f, e), INST.bottom(k3, U1))
    assert INST.equal(INST.compose(INST.dagger(e), e), INST.identity(k3))
    ker, incl = dagger_kernel(INST, [f])
    assert ker.components == ((("k", "x"), 3),)
    assert INST.equal(INST.compose(f, incl), INST.bottom(ker, U1))
    assert INST.equal(INST.compose(INST.dagger(incl), incl), INST.identity(ker))


def test_kernel_of_rank_2_with_gram_determinant_3_is_refused():
    rows = ([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 1, 1])
    u, v = nullspace([ExactMatrix.from_ints([r]).row(0) for r in rows], 5)

    def inner(x, y):
        return sum((a.conjugate() * b for a, b in zip(x, y)), Q0)

    assert inner(u, u) * inner(v, v) - inner(u, v) * inner(v, u) == GaussianRational(3, 0)
    with pytest.raises(MatrError, match="different norm classes"):
        dagger_kernel(INST, [_five_to_one(*rows)])


def test_zero_mono_examples():
    full = INST.top(X2, qset([("u", 1)]))
    assert is_zero_mono(full)
    nil = qmor(X2, X2, {("x", "x"): _ints([[0, 1], [0, 0]])})
    assert not is_zero_mono(nil)
    idm = INST.identity(X21)
    assert is_zero_mono(idm)


def test_norm_obstruction_classes():
    # 3 and 7 are primes of the form 4k+3: their class is the prime itself.
    # 12 = 3 * 4 stands for the ratio 3/4, as numerator times denominator.
    assert _norm_obstruction(1) == 1
    assert _norm_obstruction(2) == 1
    assert _norm_obstruction(5) == 1
    assert _norm_obstruction(3) == 3
    assert _norm_obstruction(9) == 1
    assert _norm_obstruction(21) == 21
    assert _norm_obstruction(12) == 3


def test_norm_obstruction_stops_at_the_trial_division_bound():
    # 999983 and 999979 are primes 3 mod 4 below the bound 10**6, and
    # 999999999959 is a prime 3 mod 4 below its square: all are classified.
    assert _norm_obstruction(999983 * 999979) == 999983 * 999979
    assert _norm_obstruction(2 * 9 * 999999999959) == 999999999959
    # 1000003 * 1000033 has no prime factor below the bound and is not below
    # its square, so it cannot be classified by trial division.
    with pytest.raises(MatrError, match="1000000"):
        _norm_obstruction(1000003 * 1000033)


def test_two_squares_values():
    # 52 = 13 * 4 stands for the ratio 13/4, as numerator times denominator.
    for n in (1, 2, 5, 52, 9):
        rep = _two_squares_int(n)
        assert rep is not None
        x, y = rep
        assert x * x + y * y == n
    assert _two_squares_int(3) is None


def reference_two_squares(n):
    """Strip square factors, then search for the least x with n - x^2 a square."""
    if n == 0:
        return (0, 0)
    square, rest, d = 1, n, 2
    while d * d <= rest:
        while rest % (d * d) == 0:
            rest //= d * d
            square *= d
        d += 1
    a = 0
    while a * a <= rest:
        b = math.isqrt(rest - a * a)
        if b * b == rest - a * a:
            return (square * a, square * b)
        a += 1
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**7) | st.integers(0, 200))
def test_two_squares_matches_the_search(n):
    assert _two_squares_int(n) == reference_two_squares(n)


def test_orthonormal_columns_mixed_norm_classes_rejected():
    # squared norms 1 and 2 lie in the same class of Q*/N(Q(i)): fine
    _orthonormal_columns([([1, 0, 0], [0, 0, 0]), ([0, 1, 1], [0, 0, 0])])
    # squared norms 1 and 3 lie in different classes: no common rescaling exists
    with pytest.raises(MatrError):
        _orthonormal_columns([([1, 0, 0, 0], [0, 0, 0, 0]), ([0, 1, 1, 1], [0, 0, 0, 0])])


def test_effect_map_roundtrip():
    rng = random.Random(23)
    om = omega_data(INST)
    for _ in range(40):
        blocks = {}
        for a, da in X21.components:
            v = _random_block(rng, da, 1)
            if v is not None:
                blocks[(a, "*")] = v
        r = INST.mor(X21, INST.unit_obj(), blocks)
        f = downset_to_monotone_map(INST, om, r, lambda r: orthocomplement(INST, r))
        assert is_map(INST, f)
        assert INST.equal(monotone_map_to_downset(INST, om, f), r)


@pytest.mark.parametrize("dim", [True, 2.0, 0])
def test_qset_refuses_a_dimension_that_is_not_a_positive_int(dim):
    # As serialize.qset_from_json does: a bool is an int to isinstance, but
    # qset_to_json would write it as the JSON true that the reader refuses.
    with pytest.raises(MatrError, match="positive integers"):
        qset([("a", dim)])


def test_operations_leave_the_module_instance_untouched(capsys):
    """Every operation builds in the caller's instance: the law suites and
    the qrel commands add nothing to what `instance()` keeps."""
    single = instance()
    before = (dict(single._built), dict(single._objects), dict(single.base._built))
    for seed in range(4):
        assert all(rep.ok for rep in lawcheck.run_all("qrel", seed))
    inst = qrel_instance()
    x = inst.obj([("x", 2)])
    f = serialize.dumps(serialize.qrelation_to_json(
        inst.mor(x, x, {("x", "x"): _ints([[1, 0], [0, 0]])})))
    for argv in (["neg", "--instance", "qrel", f],
                 ["kernel", f],
                 ["power", "--instance", "qrel", serialize.dumps(serialize.qset_to_json(x))],
                 ["compute", "--instance", "qrel", "--load", f"f={f}", "f ∘ f ∨ star(f)"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert (single._built, single._objects, single.base._built) == before


def test_invertible_not_dagger_iso_fixture():
    v, w = invertible_not_dagger_iso(INST)
    x = v.source
    assert INST.equal(INST.compose(w, v), INST.identity(x))
    assert INST.equal(INST.compose(v, w), INST.identity(x))
    assert not is_dagger_iso(INST, v)
    assert not is_map(INST, v)


def _trace(m):
    acc = Q0
    for i in range(m.rows):
        acc = acc + m.at(i, i)
    return acc


def _complex_block(rng, dc, dr):
    entries = (0, 0, 1, -1, 2, 1j, -1j, 1 + 1j, 2 - 1j)
    mats = [ExactMatrix.from_rows([[GaussianRational(Fraction(int(z.real)), Fraction(int(z.imag)))
                                    for z in (complex(rng.choice(entries)) for _ in range(dc))]
                                   for _ in range(dr)]) for _ in range(rng.randrange(1, 3))]
    return span_of(*mats)


def test_is_perp_matches_the_trace_of_products():
    # Against tr(a^dagger b) over the unit-pivot bases, with complex entries; half
    # the pairs take s inside the orthocomplement of r, so both answers occur.
    rng = random.Random(17)
    seen = set()
    for k in range(120):
        v = _complex_block(rng, 2, 2)
        if k % 2:
            w = _complex_block(rng, 2, 2)
        else:
            perp = orthocomplement(INST, INST.mor(X2, X2, {("x", "x"): v})).blocks[0][1]
            w = span_of(*rng.sample(perp.basis, rng.randrange(1, perp.dim + 1)))
        r, s = INST.mor(X2, X2, {("x", "x"): v}), INST.mor(X2, X2, {("x", "x"): w})
        want = all(_trace(a.adjoint() @ b).is_zero() for a in v.basis for b in w.basis)
        assert is_perp_blockwise(r, s) == want
        seen.add(want)
    assert seen == {True, False}


# -- oracle for the Gaussian-integer dagger kernel --------------------------------
#
# The dagger kernel with Gram-Schmidt over GaussianRational field arithmetic,
# v <- v - (<u,v>/<u,u>) u, and each column then scaled by a Gaussian rational
# of squared modulus target / (its squared norm).

def _gr_inner(u, v):
    acc = Q0
    for x, y in zip(u, v):
        acc = acc + x.conjugate() * y
    return acc


def reference_dagger_kernel(fs):
    src = fs[0].source
    atoms, blocks = [], {}
    for a, da in src.components:
        rows = [m.row(i) for f in fs for (x, _), v in f.blocks if x == a
                for m in v.basis for i in range(m.rows)]
        ortho = []
        for v in nullspace(rows, da):
            for u in ortho:
                t = _gr_inner(u, v) / _gr_inner(u, u)
                v = tuple(x - t * y for x, y in zip(v, u))
            ortho.append(v)
        if not ortho:
            continue
        if len(ortho) > 1:
            norms = [_gr_inner(u, u).re for u in ortho]
            sigs = {_norm_obstruction(n.numerator * n.denominator) for n in norms}
            if len(sigs) != 1:
                raise MatrError(
                    "this kernel has no dagger-monic inclusion with Gaussian "
                    "rational entries (column norms lie in different norm classes)"
                )
            target = sigs.pop()
            scaled = []
            for u, n in zip(ortho, norms):
                q = Fraction(target) / n
                x, y = _two_squares_int(q.numerator * q.denominator)
                z = GaussianRational(Fraction(x, q.denominator), Fraction(y, q.denominator))
                scaled.append(tuple(z * t for t in u))
            ortho = scaled
        lab = ("k", a)
        atoms.append((lab, len(ortho)))
        e = ExactMatrix(da, len(ortho), tuple(u[i] for i in range(da) for u in ortho))
        blocks[(lab, a)] = span_of(e)
    k = INST.obj(atoms)
    return k, INST.mor(k, src, blocks)


kernel_entries = st.sampled_from(
    [parse_scalar(t) for t in ("0", "0", "1", "-1", "2", "3", "i", "1+i", "2-i", "1/2", "-1/3 i")])


@st.composite
def kernel_inputs(draw):
    """One or two morphisms out of a common source with atoms of dimension 2 to
    4 into one small atom, each block spanned by at most one matrix, so joint
    kernels are often of dimension 2 or more."""
    src = qset([(lab, draw(st.integers(2, 4))) for lab in ("x", "y")[:draw(st.integers(1, 2))]])
    tgt = qset([("u", draw(st.integers(1, 2)))])
    (b, db), = tgt.components
    fs = []
    for _ in range(draw(st.integers(1, 2))):
        blocks = {}
        for a, da in src.components:
            if draw(st.booleans()):
                entries = draw(st.lists(kernel_entries, min_size=da * db, max_size=da * db))
                blocks[(a, b)] = span_of(ExactMatrix(db, da, tuple(entries)))
        fs.append(INST.mor(src, tgt, blocks))
    return fs


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(kernel_inputs())
def test_dagger_kernel_matches_gaussian_rational_reference(fs):
    # A norm-class error needs two kernel columns, so both branches see kernels
    # of dimension 2 or more.
    try:
        k, incl = reference_dagger_kernel(fs)
    except MatrError as exc:
        with pytest.raises(MatrError) as got:
            dagger_kernel(INST, fs)
        assert str(got.value) == str(exc)
        return
    assume(max((d for _, d in k.components), default=0) >= 2)
    assert dagger_kernel(INST, fs) == (k, incl)
