"""Exact scalar and matrix arithmetic, and the canonical subspace form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab.exact import (
    Q0,
    Q1,
    ExactError,
    ExactMatrix,
    GaussianRational,
    canonical_basis,
    commutation_matrix,
    format_scalar,
    full_subspace,
    gq,
    hs_orthocomplement,
    kronecker,
    parse_scalar,
    rref,
    span_of,
    subspace_adjoint,
    subspace_join,
    subspace_leq,
    subspace_meet,
    subspace_product,
    zero_subspace,
)
from qlab.matr import qrel_instance
from qlab.qrel import dagger_kernel, is_zero_mono, qmor, qset

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(GaussianRational, fractions, fractions)


@given(scalars)
def test_scalar_string_roundtrip(z):
    assert parse_scalar(format_scalar(z)) == z


@given(scalars)
def test_scalar_roundtrip_ignores_whitespace(z):
    s = format_scalar(z)
    assert parse_scalar(" " + s.replace("", " ")) == z


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", gq(0)),
        ("3", gq(3)),
        ("1/2 i", gq(0, Fraction(1, 2))),
        ("-1+2 i", gq(-1, 2)),
        ("i", gq(0, 1)),
        ("-i", gq(0, -1)),
        ("2/3", gq(Fraction(2, 3))),
        ("-3/4-5/6 i", gq(Fraction(-3, 4), Fraction(-5, 6))),
    ],
)
def test_scalar_parse_examples(text, expected):
    assert parse_scalar(text) == expected
    assert parse_scalar(format_scalar(expected)) == expected


@given(scalars, scalars)
def test_scalar_field_ops(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a
    if not b.is_zero():
        assert (a / b) * b == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_matrix_identities():
    a = ExactMatrix.from_ints([[1, 2], [3, 4]])
    b = ExactMatrix.from_ints([[0, 1], [1, 0]])
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert a.trace() == gq(5)
    assert (a @ b).trace() == (b @ a).trace()
    i2 = ExactMatrix.identity(2)
    assert a @ i2 == a and i2 @ a == a


def test_kron_mixed_product():
    a = ExactMatrix.from_ints([[1, 2], [3, 4]])
    b = ExactMatrix.from_ints([[0, 1], [1, 1]])
    c = ExactMatrix.from_ints([[2, 0], [0, 1]])
    d = ExactMatrix.from_ints([[1, 1], [0, 1]])
    lhs = a.kron(b) @ c.kron(d)
    rhs = (a @ c).kron(b @ d)
    assert lhs == rhs


def test_commutation_matrix_swaps_factors():
    k = commutation_matrix(2, 3)
    a = ExactMatrix.from_ints([[1, 2], [3, 4]])
    b = ExactMatrix.from_ints([[1, 0, 1], [2, 1, 0], [0, 0, 3]])
    k_back = commutation_matrix(3, 2)
    assert k @ a.kron(b) @ k_back == b.kron(a)


def test_canonical_basis_is_rref_and_value_equal():
    m1 = ExactMatrix.from_ints([[1, 0], [0, 0]])
    m2 = ExactMatrix.from_ints([[0, 0], [0, 1]])
    v = span_of(m1, m2)
    w = span_of(m1 + m2, m1 - m2)
    assert v == w
    assert v.dim == 2


def test_subspace_lattice_and_product():
    e11 = ExactMatrix.from_ints([[1, 0], [0, 0]])
    e12 = ExactMatrix.from_ints([[0, 1], [0, 0]])
    v = span_of(e11)
    w = span_of(e12)
    j = subspace_join(v, w)
    assert subspace_leq(v, j) and subspace_leq(w, j)
    assert subspace_meet(v, w).is_zero()
    prod = subspace_product(v, w)
    assert prod == span_of(e11 @ e12)


def test_hs_orthocomplement_involutive():
    v = span_of(ExactMatrix.from_ints([[1, 1], [0, 1]]))
    assert hs_orthocomplement(hs_orthocomplement(v)) == v
    assert hs_orthocomplement(zero_subspace(2, 2)) == full_subspace(2, 2)
    w = hs_orthocomplement(v)
    assert subspace_meet(v, w).is_zero()
    assert subspace_join(v, w) == full_subspace(2, 2)


def test_kernel_intersection():
    # The joint kernel of the operators in a block, through the qrel layer.
    x, y = qset([("x", 2)]), qset([("y", 2)])
    f = qmor(x, y, {("x", "y"): [ExactMatrix.from_ints([[1, 0], [0, 0]])]})
    k, incl = dagger_kernel([f])
    assert [d for _, d in k.components] == [1]
    assert qrel_instance().compose(f, incl).blocks == ()
    assert not is_zero_mono(f)


def test_adjoint_subspace():
    v = span_of(ExactMatrix.from_rows([[gq(0, 1), gq(1)]]))
    w = subspace_adjoint(v)
    assert subspace_adjoint(w) == v
    assert (w.domain_dim, w.codomain_dim) == (v.codomain_dim, v.domain_dim)


def test_shape_mismatch_raises():
    with pytest.raises(ExactError):
        canonical_basis(
            [ExactMatrix.identity(2), ExactMatrix.identity(3)], 2, 2
        )


@pytest.mark.parametrize("text", ["1/0", "-3/0", "1/0 i", "2+1/0 i", "1/0-i"])
def test_scalar_zero_denominator_is_exact_error(text):
    with pytest.raises(ExactError, match="zero denominator"):
        parse_scalar(text)


# -- oracles for the Gaussian-integer kernel -------------------------------------
#
# Straightforward reference implementations over GaussianRational field
# arithmetic: rref, @ and kron, which run on Gaussian integers, must return
# exactly equal values.

def reference_rref(rows):
    """Gauss-Jordan elimination with GaussianRational division."""
    work = [list(r) for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    out = []
    col = 0
    rest = work
    while rest and col < ncols:
        pivot_row = next((r for r in rest if not r[col].is_zero()), None)
        if pivot_row is None:
            col += 1
            continue
        rest.remove(pivot_row)
        inv = pivot_row[col]
        pivot_row = [z / inv for z in pivot_row]
        for r in rest + out:
            if not r[col].is_zero():
                f = r[col]
                for k in range(col, ncols):
                    r[k] = r[k] - f * pivot_row[k]
        out.append(pivot_row)
        col += 1
    return [tuple(r) for r in out]


def reference_matmul(a, b):
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = Q0
            for k in range(a.cols):
                acc = acc + a.at(i, k) * b.at(k, j)
            out.append(acc)
    return ExactMatrix(a.rows, b.cols, tuple(out))


def reference_kron(a, b):
    out = []
    for i in range(a.rows):
        for p in range(b.rows):
            for j in range(a.cols):
                for q in range(b.cols):
                    out.append(a.at(i, j) * b.at(p, q))
    return ExactMatrix(a.rows * b.rows, a.cols * b.cols, tuple(out))


small = st.fractions(min_value=-6, max_value=6, max_denominator=12)
# Zeros, reals, pure imaginaries and general Gaussian rationals, so pivots are
# often non-unit or purely imaginary and many entries are zero.
entries = st.one_of(
    st.just(Q0),
    st.builds(GaussianRational, small, st.just(Fraction(0))),
    st.builds(GaussianRational, st.just(Fraction(0)), small),
    st.builds(GaussianRational, small, small),
)


@st.composite
def row_sets(draw, max_rows=5, max_cols=5):
    """Rows of one length (possibly 0), with duplicate, zero and dependent rows."""
    ncols = draw(st.integers(0, max_cols))
    row = st.tuples(*[entries] * ncols)
    rows = draw(st.lists(row, max_size=max_rows))
    extras = []
    if rows:
        for kind in draw(st.lists(st.sampled_from(["dup", "zero", "comb"]), max_size=3)):
            if kind == "dup":
                extras.append(draw(st.sampled_from(rows)))
            elif kind == "zero":
                extras.append((Q0,) * ncols)
            else:
                u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
                s, t = draw(entries), draw(entries)
                extras.append(tuple(s * x + t * y for x, y in zip(u, v)))
    merged = rows + extras
    return draw(st.permutations(merged)) if merged else []


@st.composite
def matrices(draw, rows=None, cols=None):
    r = draw(st.integers(0, 4)) if rows is None else rows
    c = draw(st.integers(0, 4)) if cols is None else cols
    return ExactMatrix(r, c, tuple(draw(st.lists(entries, min_size=r * c, max_size=r * c))))


def assert_rref_invariants(reduced, ncols):
    pivots = []
    for r in reduced:
        assert len(r) == ncols
        p = next(j for j, z in enumerate(r) if not z.is_zero())
        assert r[p] == Q1
        pivots.append(p)
    assert pivots == sorted(set(pivots))
    for p, r in zip(pivots, reduced):
        for other in reduced:
            if other is not r:
                assert other[p] == Q0


@settings(max_examples=200, deadline=None)
@given(row_sets())
def test_rref_matches_reference(rows):
    reduced = rref(rows)
    assert reduced == reference_rref(rows)
    assert_rref_invariants(reduced, len(rows[0]) if rows else 0)


@settings(max_examples=50, deadline=None)
@given(row_sets(max_rows=8, max_cols=9))
def test_rref_matches_reference_on_long_rows(rows):
    assert rref(rows) == reference_rref(rows)


@settings(deadline=None)
@given(st.data())
def test_matmul_matches_reference(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    assert a @ b == reference_matmul(a, b)


@settings(deadline=None)
@given(matrices(), matrices())
def test_kron_matches_reference(a, b):
    assert a.kron(b) == reference_kron(a, b)


def test_rref_empty_shapes():
    assert rref([]) == []
    assert rref([(), ()]) == []
    assert rref([(Q0, Q0)]) == []
    with pytest.raises(ExactError):
        rref([(Q1,), (Q1, Q0)])


def test_products_of_empty_shapes():
    a = ExactMatrix(0, 3, ())
    b = ExactMatrix(3, 2, (Q1,) * 6)
    assert a @ b == ExactMatrix(0, 2, ())
    c = ExactMatrix(2, 0, ())
    d = ExactMatrix(0, 3, ())
    assert c @ d == ExactMatrix.zero(2, 3)
    assert c.kron(b) == ExactMatrix(6, 0, ())
