"""Exact scalar and matrix arithmetic, and the canonical subspace form."""

import dataclasses
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab.exact import (
    Q0,
    Q1,
    ExactError,
    ExactMatrix,
    GaussianRational,
    OperatorSubspace,
    _eliminate,
    _over,
    _primitive,
    canonical_basis,
    format_over,
    format_scalar,
    full_subspace,
    gq,
    hs_orthocomplement,
    kronecker,
    nullspace,
    parse_over,
    parse_scalar,
    rref,
    span_of,
    subspace_adjoint,
    subspace_join,
    subspace_leq,
    subspace_meet,
    subspace_product,
    subspace_product_leq,
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


def _trace(m):
    acc = Q0
    for i in range(m.rows):
        acc = acc + m.at(i, i)
    return acc


def test_matrix_identities():
    a = ExactMatrix.from_ints([[1, 2], [3, 4]])
    b = ExactMatrix.from_ints([[0, 1], [1, 0]])
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert _trace(a) == gq(5)
    assert _trace(a @ b) == _trace(b @ a)
    i2 = ExactMatrix.identity(2)
    assert a @ i2 == a and i2 @ a == a


def test_canonical_basis_is_rref_and_value_equal():
    m1 = ExactMatrix.from_ints([[1, 0], [0, 0]])
    m2 = ExactMatrix.from_ints([[0, 0], [0, 1]])
    v = span_of(m1, m2)
    # m1 + m2 and m1 - m2
    w = span_of(ExactMatrix.from_ints([[1, 0], [0, 1]]), ExactMatrix.from_ints([[1, 0], [0, -1]]))
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
    prod = subspace_product([(v, w)], 2, 2)
    assert prod == span_of(e11 @ e12)
    assert subspace_product([(v, w), (w, w)], 2, 2) == prod
    assert subspace_product([], 2, 2) == zero_subspace(2, 2)
    with pytest.raises(ExactError, match="inner"):
        subspace_product([(v, span_of(ExactMatrix.from_ints([[1, 0]])))], 2, 2)
    with pytest.raises(ExactError, match="expected a 1x2 product"):
        subspace_product([(v, w)], 2, 1)


def test_subspace_product_leq_errors_and_zero_products():
    e11 = span_of(ExactMatrix.from_ints([[1, 0], [0, 0]]))
    e12 = span_of(ExactMatrix.from_ints([[0, 1], [0, 0]]))
    # E12 E12 = 0 lies below every bound, the zero subspace (None) included.
    assert subspace_product_leq(e12, e12, e11)
    assert subspace_product_leq(e12, e12, None)
    assert not subspace_product_leq(e11, e12, None)
    assert not subspace_product_leq(e11, e12, e11)
    assert subspace_product_leq(e11, e12, e12)
    with pytest.raises(ExactError, match="^inner dimensions do not match$"):
        subspace_product_leq(e11, span_of(ExactMatrix.from_ints([[1, 0]])), None)
    with pytest.raises(ExactError, match="^expected a 2x2 bound, got 1x2$"):
        subspace_product_leq(e11, e12, span_of(ExactMatrix.from_ints([[1, 0]])))


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
    inst = qrel_instance()
    k, incl = dagger_kernel(inst, [f])
    assert [d for _, d in k.components] == [1]
    assert inst.compose(f, incl).blocks == ()
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


# -- oracles for the integer text helpers ---------------------------------------
#
# format_over and parse_over print and parse without building Fractions.  The
# references are format_scalar of the equal Gaussian rational, and the
# Fraction-based parser that parse_scalar used to be.

def reference_parse_scalar(text):
    compact = "".join(text.split())
    if not compact:
        raise ExactError(f"empty scalar string {text!r}")
    m = re.match(
        r"^(?:(?P<re>[+-]?\d+(?:/\d+)?)(?P<im>[+-](?:\d+(?:/\d+)?)?i)?"
        r"|(?P<im_only>[+-]?(?:\d+(?:/\d+)?)?i))$", compact)
    if not m:
        raise ExactError(f"malformed scalar string {text!r}")
    try:
        re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
        im_text = m.group("im") or m.group("im_only")
        if im_text is None:
            im_part = Fraction(0)
        else:
            body = im_text[:-1]
            if body in ("", "+"):
                im_part = Fraction(1)
            elif body == "-":
                im_part = Fraction(-1)
            else:
                im_part = Fraction(body)
    except ZeroDivisionError:
        raise ExactError(f"zero denominator in scalar {text!r}") from None
    return GaussianRational(re_part, im_part)


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


big_ints = st.integers(-10**30, 10**30) | st.integers(-40, 40)


@settings(max_examples=300)
@given(big_ints, big_ints, st.integers(1, 10**30) | st.integers(1, 40))
def test_format_over_matches_format_scalar(x, y, p):
    assert format_over(x, y, p) == format_scalar(_over(x, y, p))


@st.composite
def scalar_texts(draw):
    """Strings of the scalar grammar, with zero denominators, signs and spaces."""
    digits = st.text("0123456789", min_size=1, max_size=4)

    def rational():
        den = draw(st.none() | digits)
        return draw(digits) + ("" if den is None else "/" + den)

    sign = st.sampled_from(["", "+", "-"])
    kind = draw(st.sampled_from(["re", "im", "both"]))
    text = draw(sign) + rational() if kind != "im" else ""
    if kind != "re":
        coeff = draw(st.sampled_from(["", rational()]))
        text += draw(st.sampled_from(["+", "-"]) if kind == "both" else sign) + coeff + "i"
    spaces = draw(st.lists(st.integers(0, len(text)), max_size=3))
    for k in sorted(spaces, reverse=True):
        text = text[:k] + " " + text[k:]
    return text


@settings(max_examples=400)
@given(scalar_texts() | st.text("0123456789/+-i. \t", max_size=10))
def test_parse_over_matches_the_fraction_parser(text):
    want = _outcome(reference_parse_scalar, text)
    assert _outcome(parse_scalar, text) == want
    got = _outcome(parse_over, text)
    if isinstance(want, GaussianRational):
        x, y, den = got
        assert den > 0 and (Fraction(x, den), Fraction(y, den)) == (want.re, want.im)
    else:
        assert got == want


def test_parse_over_rejects_like_the_fraction_parser():
    for text in ["", "  ", "i i", "1/", "/2", "1//2", "i2", "1+", "1/0", "0/0 i", "+-1", "1.5"]:
        want = _outcome(reference_parse_scalar, text)
        assert isinstance(want, tuple), text
        assert _outcome(parse_over, text) == want == _outcome(parse_scalar, text)


@pytest.mark.parametrize("text", ["\u0663/\u0662", "\uff13", "1/\u0662", "\u0663i", "1+\uff13i"],
                         ids=["arabic-indic", "fullwidth", "denominator", "imaginary", "both"])
def test_parse_over_reads_ascii_digits_only(text):
    # The format writes 0-9 only; other Unicode decimal digits are malformed.
    for parse in (parse_over, parse_scalar):
        with pytest.raises(ExactError, match="^malformed scalar string"):
            parse(text)


# -- oracles for the Gaussian-integer kernel -------------------------------------
#
# Straightforward reference implementations over GaussianRational field
# arithmetic: rref and @, which run on Gaussian integers, must return exactly
# equal values.

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


# -- oracles for the Gaussian-integer subspace layer -----------------------------
#
# The GaussianRational subspace operations as they were before subspaces held
# Gaussian-integer rows, written over reference_rref and the ExactMatrix
# operations.  A reference subspace is its list of unit-pivot RREF vectors.

def reference_span(mats):
    return reference_rref([m.entries for m in mats])


def reference_nullspace(rows, ncols):
    reduced = reference_rref(rows)
    pivots = [next(i for i, z in enumerate(r) if not z.is_zero()) for r in reduced]
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [Q0] * ncols
        vec[j] = Q1
        for r, p in zip(reduced, pivots):
            vec[p] = Q0 - r[j]
        basis.append(tuple(vec))
    return reference_rref(basis)


def _mats(vecs, c, d):
    return [ExactMatrix.from_vector(v, c, d) for v in vecs]


def reference_product(w, v, c, k, d):
    return reference_span([a @ b for a in _mats(w, c, k) for b in _mats(v, k, d)])


def reference_adjoint(v, c, d):
    return reference_span([m.adjoint() for m in _mats(v, c, d)])


def reference_join(v, w):
    return reference_rref(list(v) + list(w))


def reference_orthocomplement(v, n):
    return reference_nullspace([tuple(z.conjugate() for z in r) for r in v], n)


def reference_meet(v, w, n):
    return reference_orthocomplement(
        reference_join(reference_orthocomplement(v, n), reference_orthocomplement(w, n)), n)


def reference_leq(v, w):
    return reference_join(v, w) == w


def reference_kronecker(v, w, c1, d1, c2, d2):
    return reference_span([reference_kron(a, b) for a in _mats(v, c1, d1) for b in _mats(w, c2, d2)])


def assert_canonical(s):
    """The stored form: RREF rows, each primitive with a real positive pivot."""
    n = s.domain_dim * s.codomain_dim
    assert len(s.pivots) == len(s.rows)
    assert list(s.pivots) == sorted(set(s.pivots))
    for (re, im), pc in zip(s.rows, s.pivots):
        assert len(re) == len(im) == n
        assert gcd(*re, *im) == 1
        assert re[pc] > 0 and im[pc] == 0
        assert not any(re[:pc]) and not any(im[:pc])
        for (o_re, o_im), o_pc in zip(s.rows, s.pivots):
            if o_pc != pc:
                assert re[o_pc] == 0 and im[o_pc] == 0


def assert_matches(s, ref, d, c):
    """s has the reference's basis, dimension and value."""
    assert_canonical(s)
    assert (s.domain_dim, s.codomain_dim) == (d, c)
    assert [m.entries for m in s.basis] == ref
    assert s.dim == len(ref)
    assert s == canonical_basis(_mats(ref, c, d), d, c)


unit_scalars = st.sampled_from([Q1, gq(-1), gq(0, 1), gq(0, -1), gq(2, -3)])


@st.composite
def subspaces(draw, c, d):
    """A c x d subspace: zero, full, or spanned by a few random matrices, each
    scaled by a unit or a Gaussian integer so pivots are often negative or
    purely imaginary."""
    kind = draw(st.sampled_from(["zero", "full", "random", "random", "random"]))
    if kind == "zero":
        mats = [ExactMatrix.zero(c, d)] * draw(st.integers(0, 1))
    elif kind == "full":
        mats = [ExactMatrix.unit(c, d, i, j) for i in range(c) for j in range(d)]
    else:
        mats = []
        for _ in range(draw(st.integers(1, 3))):
            m, s = draw(matrices(rows=c, cols=d)), draw(unit_scalars)
            mats.append(ExactMatrix(c, d, tuple(s * z for z in m.entries)))
    s = canonical_basis(mats, d, c)
    return s, reference_span(mats)


dims = st.integers(1, 3)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_canonical_basis_matches_reference(data):
    c, d = data.draw(dims), data.draw(dims)
    s, ref = data.draw(subspaces(c, d))
    assert_matches(s, ref, d, c)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subspace_product_matches_reference(data):
    # One to three pairs (w, v), each through its own inner dimension k: the
    # span of all their products is the join of the pairwise products.
    c, d = data.draw(dims), data.draw(dims)
    pairs, ref = [], []
    for k in data.draw(st.lists(dims, min_size=1, max_size=3)):
        w, w_ref = data.draw(subspaces(c, k))
        v, v_ref = data.draw(subspaces(k, d))
        pairs.append((w, v))
        ref = reference_join(ref, reference_product(w_ref, v_ref, c, k, d))
    assert_matches(subspace_product(pairs, d, c), ref, d, c)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subspace_product_leq_is_leq_of_the_product(data):
    c, k, d = data.draw(dims), data.draw(dims), data.draw(dims)
    (w, _), (v, _) = data.draw(subspaces(c, k)), data.draw(subspaces(k, d))
    product = subspace_product([(w, v)], d, c)
    for bound in (None, product, data.draw(subspaces(c, d))[0]):
        want = product.is_zero() if bound is None else subspace_leq(product, bound)
        assert subspace_product_leq(w, v, bound) == want


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_subspace_adjoint_matches_reference(data):
    c, d = data.draw(dims), data.draw(dims)
    v, v_ref = data.draw(subspaces(c, d))
    assert_matches(subspace_adjoint(v), reference_adjoint(v_ref, c, d), c, d)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subspace_lattice_matches_reference(data):
    c, d = data.draw(dims), data.draw(dims)
    v, v_ref = data.draw(subspaces(c, d))
    w, w_ref = data.draw(subspaces(c, d))
    n = c * d
    assert_matches(subspace_join(v, w), reference_join(v_ref, w_ref), d, c)
    assert_matches(subspace_meet(v, w), reference_meet(v_ref, w_ref, n), d, c)
    assert_matches(hs_orthocomplement(v), reference_orthocomplement(v_ref, n), d, c)
    assert subspace_leq(v, w) == reference_leq(v_ref, w_ref)
    assert subspace_leq(w, v) == reference_leq(w_ref, v_ref)
    meet = subspace_meet(v, w)
    assert subspace_leq(meet, v) and subspace_leq(meet, w)
    assert (v == w) == (v_ref == w_ref)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kronecker_matches_reference(data):
    c1, d1, c2, d2 = (data.draw(st.integers(1, 2)) for _ in range(4))
    v, v_ref = data.draw(subspaces(c1, d1))
    w, w_ref = data.draw(subspaces(c2, d2))
    assert_matches(kronecker(v, w), reference_kronecker(v_ref, w_ref, c1, d1, c2, d2),
                   d1 * d2, c1 * c2)


@settings(max_examples=50, deadline=None)
@given(row_sets(max_rows=4, max_cols=5))
def test_nullspace_matches_reference(rows):
    ncols = len(rows[0]) if rows else 3
    assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)


def test_canonical_rows_of_a_known_span():
    # span{[[2i, 1/3]]}: the unit-pivot row is (1, -1/6 i), stored as (6, -i).
    v = span_of(ExactMatrix.from_rows([[gq(0, 2), gq(Fraction(1, 3))]]))
    assert v.rows == (((6, 0), (0, -1)),)
    assert v.basis == (ExactMatrix.from_rows([[Q1, gq(0, Fraction(-1, 6))]]),)
    assert span_of(ExactMatrix.from_rows([[gq(-3), gq(0, Fraction(1, 2))]])) == span_of(
        ExactMatrix.from_rows([[gq(6), gq(0, -1)]]))


def test_kronecker_restores_primitive_rows():
    # (2, 1+i) is primitive, but its Kronecker square (4, 2+2i, 2+2i, 2i) is not.
    v = span_of(ExactMatrix.from_rows([[gq(2), gq(1, 1)]]))
    k = kronecker(v, v)
    assert_matches(k, reference_kronecker([m.entries for m in v.basis],
                                          [m.entries for m in v.basis], 1, 2, 1, 2), 4, 1)
    assert k.rows == (((2, 1, 1, 0), (0, 1, 1, 1)),)


# -- oracle for the elimination kernel -------------------------------------------
#
# The fraction-free elimination written step by step: each vector made primitive
# by `_primitive`, reduced through `reference_reduce` and `reference_clear`, and
# the rows sorted at the end.  `_eliminate` must return exactly the same rows and
# pivots, and read exactly as many vectors.

def reference_clear(row, pivot, col):
    re, im = row
    fr, fi = re[col], im[col]
    if not fr and not fi:
        return row
    p_re, p_im = pivot
    g = gcd(p_re[col], fr, fi)
    n, fr, fi = p_re[col] // g, fr // g, fi // g
    return _primitive(
        [n * x - fr * c + fi * d for x, c, d in zip(re, p_re, p_im)],
        [n * y - fr * d - fi * c for y, c, d in zip(im, p_re, p_im)],
    )


def reference_reduce(row, rows, pivots):
    for pc, p in zip(pivots, rows):
        if row[0][pc] or row[1][pc]:
            row = reference_clear(row, p, pc)
            if row is None:
                return None
    return row


def reference_eliminate(vecs, ncols, rows=(), pivots=()):
    rows, pivots = list(rows), list(pivots)
    if len(pivots) < ncols:
        for re, im in vecs:
            row = _primitive(re, im)
            if row is not None:
                row = reference_reduce(row, rows, pivots)
            if row is None:
                continue
            re, im = row
            col = next(j for j in range(ncols) if re[j] or im[j])
            a, b = re[col], im[col]
            if b:
                row = _primitive([x * a + y * b for x, y in zip(re, im)],
                                 [y * a - x * b for x, y in zip(re, im)])
            elif a < 0:
                row = [-x for x in re], [-y for y in im]
            rows = [reference_clear(r, row, col) for r in rows]
            rows.append(row)
            pivots.append(col)
            if len(pivots) == ncols:
                break
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [rows[k] for k in order], [pivots[k] for k in order]


def _as_tuples(rows):
    return [(tuple(re), tuple(im)) for re, im in rows]


class _Counted:
    """An iterator over the vectors that counts how many were read."""

    def __init__(self, vecs):
        self.vecs, self.read = iter(vecs), 0

    def __iter__(self):
        return self

    def __next__(self):
        vec = next(self.vecs)
        self.read += 1
        return vec


gaussian_ints = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def int_vector_sets(draw, ncols, max_vecs=6):
    """Gaussian-integer vectors of length ncols with zero, repeated, scaled and
    dependent ones among them."""
    vec = st.lists(gaussian_ints, min_size=ncols, max_size=ncols).map(
        lambda v: ([x for x, _ in v], [y for _, y in v]))
    vecs = draw(st.lists(vec, max_size=max_vecs))
    if vecs:
        for kind in draw(st.lists(st.sampled_from(["zero", "dup", "scaled", "comb"]), max_size=4)):
            if kind == "zero":
                vecs.append(([0] * ncols, [0] * ncols))
            elif kind == "dup":
                vecs.append(draw(st.sampled_from(vecs)))
            else:
                (u_re, u_im), (v_re, v_im) = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
                (s, t), (p, q) = draw(gaussian_ints), draw(gaussian_ints)
                if kind == "scaled":
                    p = q = 0
                vecs.append(([s * a - t * b + p * c - q * d
                              for a, b, c, d in zip(u_re, u_im, v_re, v_im)],
                             [s * b + t * a + p * d + q * c
                              for a, b, c, d in zip(u_re, u_im, v_re, v_im)]))
        vecs = draw(st.permutations(vecs))
    return vecs


def assert_eliminates_like_the_reference(vecs, ncols, rows=(), pivots=()):
    got, expected = _Counted(vecs), _Counted(vecs)
    new_rows, new_pivots = _eliminate(got, ncols, rows, pivots)
    ref_rows, ref_pivots = reference_eliminate(expected, ncols, rows, pivots)
    assert _as_tuples(new_rows) == _as_tuples(ref_rows)
    assert list(new_pivots) == list(ref_pivots)
    assert got.read == expected.read


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eliminate_matches_the_reference(data):
    ncols = data.draw(st.integers(0, 6))
    assert_eliminates_like_the_reference(data.draw(int_vector_sets(ncols)), ncols)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eliminate_onto_a_seeded_echelon_matches_the_reference(data):
    # The call shape of subspace_join and subspace_meet: a canonical echelon
    # first, more vectors after it.
    ncols = data.draw(st.integers(1, 6))
    rows, pivots = reference_eliminate(data.draw(int_vector_sets(ncols, max_vecs=4)), ncols)
    rows = tuple((tuple(re), tuple(im)) for re, im in rows)
    assert_eliminates_like_the_reference(data.draw(int_vector_sets(ncols)), ncols, rows, pivots)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_eliminate_stops_reading_at_full_rank(data):
    ncols = data.draw(st.integers(1, 4))
    full = [([int(i == j) for j in range(ncols)], [0] * ncols) for i in range(ncols)]
    before = data.draw(int_vector_sets(ncols))
    vecs = before + full + data.draw(int_vector_sets(ncols))
    got = _Counted(vecs)
    rows, pivots = _eliminate(got, ncols)
    assert pivots == list(range(ncols))
    assert got.read <= len(before) + ncols
    assert_eliminates_like_the_reference(vecs, ncols)
    # A seeded echelon of full rank reads nothing.
    seeded = _Counted(vecs)
    assert _eliminate(seeded, ncols, rows, pivots) == (rows, pivots)
    assert seeded.read == 0


def test_operator_subspace_is_a_frozen_value():
    v = span_of(ExactMatrix.from_rows([[gq(0, 2), gq(1)]]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.rows = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.dim_cache = 1
    same = OperatorSubspace(v.domain_dim, v.codomain_dim, v.rows, v.pivots)
    assert same == v and hash(same) == hash(v) and same is not v
    # The pivots follow from the rows, so they take no part in equality or repr.
    other_pivots = OperatorSubspace(v.domain_dim, v.codomain_dim, v.rows, (1,))
    assert other_pivots == v and hash(other_pivots) == hash(v)
    assert repr(v) == f"OperatorSubspace(domain_dim=2, codomain_dim=1, rows={v.rows!r})"
    assert v != OperatorSubspace(1, 2, v.rows, v.pivots)
    for d, c in ((-1, 1), (1, -1)):
        with pytest.raises(ExactError):
            OperatorSubspace(d, c, (), ())
    assert "_basis" not in vars(v)
    basis = v.basis
    assert vars(v)["_basis"] is basis and v.basis is basis
    assert basis == (ExactMatrix.from_rows([[Q1, gq(0, Fraction(-1, 2))]]),)
