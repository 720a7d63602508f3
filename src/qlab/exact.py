"""Exact Gaussian-rational scalars, dense matrices and canonical operator subspaces.

Everything downstream (operator-subspace composition, kernels, orthocomplements,
traces) reduces to exact linear algebra over the field Q(i) implemented here.

An `OperatorSubspace` holds its canonical form as Gaussian-integer rows: the
reduced row echelon form of the row-major vectorizations of its elements, each
row primitive (the gcd of all its parts is 1) with a real positive pivot.  That
form is unique, so subspace equality is plain value equality.  The subspace
operations (product, join, meet, leq, adjoint, orthocomplement, Kronecker
product) go from integer rows to integer rows through one fraction-free
elimination, `_eliminate`; `subspace_product_leq` decides w v <= bound by
reducing each product against the bound's echelon, with no elimination.
`span_of_rows` is the integer entry point: the subspace spanned by matrices
given as row-major Gaussian-integer vectors.  The library builds every
subspace through it.

The text boundary is integer too: `format_over` prints the Gaussian rational
(re + im i) / den and `parse_over` reads one back as such a triple, so the qRel
JSON forms of `qlab.serialize` go between strings and integer rows without
building a `GaussianRational` or an `ExactMatrix`.  `format_scalar` and
`parse_scalar` are the same grammar for `GaussianRational`.

`GaussianRational` and `ExactMatrix` are the types of the public wrappers:
`OperatorSubspace.basis` is the view of a subspace as unit-pivot matrices,
built when first read, and `canonical_basis`, `span_of`, `rref` and `nullspace`
take and return Gaussian rationals.  `ExactMatrix` keeps only construction,
access, the adjoint, transpose and product, and its text form.
"""

from __future__ import annotations

import re as _re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import QlabError


class ExactError(QlabError):
    """Raised on shape mismatches or malformed scalar strings."""


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    # -- field operations -------------------------------------------------
    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- text form ---------------------------------------------------------
    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_scalar(self)!r})"


Q0 = GaussianRational(Fraction(0), Fraction(0))
Q1 = GaussianRational(Fraction(1), Fraction(0))
QI = GaussianRational(Fraction(0), Fraction(1))


def gq(re: int | str | Fraction, im: int | str | Fraction = 0) -> GaussianRational:
    """Convenience constructor from ints, strings or Fractions."""
    return GaussianRational(Fraction(re), Fraction(im))


def _gaussian_ints(values: Sequence[GaussianRational]) -> tuple[list[tuple[int, int]], int]:
    """Scale to Gaussian integers over one common denominator.

    Returns the integer (re, im) pairs and the denominator d, the lcm of every
    part's denominator, with values[k] == (re_k + im_k i) / d.
    """
    den = lcm(*(z.re.denominator for z in values), *(z.im.denominator for z in values))
    if den == 1:
        return [(z.re.numerator, z.im.numerator) for z in values], 1
    return [
        (z.re.numerator * (den // z.re.denominator), z.im.numerator * (den // z.im.denominator))
        for z in values
    ], den


def _over(re: int, im: int, den: int) -> GaussianRational:
    """The Gaussian rational (re + im i) / den."""
    if not re and not im:
        return Q0
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _format_parts(rn: int, rd: int, jn: int, jd: int) -> str:
    """The text of rn/rd + (jn/jd) i, each fraction in lowest terms with a
    positive denominator: "a/b+c/d i" with zero parts and unit denominators
    omitted, and "i" for a unit imaginary part."""
    real = str(rn) if rd == 1 else f"{rn}/{rd}"
    if not jn:
        return real
    if jd != 1:
        imag = f"{abs(jn)}/{jd} i"
    else:
        imag = "i" if jn in (1, -1) else f"{abs(jn)} i"
    if not rn:
        return imag if jn > 0 else "-" + imag
    return f"{real}{'+' if jn > 0 else '-'}{imag}"


def format_over(re: int, im: int, den: int) -> str:
    """The text of the Gaussian rational (re + im i) / den, for den > 0."""
    if den == 1:
        return _format_parts(re, 1, im, 1)
    g = gcd(re, den)
    if not im:
        return _format_parts(re // g, den // g, 0, 1)
    h = gcd(im, den)
    return _format_parts(re // g, den // g, im // h, den // h)


def format_scalar(z: GaussianRational) -> str:
    """Serialize as "a/b+c/d i" with zero parts omitted."""
    return _format_parts(z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator)


_RATIONAL = r"\d+(?:/\d+)?"
# Either a pure real, a pure imaginary, or real followed by a signed
# imaginary; the sign requirement disambiguates "1/2i" (= (1/2)i) from
# "1/2+i".
_SCALAR_RE = _re.compile(
    rf"^(?:(?P<re>[+-]?{_RATIONAL})(?P<im>[+-](?:{_RATIONAL})?i)?"
    rf"|(?P<im_only>[+-]?(?:{_RATIONAL})?i))$",
    _re.ASCII,  # digits 0-9 only: str \d would read any Unicode decimal digit
)


def _ratio(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    # int() raises ValueError past the interpreter's integer-string limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and max(len(num.lstrip("+-")), len(den)) > limit:
        raise ExactError(f"scalar numeral longer than {limit} digits")
    return int(num), int(den) if den else 1


def parse_over(text: str) -> tuple[int, int, int]:
    """Parse the text form of :func:`format_over` into integers (re, im, den)
    with den > 0 and value (re + im i) / den.  den is the lcm of the written
    denominators, so the triple need not be in lowest terms.

    Whitespace anywhere in the string is ignored.
    """
    compact = "".join(text.split())
    if not compact:
        raise ExactError(f"empty scalar string {text!r}")
    m = _SCALAR_RE.match(compact)
    if not m:
        raise ExactError(f"malformed scalar string {text!r}")
    rn, rd = _ratio(m.group("re")) if m.group("re") else (0, 1)
    im_text = m.group("im") or m.group("im_only")
    if im_text is None:
        jn, jd = 0, 1
    else:
        body = im_text[:-1]
        if body in ("", "+"):
            jn, jd = 1, 1
        elif body == "-":
            jn, jd = -1, 1
        else:
            jn, jd = _ratio(body)
    if not rd or not jd:
        raise ExactError(f"zero denominator in scalar {text!r}")
    den = lcm(rd, jd)
    return rn * (den // rd), jn * (den // jd), den


def parse_scalar(text: str) -> GaussianRational:
    """Parse the serialization produced by :func:`format_scalar`.

    Whitespace anywhere in the string is ignored.
    """
    return _over(*parse_over(text))


@dataclass(frozen=True)
class ExactMatrix:
    """A dense rows x cols matrix of Gaussian rationals, row-major entries."""

    rows: int
    cols: int
    entries: tuple[GaussianRational, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ExactError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ExactError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        object.__setattr__(self, "entries", tuple(self.entries))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[Sequence[GaussianRational]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ExactError("ragged rows")
        return ExactMatrix(r, c, tuple(z for row in rows for z in row))

    @staticmethod
    def from_ints(rows: Sequence[Sequence[int | str | Fraction]]) -> "ExactMatrix":
        return ExactMatrix.from_rows(
            [[gq(v) if not isinstance(v, GaussianRational) else v for v in row] for row in rows]
        )

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            n, n, tuple(Q1 if i == j else Q0 for i in range(n) for j in range(n))
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, (Q0,) * (rows * cols))

    @staticmethod
    def unit(rows: int, cols: int, i: int, j: int) -> "ExactMatrix":
        """Matrix unit E_ij."""
        ent = [Q0] * (rows * cols)
        ent[i * cols + j] = Q1
        return ExactMatrix(rows, cols, tuple(ent))

    # -- access ------------------------------------------------------------
    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    # -- algebra -----------------------------------------------------------
    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ExactError("shape mismatch in product")
        n, m = self.cols, other.cols
        a, da = _gaussian_ints(self.entries)
        b, db = _gaussian_ints(other.entries)
        # The nonzero entries of each row of `other`, as (column, re, im).
        b_rows = [
            [(j, br, bi) for j, (br, bi) in enumerate(b[k * m:(k + 1) * m]) if br or bi]
            for k in range(n)
        ]
        out: list[GaussianRational] = []
        for i in range(self.rows):
            acc_re, acc_im = [0] * m, [0] * m
            for (ar, ai), b_row in zip(a[i * n:(i + 1) * n], b_rows):
                if ar or ai:
                    for j, br, bi in b_row:
                        acc_re[j] += ar * br - ai * bi
                        acc_im[j] += ar * bi + ai * br
            out.extend(map(_over, acc_re, acc_im, repeat(da * db)))
        return ExactMatrix(self.rows, m, tuple(out))

    def adjoint(self) -> "ExactMatrix":
        """Conjugate transpose."""
        return ExactMatrix(
            self.cols, self.rows,
            tuple(self.at(i, j).conjugate() for j in range(self.cols) for i in range(self.rows)),
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    @staticmethod
    def from_vector(vec: Sequence[GaussianRational], rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, tuple(vec))

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(format_scalar(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        ) + "]"


Vector = tuple[GaussianRational, ...]
IntRow = tuple[Sequence[int], Sequence[int]]  # real and imaginary parts of a Gaussian-integer row


def _int_row(v: Sequence[GaussianRational]) -> IntRow:
    """The vector scaled to Gaussian integers by the lcm of its denominators."""
    pairs, _ = _gaussian_ints(v)
    return [x for x, _ in pairs], [y for _, y in pairs]


def _int_rows(rows: Iterable[Vector]) -> list[IntRow]:
    out = [_int_row(tuple(r)) for r in rows]
    if len({len(re) for re, _ in out}) > 1:
        raise ExactError("ragged vectors")
    return out


def _unit_pivot(rows: Sequence[IntRow], pivots: Sequence[int]) -> list[Vector]:
    """Each row divided by its pivot: the unit-pivot RREF over Q(i)."""
    return [tuple(map(_over, re, im, repeat(re[pc]))) for (re, im), pc in zip(rows, pivots)]


def _primitive(re: Sequence[int], im: Sequence[int]) -> IntRow | None:
    """The row divided by the gcd of all its parts; None for the zero row."""
    g = gcd(*re, *im)
    if g == 0:
        return None
    if g == 1:
        return re, im
    return [x // g for x in re], [y // g for y in im]


def _clear(row: IntRow, pivot: IntRow, col: int) -> IntRow | None:
    """Row r with r[col] cleared: primitive(p[col] r - r[col] p), where p[col] > 0;
    None if that leaves the zero row."""
    re, im = row
    fr, fi = re[col], im[col]
    if not fr and not fi:
        return row
    p_re, p_im = pivot
    g = gcd(p_re[col], fr, fi)
    n, fr, fi = p_re[col] // g, fr // g, fi // g
    re = [n * x - fr * c + fi * d for x, c, d in zip(re, p_re, p_im)]
    im = [n * y - fr * d - fi * c for y, c, d in zip(im, p_re, p_im)]
    g = gcd(*re, *im)
    if g == 1:
        return re, im
    if g == 0:
        return None
    return [x // g for x in re], [y // g for y in im]


def _reduce(row: IntRow, rows: Sequence[IntRow], pivots: Sequence[int]) -> IntRow | None:
    """The row cleared at every pivot column of a canonical echelon; None if that
    leaves nothing, that is when the row lies in the echelon's span."""
    for pc, p in zip(pivots, rows):
        if row[0][pc] or row[1][pc]:
            row = _clear(row, p, pc)
            if row is None:
                return None
    return row


def _eliminate(vecs: Iterable[IntRow], ncols: int, rows: Sequence[IntRow] = (),
               pivots: Sequence[int] = ()) -> tuple[list[IntRow], list[int]]:
    """The canonical echelon (see OperatorSubspace) of the span of a canonical
    echelon `rows` (with pivot columns `pivots`) and some Gaussian-integer vectors.

    Incremental fraction-free Gauss-Jordan elimination over Z[i], one pass over
    the vectors.  Each vector is divided by the gcd of its parts (the zero vector
    is skipped) and cleared at every pivot column by r <- p[col] r - r[col] p,
    which `_clear` keeps primitive.  If anything is left, its first nonzero entry
    becomes a new pivot: the row is multiplied by the conjugate of that entry (or
    by -1) so the pivot is real and positive, and the column is cleared from
    every other row.  Every row stays primitive, so entries stay small.  The
    vectors are read lazily and not past the point where the rank reaches ncols.
    Returns the rows in pivot order and their pivot columns; below rank 2 there
    is nothing to sort.  The echelon is canonical, so any elimination order
    gives the same rows.
    """
    rows, pivots = list(rows), list(pivots)
    if len(pivots) < ncols:
        for re, im in vecs:
            g = gcd(*re, *im)
            if g == 0:
                continue
            if g != 1:
                re, im = [x // g for x in re], [y // g for y in im]
            for pc, p in zip(pivots, rows):
                if re[pc] or im[pc]:
                    row = _clear((re, im), p, pc)
                    if row is None:
                        break
                    re, im = row
            else:
                col = 0
                while not (re[col] or im[col]):
                    col += 1
                a, b = re[col], im[col]
                if b:
                    re, im = ([x * a + y * b for x, y in zip(re, im)],
                              [y * a - x * b for x, y in zip(re, im)])
                    g = gcd(*re, *im)
                    if g != 1:
                        re, im = [x // g for x in re], [y // g for y in im]
                elif a < 0:
                    re, im = [-x for x in re], [-y for y in im]
                row = re, im
                for k, r in enumerate(rows):
                    if r[0][col] or r[1][col]:
                        rows[k] = _clear(r, row, col)
                rows.append(row)
                pivots.append(col)
                if len(pivots) == ncols:
                    break
    if len(pivots) < 2:
        return rows, pivots
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [rows[k] for k in order], [pivots[k] for k in order]


def _null_rows(rows: Sequence[IntRow], pivots: Sequence[int], ncols: int) -> Iterator[IntRow]:
    """Gaussian-integer vectors spanning {x : r . x = 0 for every row r} of a
    reduced echelon with real positive pivots: one per free column f, with
    x[f] = L, the lcm of the pivots, and x[pc] = -r[f] L / r[pc] for the row r
    with pivot column pc."""
    scale = lcm(*(re[pc] for (re, _), pc in zip(rows, pivots)))
    factors = [scale // re[pc] for (re, _), pc in zip(rows, pivots)]
    taken = set(pivots)
    for f in range(ncols):
        if f in taken:
            continue
        x_re, x_im = [0] * ncols, [0] * ncols
        x_re[f] = scale
        for (re, im), pc, k in zip(rows, pivots, factors):
            x_re[pc], x_im[pc] = -re[f] * k, -im[f] * k
        yield x_re, x_im


def rref(rows: Iterable[Vector]) -> list[Vector]:
    """Reduced row echelon form with unit pivots and zero rows dropped.

    The rows are scaled to Gaussian integers and eliminated by `_eliminate`;
    each row is divided by its pivot once at the end.
    """
    vecs = _int_rows(rows)
    if not vecs:
        return []
    return _unit_pivot(*_eliminate(vecs, len(vecs[0][0])))


def nullspace(rows: Sequence[Vector], ncols: int) -> list[Vector]:
    """Canonical basis of {x : M x = 0} for the matrix M with the given rows."""
    reduced = _int_rows(rref(rows))
    if reduced and len(reduced[0][0]) != ncols:
        raise ExactError(f"expected vectors of length {ncols}")
    pivots = [next(j for j, x in enumerate(re) if x) for re, _ in reduced]
    return _unit_pivot(*_eliminate(_null_rows(reduced, pivots, ncols), ncols))


@dataclass(frozen=True, init=False)
class OperatorSubspace:
    """A linear subspace of the codomain_dim x domain_dim matrices.

    It is held as the canonical Gaussian-integer echelon of the row-major
    vectorizations of its elements: `rows` has one (real parts, imaginary parts)
    pair per basis vector, in reduced row echelon form, and each row is
    primitive (the gcd of all its parts is 1) with a real positive pivot at
    column `pivots[k]`.  Each row is the unique such positive rational multiple
    of the unit-pivot RREF row, so two equal subspaces are equal values.
    """

    domain_dim: int
    codomain_dim: int
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    pivots: tuple[int, ...] = field(compare=False, repr=False)

    def __init__(self, domain_dim: int, codomain_dim: int,
                 rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
                 pivots: tuple[int, ...]) -> None:
        # Written straight into the instance dict: the frozen dataclass's own
        # __init__ pays for object.__setattr__ on every field.
        if domain_dim < 0 or codomain_dim < 0:
            raise ExactError("dimensions must be nonnegative")
        d = self.__dict__
        d["domain_dim"] = domain_dim
        d["codomain_dim"] = codomain_dim
        d["rows"] = rows
        d["pivots"] = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def basis(self) -> tuple[ExactMatrix, ...]:
        """The unit-pivot RREF basis as matrices, built on first read and kept."""
        basis = self.__dict__.get("_basis")
        if basis is None:
            c, d = self.codomain_dim, self.domain_dim
            basis = tuple(ExactMatrix(c, d, v) for v in _unit_pivot(self.rows, self.pivots))
            self.__dict__["_basis"] = basis
        return basis


def span_of_rows(d: int, c: int, vecs: Iterable[IntRow], rows: Sequence[IntRow] = (),
                 pivots: Sequence[int] = ()) -> OperatorSubspace:
    """The c x d subspace spanned by c x d matrices given as row-major
    Gaussian-integer vectors (real parts, imaginary parts), together with a
    canonical echelon `rows` (with pivot columns `pivots`) if one is given."""
    rows, pivots = _eliminate(vecs, d * c, rows, pivots)
    return OperatorSubspace(d, c, tuple((tuple(re), tuple(im)) for re, im in rows), tuple(pivots))


def canonical_basis(mats: Sequence[ExactMatrix], d: int, c: int) -> OperatorSubspace:
    """The span of the given c x d matrices, in canonical form."""
    for m in mats:
        if (m.rows, m.cols) != (c, d):
            raise ExactError(f"expected shape {c}x{d}, got {m.rows}x{m.cols}")
    return span_of_rows(d, c, (_int_row(m.entries) for m in mats))


def zero_subspace(d: int, c: int) -> OperatorSubspace:
    return OperatorSubspace(d, c, (), ())


def full_subspace(d: int, c: int) -> OperatorSubspace:
    n = d * c
    zeros = (0,) * n
    return OperatorSubspace(
        d, c, tuple((zeros[:j] + (1,) + zeros[j + 1:], zeros) for j in range(n)), tuple(range(n))
    )


def span_of(*mats: ExactMatrix) -> OperatorSubspace:
    if not mats:
        raise ExactError("span_of needs at least one matrix to infer the shape")
    return canonical_basis(list(mats), mats[0].cols, mats[0].rows)


def _products(w: OperatorSubspace, v: OperatorSubspace) -> Iterator[IntRow]:
    """The integer matrix products w_i v_j, row-major, for every pair of rows."""
    c, k, d = w.codomain_dim, w.domain_dim, v.domain_dim
    # The nonzero entries of each row of each matrix of v, as (column, re, im).
    v_mats = [
        [[(j, br, bi) for j, br, bi in zip(range(d), re[t * d:(t + 1) * d], im[t * d:(t + 1) * d])
          if br or bi] for t in range(k)]
        for re, im in v.rows
    ]
    for are, aim in w.rows:
        w_rows = [(i * d, are[i * k:(i + 1) * k], aim[i * k:(i + 1) * k]) for i in range(c)]
        for b_rows in v_mats:
            out_re, out_im = [0] * (c * d), [0] * (c * d)
            for off, a_re, a_im in w_rows:
                for ar, ai, b_row in zip(a_re, a_im, b_rows):
                    if ar or ai:
                        for j, br, bi in b_row:
                            out_re[off + j] += ar * br - ai * bi
                            out_im[off + j] += ar * bi + ai * br
            yield out_re, out_im


def subspace_product(pairs: Iterable[tuple[OperatorSubspace, OperatorSubspace]],
                     d: int, c: int) -> OperatorSubspace:
    """The c x d sup of composites: the span of every product w_i v_j, over
    every pair (w, v) of a c x k and a k x d subspace, in one elimination.
    No pairs give the zero subspace."""
    pairs = list(pairs)
    for w, v in pairs:
        if w.domain_dim != v.codomain_dim:
            raise ExactError("inner dimensions do not match")
        if (v.domain_dim, w.codomain_dim) != (d, c):
            raise ExactError(f"expected a {c}x{d} product, got {w.codomain_dim}x{v.domain_dim}")
    return span_of_rows(d, c, (row for w, v in pairs for row in _products(w, v)))


def subspace_product_leq(w: OperatorSubspace, v: OperatorSubspace,
                         bound: OperatorSubspace | None) -> bool:
    """w v <= bound, for a c x k subspace w, a k x d subspace v and a c x d
    bound, or None for the zero subspace.  The product is spanned by the
    products w_i v_j, so each is tested on its own against the bound's
    canonical echelon, with no elimination and no canonical basis; a zero
    product is skipped, since `_reduce` hands the zero row back unchanged."""
    c, d = w.codomain_dim, v.domain_dim
    if w.domain_dim != v.codomain_dim:
        raise ExactError("inner dimensions do not match")
    if bound is None:
        rows, pivots = (), ()
    elif (bound.domain_dim, bound.codomain_dim) != (d, c):
        raise ExactError(f"expected a {c}x{d} bound, got {bound.codomain_dim}x{bound.domain_dim}")
    else:
        rows, pivots = bound.rows, bound.pivots
    return all(_reduce(row, rows, pivots) is None
               for row in _products(w, v) if any(row[0]) or any(row[1]))


def subspace_adjoint(v: OperatorSubspace) -> OperatorSubspace:
    c, d = v.codomain_dim, v.domain_dim
    # Entry (j, i) of the d x c adjoint is the conjugate of entry (i, j).
    perm = [i * d + j for j in range(d) for i in range(c)]
    return span_of_rows(c, d, (([re[k] for k in perm], [-im[k] for k in perm])
                               for re, im in v.rows))


def _check_same_shape(v: OperatorSubspace, w: OperatorSubspace) -> None:
    if (v.domain_dim, v.codomain_dim) != (w.domain_dim, w.codomain_dim):
        raise ExactError("subspace shape mismatch")


def subspace_join(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    _check_same_shape(v, w)
    if v.dim < w.dim:
        v, w = w, v
    if not w.rows:
        return v
    return span_of_rows(v.domain_dim, v.codomain_dim, w.rows, v.rows, v.pivots)


def subspace_meet(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    """Exact intersection, by Zassenhaus' algorithm.

    The rows (a, a) for a in v and (b, 0) for b in w span {(a + b, a)}; its
    canonical echelon rows that vanish on the first half are (0, a) with a
    running over the canonical echelon of the intersection.
    """
    _check_same_shape(v, w)
    d, c = v.domain_dim, v.codomain_dim
    if not v.rows or not w.rows:
        return zero_subspace(d, c)
    n = d * c
    zeros = (0,) * n
    rows, pivots = _eliminate(((re + zeros, im + zeros) for re, im in w.rows), 2 * n,
                              [(re + re, im + im) for re, im in v.rows], v.pivots)
    first = next((k for k, pc in enumerate(pivots) if pc >= n), len(pivots))
    return OperatorSubspace(
        d, c, tuple((tuple(re[n:]), tuple(im[n:])) for re, im in rows[first:]),
        tuple(pc - n for pc in pivots[first:]),
    )


def subspace_leq(v: OperatorSubspace, w: OperatorSubspace) -> bool:
    """v <= w: rank(w + v) == dim w, that is every row of v reduces to zero on w."""
    _check_same_shape(v, w)
    return v.dim <= w.dim and all(_reduce(row, w.rows, w.pivots) is None for row in v.rows)


def hs_orthocomplement(v: OperatorSubspace) -> OperatorSubspace:
    """All b with tr(a^dagger b) = 0 for every a in v (Hilbert-Schmidt form).

    That is the nullspace of the conjugated rows, which are again a canonical
    echelon with the same pivots, since every pivot is real.
    """
    conj = [(re, [-y for y in im]) for re, im in v.rows]
    return span_of_rows(v.domain_dim, v.codomain_dim,
                        _null_rows(conj, v.pivots, v.domain_dim * v.codomain_dim))


def kronecker(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    """The span of all a (x) b for a in v and b in w.

    No elimination is needed: for canonical echelons v and w, the products of
    their rows are again in reduced row echelon form.  The first nonzero entry of
    a (x) b sits at the pivots of a and b (row-major order of a Kronecker product
    compares the row of a, the row of b, the column of a, then the column of b),
    and the product vanishes at every other pair of pivots.  Only primitivity and
    the order of the rows need restoring.
    """
    c1, d1, c2, d2 = v.codomain_dim, v.domain_dim, w.codomain_dim, w.domain_dim
    zeros = [0] * d2
    b_mats = [
        ([(re[p * d2:(p + 1) * d2], im[p * d2:(p + 1) * d2]) for p in range(c2)], pb)
        for (re, im), pb in zip(w.rows, w.pivots)
    ]
    out = []
    for (are, aim), pa in zip(v.rows, v.pivots):
        a_rows = [list(zip(are[i * d1:(i + 1) * d1], aim[i * d1:(i + 1) * d1])) for i in range(c1)]
        for b_rows, pb in b_mats:
            re, im = [], []
            for a_row in a_rows:
                for b_re, b_im in b_rows:
                    for ar, ai in a_row:
                        if ar or ai:
                            re += [ar * x - ai * y for x, y in zip(b_re, b_im)]
                            im += [ar * y + ai * x for x, y in zip(b_re, b_im)]
                        else:
                            re += zeros
                            im += zeros
            (ia, ja), (ib, jb) = divmod(pa, d1), divmod(pb, d2)
            re, im = _primitive(re, im)
            out.append((((ia * c2 + ib) * d1 + ja) * d2 + jb, tuple(re), tuple(im)))
    out.sort()
    return OperatorSubspace(d1 * d2, c1 * c2, tuple((re, im) for _, re, im in out),
                            tuple(pc for pc, _, _ in out))
