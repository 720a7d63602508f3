"""Exact Gaussian-rational scalars, dense matrices and canonical operator subspaces.

Everything downstream (operator-subspace composition, kernels, orthocomplements,
traces) reduces to exact linear algebra over the field Q(i) implemented here.
Subspaces are kept in a canonical reduced-row-echelon form of their row-major
vectorizations, so subspace equality is plain value equality.

`GaussianRational` is the type at every function boundary.  Inside, elimination
(`rref`), matrix products and Kronecker products scale their inputs to Gaussian
integers over one common denominator, work on integer (re, im) pairs, and
divide by the denominator (or the pivot) once per output entry.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Sequence


class ExactError(ValueError):
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


def _frac_str(f: Fraction) -> str:
    return str(f)


def format_scalar(z: GaussianRational) -> str:
    """Serialize as "a/b+c/d i" with zero parts omitted."""
    if z.is_zero():
        return "0"
    if z.im == 0:
        return _frac_str(z.re)
    imag = "i" if abs(z.im) == 1 else f"{_frac_str(abs(z.im))} i"
    if z.re == 0:
        return imag if z.im > 0 else "-" + imag
    sign = "+" if z.im > 0 else "-"
    return f"{_frac_str(z.re)}{sign}{imag}"


_RATIONAL = r"\d+(?:/\d+)?"
# Either a pure real, a pure imaginary, or real followed by a signed
# imaginary; the sign requirement disambiguates "1/2i" (= (1/2)i) from
# "1/2+i".
_SCALAR_RE = _re.compile(
    rf"^(?:(?P<re>[+-]?{_RATIONAL})(?P<im>[+-](?:{_RATIONAL})?i)?"
    rf"|(?P<im_only>[+-]?(?:{_RATIONAL})?i))$"
)


def parse_scalar(text: str) -> GaussianRational:
    """Parse the serialization produced by :func:`format_scalar`.

    Whitespace anywhere in the string is ignored.
    """
    compact = "".join(text.split())
    if not compact:
        raise ExactError(f"empty scalar string {text!r}")
    m = _SCALAR_RE.match(compact)
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

    def is_zero(self) -> bool:
        return all(z.is_zero() for z in self.entries)

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactError("shape mismatch in addition")
        return ExactMatrix(
            self.rows, self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactError("shape mismatch in subtraction")
        return ExactMatrix(
            self.rows, self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def scale(self, s: GaussianRational) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(s * z for z in self.entries))

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

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ExactError("trace of a nonsquare matrix")
        acc = Q0
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        n, m = self.cols, other.cols
        a, da = _gaussian_ints(self.entries)
        b, db = _gaussian_ints(other.entries)
        den = da * db
        zeros = [Q0] * m
        out: list[GaussianRational] = []
        for i in range(self.rows):
            a_row = a[i * n:(i + 1) * n]
            for p in range(other.rows):
                b_row = b[p * m:(p + 1) * m]
                for ar, ai in a_row:
                    if ar or ai:
                        out.extend(_over(ar * br - ai * bi, ar * bi + ai * br, den)
                                   for br, bi in b_row)
                    else:
                        out.extend(zeros)
        return ExactMatrix(self.rows * other.rows, n * m, tuple(out))

    def vectorize(self) -> tuple[GaussianRational, ...]:
        """Row-major flattening."""
        return self.entries

    @staticmethod
    def from_vector(vec: Sequence[GaussianRational], rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, tuple(vec))

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(format_scalar(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        ) + "]"


Vector = tuple[GaussianRational, ...]
IntRow = tuple[list[int], list[int]]  # real and imaginary parts of a Gaussian-integer row


def _primitive(re: list[int], im: list[int]) -> IntRow | None:
    """The row divided by the gcd of all its parts; None for the zero row."""
    g = gcd(*re, *im)
    if g == 0:
        return None
    if g == 1:
        return re, im
    return [x // g for x in re], [y // g for y in im]


def _clear(row: IntRow, pivot: IntRow, col: int) -> IntRow | None:
    """Row r with r[col] cleared: primitive(p[col] r - r[col] p), where p[col] is real."""
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


def rref(rows: Iterable[Vector]) -> list[Vector]:
    """Reduced row echelon form with unit pivots and zero rows dropped.

    Fraction-free Gauss-Jordan elimination over Z[i]: each row is scaled to
    Gaussian integers, a row r is cleared against the pivot row p by
    r <- p[col] r - r[col] p, and every row is kept primitive (the gcd of its
    parts is 1), so entries stay small.  Each pivot row is multiplied by the
    conjugate of its pivot, which makes every pivot a real integer, and each row
    is divided by its pivot once at the end.
    """
    vecs = [tuple(r) for r in rows]
    if not vecs:
        return []
    ncols = len(vecs[0])
    if any(len(v) != ncols for v in vecs):
        raise ExactError("ragged vectors")
    rest: list[IntRow] = []
    for v in vecs:
        pairs, _ = _gaussian_ints(v)
        row = _primitive([x for x, _ in pairs], [y for _, y in pairs])
        if row is not None:
            rest.append(row)
    out: list[IntRow] = []
    pivots: list[int] = []
    for col in range(ncols):
        k = next((k for k, (re, im) in enumerate(rest) if re[col] or im[col]), None)
        if k is None:
            continue
        p_re, p_im = pivot = rest.pop(k)
        a, b = p_re[col], p_im[col]
        if b:
            pivot = _primitive(
                [x * a + y * b for x, y in zip(p_re, p_im)],
                [y * a - x * b for x, y in zip(p_re, p_im)],
            )
        rest = [r for r in (_clear(r, pivot, col) for r in rest) if r is not None]
        out = [_clear(r, pivot, col) for r in out]
        out.append(pivot)
        pivots.append(col)
    return [tuple(map(_over, re, im, repeat(re[pc]))) for (re, im), pc in zip(out, pivots)]


def nullspace(rows: Sequence[Vector], ncols: int) -> list[Vector]:
    """Canonical basis of {x : M x = 0} for the matrix M with the given rows."""
    reduced = rref(rows)
    pivots = []
    for r in reduced:
        pivots.append(next(i for i, z in enumerate(r) if not z.is_zero()))
    free = [j for j in range(ncols) if j not in pivots]
    basis: list[Vector] = []
    for j in free:
        vec = [Q0] * ncols
        vec[j] = Q1
        for r, p in zip(reduced, pivots):
            vec[p] = -r[j]
        basis.append(tuple(vec))
    return rref(basis)


@dataclass(frozen=True)
class OperatorSubspace:
    """A linear subspace of the codomain_dim x domain_dim matrices.

    The basis is the RREF (over row-major vectorizations) of any spanning set,
    so two equal subspaces are equal values.
    """

    domain_dim: int
    codomain_dim: int
    basis: tuple[ExactMatrix, ...]

    def __post_init__(self) -> None:
        if self.domain_dim < 0 or self.codomain_dim < 0:
            raise ExactError("dimensions must be nonnegative")
        for m in self.basis:
            if (m.rows, m.cols) != (self.codomain_dim, self.domain_dim):
                raise ExactError("basis matrix shape mismatch")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis


def canonical_basis(mats: Sequence[ExactMatrix], d: int, c: int) -> OperatorSubspace:
    """The span of the given c x d matrices, in canonical form."""
    for m in mats:
        if (m.rows, m.cols) != (c, d):
            raise ExactError(f"expected shape {c}x{d}, got {m.rows}x{m.cols}")
    vecs = rref([m.vectorize() for m in mats])
    return OperatorSubspace(
        d, c, tuple(ExactMatrix.from_vector(v, c, d) for v in vecs)
    )


def zero_subspace(d: int, c: int) -> OperatorSubspace:
    return OperatorSubspace(d, c, ())


def full_subspace(d: int, c: int) -> OperatorSubspace:
    return canonical_basis(
        [ExactMatrix.unit(c, d, i, j) for i in range(c) for j in range(d)], d, c
    )


def span_of(*mats: ExactMatrix) -> OperatorSubspace:
    if not mats:
        raise ExactError("span_of needs at least one matrix to infer the shape")
    return canonical_basis(list(mats), mats[0].cols, mats[0].rows)


def subspace_product(w: OperatorSubspace, v: OperatorSubspace) -> OperatorSubspace:
    """Composite subspace: span of all pairwise products w_i v_j."""
    if w.domain_dim != v.codomain_dim:
        raise ExactError("inner dimensions do not match")
    prods = [wm @ vm for wm in w.basis for vm in v.basis]
    return canonical_basis(prods, v.domain_dim, w.codomain_dim)


def subspace_adjoint(v: OperatorSubspace) -> OperatorSubspace:
    return canonical_basis(
        [m.adjoint() for m in v.basis], v.codomain_dim, v.domain_dim
    )


def _check_same_shape(v: OperatorSubspace, w: OperatorSubspace) -> None:
    if (v.domain_dim, v.codomain_dim) != (w.domain_dim, w.codomain_dim):
        raise ExactError("subspace shape mismatch")


def subspace_join(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    _check_same_shape(v, w)
    return canonical_basis(list(v.basis) + list(w.basis), v.domain_dim, v.codomain_dim)


def subspace_meet(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    """Exact intersection, computed by De Morgan duality for the HS form."""
    _check_same_shape(v, w)
    return hs_orthocomplement(
        subspace_join(hs_orthocomplement(v), hs_orthocomplement(w))
    )


def subspace_leq(v: OperatorSubspace, w: OperatorSubspace) -> bool:
    _check_same_shape(v, w)
    return subspace_join(v, w) == w


def hs_orthocomplement(v: OperatorSubspace) -> OperatorSubspace:
    """All b with tr(a^dagger b) = 0 for every a in v (Hilbert-Schmidt form)."""
    n = v.domain_dim * v.codomain_dim
    rows = [tuple(z.conjugate() for z in m.vectorize()) for m in v.basis]
    vecs = nullspace(rows, n)
    return OperatorSubspace(
        v.domain_dim, v.codomain_dim,
        tuple(ExactMatrix.from_vector(x, v.codomain_dim, v.domain_dim) for x in vecs),
    )


def kronecker(v: OperatorSubspace, w: OperatorSubspace) -> OperatorSubspace:
    prods = [a.kron(b) for a in v.basis for b in w.basis]
    return canonical_basis(
        prods, v.domain_dim * w.domain_dim, v.codomain_dim * w.codomain_dim
    )


def commutation_matrix(m: int, n: int) -> ExactMatrix:
    """The permutation taking e_i (x) e_j in C^m (x) C^n to e_j (x) e_i."""
    size = m * n
    ent = [Q0] * (size * size)
    for i in range(m):
        for j in range(n):
            ent[(j * m + i) * size + (i * n + j)] = Q1
    return ExactMatrix(size, size, tuple(ent))
