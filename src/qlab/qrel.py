"""Quantum sets and quantum relations.

A quantum set is a finite family of positive dimensions (its atoms); a
quantum relation is a matrix of operator subspaces between the corresponding
matrix algebras.  This module adds the structure particular to this instance:
the blockwise orthocomplement, trace orthogonality, dagger kernels of sets of
morphisms, zero-monomorphisms, and the classical truth-value correspondence.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .calculus import BiproductData, map_from_test, omega_data, test_from_map
from .exact import (
    ExactError,
    ExactMatrix,
    GaussianRational,
    OperatorSubspace,
    full_subspace,
    hs_orthocomplement,
    nullspace,
    span_of,
)
from .matr import MatrError, MatrInstance, MatrMorphism, MatrObject, qrel_instance

_INSTANCE = qrel_instance()


def instance() -> MatrInstance:
    return _INSTANCE


def qset(atoms: Iterable[tuple]) -> MatrObject:
    """A quantum set from (label, dimension) pairs."""
    comps = tuple(atoms)
    for _, d in comps:
        if not (isinstance(d, int) and d > 0):
            raise MatrError(f"atom dimensions must be positive integers, got {d!r}")
    return _INSTANCE.obj(comps)


def qmor(src: MatrObject, tgt: MatrObject, blocks: dict) -> MatrMorphism:
    """A quantum relation from a dict of (atom, atom) -> operator subspace
    (or an iterable of matrices to span)."""
    norm = {}
    for key, val in blocks.items():
        if isinstance(val, OperatorSubspace):
            norm[key] = val
        else:
            norm[key] = span_of(*val)
    return _INSTANCE.mor(src, tgt, norm)


# -- orthocomplement ---------------------------------------------------------

def orthocomplement(f: MatrMorphism) -> MatrMorphism:
    """Blockwise Hilbert-Schmidt orthocomplement; missing blocks complement
    to the full subspace."""
    inst = _INSTANCE
    bmap = f.block_map()
    blocks = {}
    for a, oa in f.source.components:
        for b, ob in f.target.components:
            v = bmap.get((a, b))
            if v is None:
                blocks[(a, b)] = full_subspace(oa, ob)
            else:
                blocks[(a, b)] = hs_orthocomplement(v)
    return inst.mor(f.source, f.target, blocks)


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def is_perp_blockwise(r: MatrMorphism, s: MatrMorphism) -> bool:
    """Hilbert-Schmidt orthogonality in every block position.

    tr(a^dagger b) is the dot product of the conjugate of vec a with vec b, so
    two blocks are orthogonal when every pair of their Gaussian-integer
    canonical rows has a zero such product.
    """
    smap = s.block_map()
    for key, v in r.blocks:
        w = smap.get(key)
        if w is None:
            continue
        for a_re, a_im in v.rows:
            for b_re, b_im in w.rows:
                if (_dot(a_re, b_re) + _dot(a_im, b_im)
                        or _dot(a_re, b_im) - _dot(a_im, b_re)):
                    return False
    return True


# -- dagger kernels ---------------------------------------------------------------

def _column_stack(cols: Sequence[ExactMatrix]) -> ExactMatrix:
    rows = cols[0].rows
    entries = []
    for i in range(rows):
        for c in cols:
            entries.append(c.at(i, 0))
    return ExactMatrix(rows, len(cols), tuple(entries))


def _orthonormal_columns(cols: Sequence[ExactMatrix]) -> ExactMatrix:
    """A matrix e with the same column span whose columns are orthogonal with
    equal squared norm, so that e^dagger e is a scalar multiple of the
    identity (which is all span{e^dagger e} = span{id} needs)."""
    # Gram-Schmidt orthogonalization, exact.
    ortho: list[ExactMatrix] = []
    for c in cols:
        v = c
        for u in ortho:
            num = (u.adjoint() @ v).at(0, 0)
            den = (u.adjoint() @ u).at(0, 0)
            v = v - u.scale(num / den)
        if v.is_zero():
            raise ExactError("columns are linearly dependent")
        ortho.append(v)
    if len(ortho) == 1:
        return _column_stack(ortho)
    norms = [(u.adjoint() @ u).at(0, 0).re for u in ortho]
    # Only the ratios of the squared norms matter.  A ratio can be absorbed by
    # a Gaussian rational scalar exactly when it is a norm from Q(i), i.e.
    # when every prime congruent to 3 mod 4 appears to an even power; the
    # square-free product of the offending primes is the obstruction class.
    sigs = [_norm_obstruction(n) for n in norms]
    if len(set(sigs)) != 1:
        raise MatrError(
            "this kernel has no dagger-monic inclusion with Gaussian "
            "rational entries (column norms lie in different norm classes)"
        )
    target = Fraction(sigs[0])
    scaled: list[ExactMatrix] = []
    for u, n in zip(ortho, norms):
        factor = _two_squares(target / n)
        if factor is None:
            raise MatrError("norm ratio unexpectedly failed to split as two squares")
        scaled.append(u.scale(factor))
    return _column_stack(scaled)


def _norm_obstruction(n: Fraction) -> int:
    """The square-free product of the primes congruent to 3 mod 4 that occur
    to an odd power in n; n is a norm from Q(i) exactly when this is 1."""
    m = n.numerator * n.denominator
    out = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            count = 0
            while m % d == 0:
                m //= d
                count += 1
            if d % 4 == 3 and count % 2 == 1:
                out *= d
        d += 1
    if m > 1 and m % 4 == 3:
        out *= m
    return out


def _two_squares(q: Fraction) -> GaussianRational | None:
    """A Gaussian rational with squared modulus q, if one exists."""
    # q = a/b; a/b = a*b / b^2, so it suffices to write the integer a*b as a
    # sum of two squares and divide by b.
    n = q.numerator * q.denominator
    rep = _two_squares_int(n)
    if rep is None:
        return None
    x, y = rep
    return GaussianRational(Fraction(x, q.denominator), Fraction(y, q.denominator))


def _two_squares_int(n: int) -> tuple[int, int] | None:
    if n == 0:
        return (0, 0)
    # Strip square factors, check the classical two-squares criterion, then
    # search; the remaining square-free part is small in practice.
    square = 1
    rest = n
    d = 2
    while d * d <= rest:
        while rest % (d * d) == 0:
            rest //= d * d
            square *= d
        d += 1
    m = rest
    dd = 2
    mm = m
    while dd * dd <= mm:
        if mm % dd == 0:
            count = 0
            while mm % dd == 0:
                mm //= dd
                count += 1
            if dd % 4 == 3 and count % 2 == 1:
                return None
        dd += 1
    if mm % 4 == 3:
        return None
    a = 0
    while a * a <= m:
        b2 = m - a * a
        b = int(b2 ** 0.5)
        for cand in (b - 1, b, b + 1):
            if cand >= 0 and cand * cand == b2:
                return (square * a, square * cand)
        a += 1
    return None


def dagger_kernel(
    fs: Sequence[MatrMorphism], label_prefix: str = "k"
) -> tuple[MatrObject, MatrMorphism]:
    """The dagger kernel of a set of morphisms out of a common source X.

    Returns the kernel object (one atom per source atom with nonzero joint
    kernel, of dimension that kernel's dimension) and the dagger-monic
    inclusion into X.
    """
    if not fs:
        raise MatrError("dagger kernel needs at least one morphism")
    src = fs[0].source
    for f in fs:
        if f.source != src:
            raise MatrError("all morphisms must share the source")
    atoms = []
    blocks = {}
    for a, da in src.components:
        ker_cols = _joint_kernel(fs, a, da)
        if not ker_cols:
            continue
        lab = (label_prefix, a)
        dim = len(ker_cols)
        atoms.append((lab, dim))
        e = _orthonormal_columns(ker_cols)
        blocks[(lab, a)] = span_of(e)
    kernel_obj = _INSTANCE.obj(atoms)
    incl = _INSTANCE.mor(kernel_obj, src, blocks)
    return kernel_obj, incl


def _joint_kernel(fs: Sequence[MatrMorphism], a, da: int) -> list[ExactMatrix]:
    """Canonical columns spanning the joint kernel of every block of fs that
    leaves atom a (of dimension da); all of C^da when there is none."""
    rows = [
        m.row(i)
        for f in fs
        for (x, _), v in f.blocks
        if x == a
        for m in v.basis
        for i in range(m.rows)
    ]
    return [ExactMatrix.from_vector(v, da, 1) for v in nullspace(rows, da)]


def is_zero_mono(f: MatrMorphism) -> bool:
    """f is a zero-monomorphism: f o g = 0 forces g = 0.

    Equivalently every atom of the source has trivial joint kernel under f.
    """
    return not any(_joint_kernel([f], a, da) for a, da in f.source.components)


# -- classical truth values --------------------------------------------------------

def qrel_omega() -> BiproductData:
    return omega_data(_INSTANCE)


def effect_to_map(data: BiproductData, r: MatrMorphism) -> MatrMorphism:
    """An effect X -> I becomes the map X -> I (+) I pairing its
    orthocomplement with it."""
    return map_from_test(_INSTANCE, data, r, orthocomplement)


def map_to_effect(data: BiproductData, f: MatrMorphism) -> MatrMorphism:
    return test_from_map(_INSTANCE, data, f)


# -- distinguished examples ---------------------------------------------------------

def invertible_not_dagger_iso() -> tuple[MatrMorphism, MatrMorphism]:
    """A quantum relation on a one-atom quantum set of dimension 2 that is
    invertible (two-sided inverse) but not a dagger isomorphism."""
    x = qset([("x", 2)])
    a = ExactMatrix.from_ints([[1, 1], [0, 1]])
    a_inv = ExactMatrix.from_ints([[1, -1], [0, 1]])
    v = qmor(x, x, {("x", "x"): span_of(a)})
    w = qmor(x, x, {("x", "x"): span_of(a_inv)})
    return v, w
