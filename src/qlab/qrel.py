"""Quantum sets and quantum relations.

A quantum set is a finite family of positive dimensions (its atoms); a
quantum relation is a matrix of operator subspaces between the corresponding
matrix algebras.  This module adds the structure particular to this instance:
the blockwise orthocomplement, trace orthogonality, dagger kernels of sets of
morphisms and zero-monomorphisms.  As in `core`, an operation builds in the
instance it is given first; `instance()`, `qset` and `qmor` are constructors
for callers over a module-level instance that no operation reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .exact import (
    IntRow,
    OperatorSubspace,
    _int_rows,
    _primitive,
    full_subspace,
    nullspace,
    span_of,
    span_of_rows,
)
from .matr import MatrError, MatrInstance, MatrMorphism, MatrObject, qrel_instance

_INSTANCE = qrel_instance()


def instance() -> MatrInstance:
    return _INSTANCE


def qset(atoms: Iterable[tuple]) -> MatrObject:
    """A quantum set from (label, dimension) pairs."""
    comps = tuple(atoms)
    for _, d in comps:
        if not (type(d) is int and d > 0):
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

# An orthocomplement may hold up to (d_a d_b)^2 scalars per pair of atoms (the
# full subspace of a missing block), so it refuses inputs above this many.
_ORTHO_BOUND = 2**20


def orthocomplement(inst: MatrInstance, f: MatrMorphism) -> MatrMorphism:
    """Blockwise Hilbert-Schmidt orthocomplement; missing blocks complement
    to the full subspace.  Each block's complement is computed once by the
    base of `inst`, which builds the result.  Raises MatrError, before
    building any block, when the result could hold more than _ORTHO_BOUND
    scalars."""
    size = sum((oa * ob) ** 2 for _, oa in f.source.components for _, ob in f.target.components)
    if size > _ORTHO_BOUND:
        raise MatrError(
            f"orthocomplement could hold {size} scalars, the sum of (d_a*d_b)**2 over "
            f"pairs of atoms, above the bound {_ORTHO_BOUND}"
        )
    ortho = inst.base._orthocomplement
    bmap = f.block_map()
    blocks = {}
    for a, oa in f.source.components:
        for b, ob in f.target.components:
            v = bmap.get((a, b))
            if v is None:
                blocks[(a, b)] = full_subspace(oa, ob)
            else:
                blocks[(a, b)] = ortho(v)
    return inst.mor(f.source, f.target, blocks)


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _inner(u: IntRow, v: IntRow) -> tuple[int, int]:
    """The inner product u^dagger v of two Gaussian-integer vectors, as (re, im)."""
    (u_re, u_im), (v_re, v_im) = u, v
    return _dot(u_re, v_re) + _dot(u_im, v_im), _dot(u_re, v_im) - _dot(u_im, v_re)


def is_perp_blockwise(r: MatrMorphism, s: MatrMorphism) -> bool:
    """Hilbert-Schmidt orthogonality in every block position.

    tr(a^dagger b) is the inner product of vec a with vec b, so two blocks are
    orthogonal when every pair of their Gaussian-integer canonical rows has a
    zero inner product.
    """
    smap = s.block_map()
    for key, v in r.blocks:
        w = smap.get(key)
        if w is None:
            continue
        if any(_inner(a, b) != (0, 0) for a in v.rows for b in w.rows):
            return False
    return True


# -- dagger kernels ---------------------------------------------------------------

def _orthonormal_columns(cols: Sequence[IntRow]) -> IntRow:
    """The row-major vectorization of a matrix e with the same column span as
    the given linearly independent Gaussian-integer columns, whose columns are
    orthogonal with equal squared norm, so that e^dagger e is a scalar multiple of the identity
    (which is all span{e^dagger e} = span{id} needs)."""
    # Gram-Schmidt over Z[i]: v <- <u,u> v - <u,v> u is a positive multiple of
    # the rational step v - (<u,v>/<u,u>) u; each v is then made primitive.
    ortho: list[IntRow] = []
    for v in cols:
        for u in ortho:
            n, _ = _inner(u, u)
            pr, pi = _inner(u, v)
            v = _primitive([n * x - pr * a + pi * b for x, a, b in zip(v[0], *u)],
                           [n * y - pr * b - pi * a for y, a, b in zip(v[1], *u)])
        ortho.append(v)
    if len(ortho) > 1:
        norms = [_inner(u, u)[0] for u in ortho]
        # Only the ratios of the squared norms matter.  A ratio can be absorbed
        # by a Gaussian rational scalar exactly when it is a norm from Q(i),
        # i.e. when every prime congruent to 3 mod 4 appears to an even power;
        # the square-free product of the offending primes is the obstruction
        # class.
        sigs = {_norm_obstruction(n) for n in norms}
        if len(sigs) != 1:
            raise MatrError(
                "this kernel has no dagger-monic inclusion with Gaussian "
                "rational entries (column norms lie in different norm classes)"
            )
        # Column k is scaled by z_k = (x + y i) / den_k, where target / n_k =
        # num_k / den_k and x^2 + y^2 = num_k den_k, so |z_k|^2 n_k = target.
        # The two squares exist: num_k den_k is target n_k times a square, and
        # both target and n_k lie in the class target.  Scaling every column
        # by the lcm of the den_k as well leaves span{e} unchanged.
        target = sigs.pop()
        ratios = [Fraction(target, n) for n in norms]
        scale = lcm(*(q.denominator for q in ratios))
        for k, ((re, im), q) in enumerate(zip(ortho, ratios)):
            x, y = (t * (scale // q.denominator)
                    for t in _two_squares_int(q.numerator * q.denominator))
            ortho[k] = ([x * a - y * b for a, b in zip(re, im)],
                        [x * b + y * a for a, b in zip(re, im)])
    d = range(len(cols[0][0]))
    return [u[0][i] for i in d for u in ortho], [u[1][i] for i in d for u in ortho]


# Trial division and the two-squares search stop at this bound.  A cofactor
# below its square that has no smaller prime factor is prime.
_TRIAL_BOUND = 10**6


def _factor(n: int) -> dict[int, int]:
    """The prime factorization of the positive integer n, as prime -> exponent,
    by trial division below _TRIAL_BOUND.  Raises MatrError when that leaves a
    cofactor of _TRIAL_BOUND squared or more."""
    out: dict[int, int] = {}
    m, d = n, 2
    while d * d <= m:
        if d >= _TRIAL_BOUND:
            raise MatrError(
                f"cannot factor {n}, from the squared norms of the kernel columns: "
                f"a cofactor of at least {_TRIAL_BOUND}**2 has no prime factor below "
                f"the trial-division bound {_TRIAL_BOUND}"
            )
        while m % d == 0:
            m //= d
            out[d] = out.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _norm_obstruction(n: int) -> int:
    """The square-free product of the primes congruent to 3 mod 4 that occur
    to an odd power in the positive integer n; n is a sum of two squares
    exactly when this is 1."""
    return prod(p for p, e in _factor(n).items() if p % 4 == 3 and e % 2)


def _two_squares_int(n: int) -> tuple[int, int] | None:
    """(x, y) with x^2 + y^2 = n: the square part of n times the representation
    of its square-free part m with the least x, or None if there is none."""
    if n == 0:
        return (0, 0)
    factors = _factor(n)
    if any(p % 4 == 3 and e % 2 for p, e in factors.items()):
        return None
    square = prod(p ** (e // 2) for p, e in factors.items())
    m = prod(p for p, e in factors.items() if e % 2)
    a = 0
    while a * a <= m:
        if a >= _TRIAL_BOUND:
            raise MatrError(
                f"cannot write {m}, from the squared norms of the kernel columns, as "
                f"a sum of two squares a^2 + b^2 with a below the search bound "
                f"{_TRIAL_BOUND}"
            )
        b = isqrt(m - a * a)
        if b * b == m - a * a:
            return (square * a, square * b)
        a += 1
    return None


def dagger_kernel(inst: MatrInstance,
                  fs: Sequence[MatrMorphism]) -> tuple[MatrObject, MatrMorphism]:
    """The dagger kernel of a set of morphisms out of a common source X.

    Returns the kernel object (one atom per source atom with nonzero joint
    kernel, of dimension that kernel's dimension, labelled ("k", a) for the
    source atom a) and the dagger-monic inclusion into X, both built in inst.
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
        lab = ("k", a)
        dim = len(ker_cols)
        atoms.append((lab, dim))
        blocks[(lab, a)] = span_of_rows(dim, da, [_orthonormal_columns(ker_cols)])
    kernel_obj = inst.obj(atoms)
    return kernel_obj, inst.mor(kernel_obj, src, blocks)


def _joint_kernel(fs: Sequence[MatrMorphism], a, da: int) -> list[IntRow]:
    """Gaussian-integer columns spanning the joint kernel of every block of fs
    that leaves atom a (of dimension da); all of C^da when there is none.  They
    are the canonical nullspace basis, each scaled to Gaussian integers."""
    rows = [
        m.row(i)
        for f in fs
        for (x, _), v in f.blocks
        if x == a
        for m in v.basis
        for i in range(m.rows)
    ]
    return _int_rows(nullspace(rows, da))


def is_zero_mono(f: MatrMorphism) -> bool:
    """f is a zero-monomorphism: f o g = 0 forces g = 0.

    Equivalently every atom of the source has trivial joint kernel under f.
    """
    return not any(_joint_kernel([f], a, da) for a, da in f.source.components)


# -- distinguished examples ---------------------------------------------------------

def invertible_not_dagger_iso(inst: MatrInstance) -> tuple[MatrMorphism, MatrMorphism]:
    """A quantum relation on a one-atom quantum set of dimension 2 that is
    invertible (two-sided inverse) but not a dagger isomorphism: the spans of
    [[1, 1], [0, 1]] and of its inverse [[1, -1], [0, 1]]."""
    x = inst.obj([("x", 2)])
    a = span_of_rows(2, 2, [([1, 1, 0, 1], [0, 0, 0, 0])])
    a_inv = span_of_rows(2, 2, [([1, -1, 0, 1], [0, 0, 0, 0])])
    return inst.mor(x, x, {("x", "x"): a}), inst.mor(x, x, {("x", "x"): a_inv})
