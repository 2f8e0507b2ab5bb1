"""Stiffness and mass assembly for uniform maximum-continuity B-spline
spaces on [0, 1] (and tensor squares on the unit square).

On a uniform open-knot mesh the basis on element e depends only on its
type (min(e, p), min(N - 1 - e, p)): at most 2p + 1 types, fewer on a
mesh of under 2p + 1 elements.  A rule from the quadrature module enters
only through its moments, applied exactly to the integer product
polynomials of each type's pieces (quadrature._type_basis), and each
local entry is rounded once to longdouble (numpy's extended precision);
the local matrices are kept per degree, rule and type set.  Assembly
adds them into the band arrays by element type, in element order, scaled
by N for the stiffness and 1/N for the mass, so the bands are those of a
scalar element loop over the rounded local entries, and no quadrature
node is built.  Homogeneous Dirichlet
conditions drop the first and last basis functions.  Matrices are stored
in symmetric lower band form, which is all the bandwidth these
discretizations ever need, and a pencil reaches the eigensolver only as
its double-precision copy in LAPACK's lower band storage (to_bands).  The
2D pair is a sum of Kronecker products of the 1D band pair, applied
through the 1D band products and never formed, copied or solved: its
spectrum is the tensor sums of the 1D one, and only --verify-kron
applies it, to tensor pairs of 1D modes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath.libmp import from_int, mpf_div, round_nearest

from igadmm.quadrature import (QuadratureRule, _mpf_to_fraction, _times, _type_basis,
                                optimal_blend)
from igadmm.splines import BSplineSpace


@dataclass(frozen=True)
class SymBandMatrix:
    """Symmetric band matrix in lower storage.

    bands has shape (halfband + 1, n): bands[d, j] holds entry (j + d, j),
    the d-th subdiagonal.  Entries are longdouble.
    """

    bands: np.ndarray

    @property
    def n(self) -> int:
        return self.bands.shape[1]

    @property
    def halfband(self) -> int:
        return len(self.bands) - 1

    def to_bands(self) -> np.ndarray:
        """Double-precision copy of bands: LAPACK's lower symmetric band
        storage, half-band p."""
        return self.bands.astype(np.float64)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x in longdouble, for a vector or an n x m block of columns."""
        x = np.asarray(x, dtype=np.longdouble)
        bands = self.bands.reshape(self.bands.shape + (1,) * (x.ndim - 1))
        y = bands[0] * x
        for d in range(1, self.halfband + 1):
            y[d:] += bands[d, : self.n - d] * x[: self.n - d]
            y[: self.n - d] += bands[d, : self.n - d] * x[d:]
        return y


@dataclass(frozen=True)
class MatrixPair:
    """Reduced (Dirichlet) stiffness and mass matrices for one space: band
    matrices on [0, 1], Kronecker sums of them on the unit square."""

    space: BSplineSpace
    stiffness: SymBandMatrix | KroneckerSum
    mass: SymBandMatrix | KroneckerSum


# significand bits of a longdouble: 64 for x87 extended precision
_DIGITS = np.finfo(np.longdouble).nmant + 1


def _round(num: int, den: int) -> np.longdouble:
    """num / den, den > 0, correctly rounded to longdouble: one mpmath
    division of the exact integers at the longdouble's significand width,
    rounding to nearest; numpy converts the integer significand exactly."""
    sign, man, exp, _ = mpf_div(from_int(num), from_int(den), _DIGITS, round_nearest)
    value = np.ldexp(np.longdouble(man), exp)
    return -value if sign else value


@lru_cache(maxsize=None)
def _local_matrices(p: int, rule: QuadratureRule, types: tuple) -> np.ndarray:
    """The rule's local stiffness and mass matrices of each element type,
    on the reference element [0, 1] (no h), read-only: entry [0, t, a, b]
    is the rule applied to phi'_a phi'_b of type types[t], entry
    [1, t, a, b] to phi_a phi_b, b >= a, each exact and rounded once.

    The rule enters through its moments of u = 2x - 1 alone, as for the
    induced rows: exact Fractions for the classical families, and a
    blend's or point rule's mpf moments taken at their exact binary
    value, all over one common integer denominator, so each entry is one
    integer dot product with the product of two integer polynomials of
    quadrature._type_basis.  Kept for the process: a type set is the
    same for every mesh of 2p + 1 or more elements.
    """
    moments = [m if isinstance(m, Fraction) else _mpf_to_fraction(m)
               for m in rule.moments(2 * p + 1)]
    scale = math.lcm(*(m.denominator for m in moments))
    moments = [m.numerator * (scale // m.denominator) for m in moments]
    local = np.zeros((2, len(types), p + 1, p + 1), dtype=np.longdouble)
    for t, (left, right) in enumerate(types):
        den, *forms = _type_basis(p, left, right)
        for f, basis in enumerate(forms):
            for a in range(p + 1):
                for b in range(a, p + 1):
                    product = _times(basis[a], basis[b])
                    local[f, t, a, b] = _round(sum(map(operator.mul, product, moments)),
                                               scale * den * den)
    local.flags.writeable = False  # shared by every mesh of the type set
    return local


def _assemble_full(bands: np.ndarray, local: np.ndarray, types: np.ndarray) -> np.ndarray:
    """Add local[types[e]] of every element e into the full (no boundary
    condition) band array of one bilinear form, in place, and return it.

    bands has shape (p + 1, N + p), local (number of types, p + 1,
    p + 1), its entries (a, b), b >= a, the form on the functions e + a
    and e + b of an element of that type; types gives each element's.
    bands[d, e + a] collects element e's entry (a, a + d).  Looping a
    downwards adds into each band entry element by element, in element
    order: the order of a scalar element loop, so the sums are rounded
    identically.
    """
    p, N = len(bands) - 1, len(types)
    for d in range(p + 1):
        for a in range(p - d, -1, -1):
            bands[d, a: a + N] += local[types, a, a + d]
    return bands


def assemble_1d(space: BSplineSpace, rule: QuadratureRule) -> MatrixPair:
    """Assemble the Dirichlet stiffness/mass pair, both forms with one rule.

    The rule may be any QuadratureRule, including blends with signed
    weights; it enters through its moments only (_local_matrices).
    """
    p, N = space.p, space.N
    # element e has type (min(e, p), min(N - 1 - e, p)), coded (p + 1) l + r
    left = np.minimum(np.arange(N), p)
    codes, types = np.unique(left * (p + 1) + left[::-1], return_inverse=True)
    local = _local_matrices(p, rule, tuple(divmod(int(c), p + 1) for c in codes))
    # the derivatives carry 1/h twice and dx one h: N for the stiffness,
    # 1/N for the mass
    K = _assemble_full(np.zeros((p + 1, N + p), dtype=np.longdouble), local[0] * N, types)
    M = _assemble_full(np.zeros_like(K), local[1] / N, types)
    # Dirichlet conditions drop the first and last basis functions
    return MatrixPair(space, SymBandMatrix(K[:, 1:-1]), SymBandMatrix(M[:, 1:-1]))


def assemble_1d_dmm(space: BSplineSpace) -> MatrixPair:
    """Assemble with the dispersion-minimized discretization.

    Both forms are evaluated elementwise with the optimally blended
    Legendre/Lobatto rule.  Its polynomial exactness (2p-1) integrates the
    stiffness form exactly everywhere and keeps the boundary mass rows
    consistent; interior mass rows telescope to the minimized stencil.
    The tabulated minimizing point rules reproduce the same interior rows
    but have no polynomial exactness, so on the boundary elements, whose
    basis functions are not uniform translates, they commit O(1) errors
    that destroy the superconvergent eigenvalue rates.  They are therefore
    kept for stencil verification only.
    """
    return assemble_1d(space, optimal_blend(space.p, "gl"))


# largest 2D unknown count assemble_2d builds a Kronecker pair for, a
# guard against accidentally huge operators.  The only work on the pair,
# the --verify-kron quotients, holds 12 tensor pairs of n = dim^2 entries
# each in longdouble and takes O(n p) operations a pair.  At the limit,
# N = 128 at p = 2, `study-2d -p 2 --meshes 8,16 --verify-kron 128` takes
# 0.16 s and 56 MB peak RSS in process on a 2-vCPU x86-64 VM (one BLAS
# thread), the 1D solve included
KRON_MAX_DIM = 16384


@dataclass(frozen=True)
class KroneckerSum:
    """Sum of Kronecker products A (x) B of equal-shaped band matrices,
    applied only: no band copy is taken and no solver reads it.

    Unknown (i, j) of the square is entry i * B.n + j of A (x) B, so for
    symmetric B the product is (A (x) B) vec(X) = vec(A X B), X of shape
    (A.n, B.n): two 1D band products per term, no n^2 x n^2 array.
    """

    terms: tuple[tuple[SymBandMatrix, SymBandMatrix], ...]

    @property
    def n(self) -> int:
        A, B = self.terms[0]
        return A.n * B.n

    # shape and nbytes answer as an array would, for callers that size one
    # (the benchmark's layer tracer reads both)
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nbytes(self) -> int:
        """Bytes of the distinct band arrays held."""
        held = {id(m): m.bands.nbytes for term in self.terms for m in term}
        return sum(held.values())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product in longdouble, for a vector or an n x m block of
        columns; B acts on the second axis of X, swapped to the front."""
        A, B = self.terms[0]
        x = np.asarray(x, dtype=np.longdouble)
        X = x.reshape((A.n, B.n) + x.shape[1:])
        return sum(B.matvec(A.matvec(X).swapaxes(0, 1)).swapaxes(0, 1)
                   for A, B in self.terms).reshape(x.shape)


def assemble_2d(pair: MatrixPair) -> MatrixPair:
    """Tensor-product pair of a 1D pair: K2 = K (x) M + M (x) K, M2 = M (x) M.

    Both are KroneckerSum operators over the 1D band matrices.  KRON_MAX_DIM
    caps the 2D unknown count dim^2, against accidentally huge operators.
    """
    n = pair.stiffness.n
    if n * n > KRON_MAX_DIM:
        raise ValueError(f"2D dimension {n * n} exceeds limit {KRON_MAX_DIM}")
    K, M = pair.stiffness, pair.mass
    return MatrixPair(pair.space, KroneckerSum(((K, M), (M, K))), KroneckerSum(((M, M),)))
