"""Stiffness and mass assembly for uniform maximum-continuity B-spline
spaces on [0, 1] (and tensor squares on the unit square).

Quadrature runs in extended precision (numpy longdouble) with any rule
from the quadrature module, on basis tables of splines._ELEMENT_BLOCK
elements at a time: one table pass per block gives the values for the
mass form and the derivatives for the stiffness form, and both forms add
the block's products into their band arrays, so no table of the whole
mesh is held.  The band entries are summed element by element, nodes in
rule order, so they are bitwise those of a scalar element loop, whatever
the block size.  Homogeneous Dirichlet
conditions drop the first and last basis functions.  Matrices are stored
in symmetric lower band form, which is all the bandwidth these
discretizations ever need, and a pencil reaches the eigensolver only as
its double-precision copy in LAPACK's lower band storage (to_bands).  The
2D pair is a sum of Kronecker products of the 1D band pair, applied
through the 1D band products and never formed as a product: its band
copy, half-band p n1 + p, is expanded to a dense array only for a small
pencil's dense solve, and of a large one only the stiffness is copied;
the mass is factored through its 1D factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from igadmm.quadrature import QuadratureRule, optimal_blend
from igadmm.splines import _ELEMENT_BLOCK, BSplineSpace, basis_table


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


def _assemble_full(bands: np.ndarray, wh: np.ndarray, table: np.ndarray,
                   lo: int) -> np.ndarray:
    """Add the products of elements lo.. lo + len(table) - 1 into the full
    (no boundary condition) band array of one bilinear form, in place, and
    return it.

    bands has shape (p + 1, N + p); wh holds the rule's weights times h,
    table[i, k, a] basis function lo + i + a (values for the mass form,
    physical derivatives for the stiffness form) at node k of element
    lo + i, as ``basis_table`` gives them for that slice.  Open knot
    vectors modify the basis near the boundary, so every element has its
    own table rows; the mesh sizes are small enough that nothing is gained
    by caching the interior local matrix.
    """
    count, _, width = table.shape
    p = width - 1
    # bands[d, e + a] collects element e's products of functions e + a and
    # e + a + d.  Looping a downwards and then over the nodes adds into each
    # entry element by element, nodes in rule order: the order of a scalar
    # element loop, so the sums are rounded identically; a later block
    # holds later elements only, so calls in element order keep that order
    for d in range(p + 1):
        for a in range(p - d, -1, -1):
            contrib = wh * (table[:, :, a] * table[:, :, a + d])
            entries = bands[d, lo + a: lo + a + count]  # a view: adds land in bands
            for k in range(len(wh)):
                entries += contrib[:, k]
    return bands


def assemble_1d(space: BSplineSpace, rule: QuadratureRule) -> MatrixPair:
    """Assemble the Dirichlet stiffness/mass pair, both forms with one rule.

    The rule may be any QuadratureRule, including blends with signed
    weights.
    """
    nodes, weights = rule.as_longdouble()
    p, N = space.p, space.N
    wh = weights * (np.longdouble(1) / N)
    K = np.zeros((p + 1, N + p), dtype=np.longdouble)
    M = np.zeros_like(K)
    # one table pass per block gives both forms; derivatives are physical
    # (1/h lives in the basis), so both pick up only the Jacobian h from dx
    for lo in range(0, N, _ELEMENT_BLOCK):
        _, values, derivatives = basis_table(space, nodes, slice(lo, lo + _ELEMENT_BLOCK))
        _assemble_full(K, wh, derivatives, lo)
        _assemble_full(M, wh, values, lo)
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


def _band_row(A: SymBandMatrix, d: int) -> np.ndarray:
    """Entries (j + d, j) of A for j = 0..n-1, d of either sign, zero where
    j + d falls outside 0..n-1."""
    row = np.zeros(A.n, dtype=np.longdouble)
    if d >= 0:
        row[: A.n - d] = A.bands[d, : A.n - d]
    else:
        row[-d:] = A.bands[-d, : A.n + d]
    return row


# largest 2D unknown count assemble_2d builds a Kronecker pencil for: the
# band Cholesky factor of the stiffness in the Lanczos solve, half-band
# p (N + p - 2) + p, grows as n^1.5 in memory and n^2 in time.  At the
# limit, N = 128 at p = 2, `study-2d -p 2 --meshes 8,16 --verify-kron 128`
# takes 1.0-1.1 s and 111 MB peak RSS in process on a 2-vCPU x86-64 VM
# (one BLAS thread)
KRON_MAX_DIM = 16384


@dataclass(frozen=True)
class KroneckerSum:
    """Sum of Kronecker products A (x) B of equal-shaped band matrices.

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

    def to_bands(self) -> np.ndarray:
        """Double-precision copy in LAPACK's lower symmetric band storage,
        half-band p B.n + p; each entry is the sum of its terms' products,
        formed in longdouble and rounded once."""
        m, p = self.terms[0][1].n, self.terms[0][1].halfband
        out = np.zeros((p * m + p + 1, self.n))
        # entry (c + di m + dj, c) of column c = (i, j) is the sum over the
        # terms of A[i + di, i] B[j + dj, j]; on a coarse mesh (m <= 2p) two
        # offsets share a band row, but never an entry
        for di in range(p + 1):
            for dj in range(-p if di else 0, p + 1):
                out[di * m + dj] += sum(np.outer(_band_row(A, di), _band_row(B, dj))
                                        for A, B in self.terms).ravel()
        return out


def assemble_2d(pair: MatrixPair) -> MatrixPair:
    """Tensor-product pair of a 1D pair: K2 = K (x) M + M (x) K, M2 = M (x) M.

    Both are KroneckerSum operators over the 1D band matrices.  KRON_MAX_DIM
    caps the 2D unknown count dim^2, against accidentally huge pencils for
    the eigensolver.
    """
    n = pair.stiffness.n
    if n * n > KRON_MAX_DIM:
        raise ValueError(f"2D dimension {n * n} exceeds limit {KRON_MAX_DIM}")
    K, M = pair.stiffness, pair.mass
    return MatrixPair(pair.space, KroneckerSum(((K, M), (M, K))), KroneckerSum(((M, M),)))
