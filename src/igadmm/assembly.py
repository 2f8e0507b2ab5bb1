"""Stiffness and mass assembly for uniform maximum-continuity B-spline
spaces on [0, 1] (and tensor squares on the unit square).

Quadrature runs in extended precision (numpy longdouble) with any rule
from the quadrature module, on a basis table of all elements at once; the
band entries are summed element by element, nodes in rule order, so they
are bitwise those of a scalar element loop.  Homogeneous Dirichlet
conditions drop the first and last basis functions.  Matrices are stored
in symmetric lower band form, which is all the bandwidth these
discretizations ever need.  The 2D pair is a sum of Kronecker products of
the 1D band pair, applied through the 1D band products and never formed:
an n^2 x n^2 array exists only when a small pencil asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from igadmm.quadrature import QuadratureRule, optimal_blend
from igadmm.splines import BSplineSpace, basis_table


@dataclass(frozen=True)
class SymBandMatrix:
    """Symmetric band matrix in lower storage.

    bands has shape (halfband + 1, n): bands[d, j] holds entry (j + d, j),
    the d-th subdiagonal.  Entries are longdouble.
    """

    n: int
    halfband: int
    bands: np.ndarray

    def __post_init__(self):
        if self.bands.shape != (self.halfband + 1, self.n):
            raise ValueError(
                f"bands shape {self.bands.shape} does not match "
                f"(halfband+1, n) = {(self.halfband + 1, self.n)}"
            )

    def to_dense(self, dtype=np.longdouble) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=dtype)
        for d in range(self.halfband + 1):
            for j in range(self.n - d):
                out[j + d, j] = self.bands[d, j]
                out[j, j + d] = self.bands[d, j]
        return out

    @classmethod
    def from_dense(cls, A) -> "SymBandMatrix":
        """Full band (halfband n - 1) of a dense symmetric matrix, read from
        its lower triangle."""
        A = np.asarray(A, dtype=np.longdouble)
        n = A.shape[0]
        bands = np.zeros((n, n), dtype=np.longdouble)
        for d in range(n):
            bands[d, : n - d] = np.diagonal(A, -d)
        return cls(n, n - 1, bands)

    def to_csc(self):
        """Double-precision compressed sparse column copy."""
        import scipy.sparse

        offsets = range(-self.halfband, self.halfband + 1)
        bands = self.bands.astype(np.float64)
        return scipy.sparse.diags_array([bands[abs(d), : self.n - abs(d)] for d in offsets],
                                        offsets=offsets, format="csc")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x in longdouble, for a vector or an n x m block of columns."""
        x = np.asarray(x, dtype=np.longdouble)
        bands = self.bands.reshape(self.bands.shape + (1,) * (x.ndim - 1))
        y = bands[0] * x
        for d in range(1, self.halfband + 1):
            y[d:] += bands[d, : self.n - d] * x[: self.n - d]
            y[: self.n - d] += bands[d, : self.n - d] * x[d:]
        return y

    def entry(self, i: int, j: int):
        lo, hi = min(i, j), max(i, j)
        d = hi - lo
        if d > self.halfband:
            return np.longdouble(0)
        return self.bands[d, lo]


@dataclass(frozen=True)
class MatrixPair:
    """Reduced (Dirichlet) stiffness and mass matrices for one space."""

    space: BSplineSpace
    stiffness: SymBandMatrix
    mass: SymBandMatrix
    stiffness_rule: str
    mass_rule: str


def _rule_points_longdouble(rule: QuadratureRule):
    # mpf -> repr string -> longdouble keeps all 18-19 usable digits
    nodes = np.array([np.longdouble(mp_str) for mp_str in
                      (_mp_repr(x) for x, _ in rule._mp_pairs())])
    weights = np.array([np.longdouble(mp_str) for mp_str in
                        (_mp_repr(w) for _, w in rule._mp_pairs())])
    return nodes, weights


def _mp_repr(x) -> str:
    from mpmath import nstr

    if hasattr(x, "_mpf_"):
        return nstr(x, 25)
    return repr(float(x))


def _assemble_full(space: BSplineSpace, rule: QuadratureRule, form: str) -> np.ndarray:
    """Full (no boundary condition) band array for one bilinear form.

    Open knot vectors modify the basis near the boundary, so every element
    gets its own basis table; the mesh sizes are small enough that nothing
    is gained by caching the interior local matrix.
    """
    p, N = space.p, space.N
    nodes, weights = _rule_points_longdouble(rule)
    _, table = basis_table(space, nodes, derivative=form == "stiffness")
    # derivatives are physical (1/h lives in the basis), so both forms only
    # pick up the Jacobian h from dx
    wh = weights * (np.longdouble(1) / N)
    bands = np.zeros((p + 1, space.dim_full), dtype=np.longdouble)
    # bands[d, e + a] collects element e's products of functions e + a and
    # e + a + d.  Looping a downwards and then over the nodes adds into each
    # entry element by element, nodes in rule order: the order of a scalar
    # element loop, so the sums are rounded identically.
    for d in range(p + 1):
        for a in range(p - d, -1, -1):
            contrib = wh * (table[:, :, a] * table[:, :, a + d])
            for k in range(len(wh)):
                bands[d, a: a + N] += contrib[:, k]
    return bands


def _reduce_dirichlet(bands_full: np.ndarray) -> np.ndarray:
    # drop first and last basis functions
    return np.ascontiguousarray(bands_full[:, 1:-1])


def _band_matrix(space: BSplineSpace, bands_reduced: np.ndarray) -> SymBandMatrix:
    return SymBandMatrix(space.dim, space.p, bands_reduced)


def assemble_1d(space: BSplineSpace, stiffness_rule: QuadratureRule,
                mass_rule: QuadratureRule | None = None) -> MatrixPair:
    """Assemble the Dirichlet stiffness/mass pair with explicit rules.

    mass_rule defaults to the stiffness rule.  Rules may be any
    QuadratureRule, including blends with signed weights.
    """
    if mass_rule is None:
        mass_rule = stiffness_rule
    K = _band_matrix(space, _reduce_dirichlet(_assemble_full(space, stiffness_rule, "stiffness")))
    M = _band_matrix(space, _reduce_dirichlet(_assemble_full(space, mass_rule, "mass")))
    return MatrixPair(space, K, M, stiffness_rule.label, mass_rule.label)


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


# largest 2D unknown count assemble_2d builds a Kronecker pencil for: the
# sparse LU of the shift-invert solve grows faster than the pencil.  At the
# limit, N = 128 at p = 2, `study-2d --verify-kron 128` takes 3.6 s and
# 161 MB peak RSS on a 2-vCPU x86-64 VM (one BLAS thread)
KRON_MAX_DIM = 16384


@dataclass(frozen=True)
class KroneckerSum:
    """Sum of Kronecker products A (x) B of equal-shaped band matrices.

    Unknown (i, j) of the square is entry i * B.n + j, as in np.kron, so for
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
        A, B = self.terms[0]
        X = np.asarray(x, dtype=np.longdouble).reshape(A.n, B.n)
        return sum(B.matvec(A.matvec(X).T).T for A, B in self.terms).ravel()

    def to_dense(self, dtype=np.longdouble) -> np.ndarray:
        """Dense copy, formed in longdouble and rounded once to dtype."""
        out = sum(np.kron(A.to_dense(), B.to_dense()) for A, B in self.terms)
        return out.astype(dtype, copy=False)

    def to_csc(self):
        """Double-precision compressed sparse column copy."""
        import scipy.sparse

        first, *rest = (scipy.sparse.kron(A.to_csc(), B.to_csc(), format="csc")
                        for A, B in self.terms)
        return sum(rest, first)


@dataclass(frozen=True)
class MatrixPair2D:
    """Kronecker stiffness/mass pair on the unit square (Dirichlet)."""

    space: BSplineSpace
    stiffness: KroneckerSum
    mass: KroneckerSum
    stiffness_rule: str
    mass_rule: str


def assemble_2d(pair: MatrixPair, max_dim: int = KRON_MAX_DIM) -> MatrixPair2D:
    """Tensor-product pair of a 1D pair: K2 = K (x) M + M (x) K, M2 = M (x) M.

    Both are KroneckerSum operators over the 1D band matrices.  max_dim caps
    the 2D unknown count dim^2, against accidentally huge pencils for the
    eigensolver.
    """
    n = pair.stiffness.n
    if n * n > max_dim:
        raise ValueError(f"2D dimension {n * n} exceeds limit {max_dim}")
    K, M = pair.stiffness, pair.mass
    return MatrixPair2D(pair.space, KroneckerSum(((K, M), (M, K))), KroneckerSum(((M, M),)),
                        pair.stiffness_rule, pair.mass_rule)
