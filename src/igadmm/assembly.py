"""Stiffness and mass assembly for uniform maximum-continuity B-spline
spaces on [0, 1] (and tensor squares on the unit square).

Quadrature runs in extended precision (numpy longdouble) with any rule
from the quadrature module, on a basis table of all elements at once; the
band entries are summed element by element, nodes in rule order, so they
are bitwise those of a scalar element loop.  Homogeneous Dirichlet
conditions drop the first and last basis functions.  Matrices are stored
in symmetric lower band form, which is all the bandwidth these
discretizations ever need; the 2D pair is the dense Kronecker product of
a 1D pair.
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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.longdouble)
        y = self.bands[0] * x
        for d in range(1, self.halfband + 1):
            y[d:] += self.bands[d, : self.n - d] * x[: self.n - d]
            y[: self.n - d] += self.bands[d, : self.n - d] * x[d:]
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


# largest 2D unknown count assemble_2d builds dense Kronecker matrices for
KRON_MAX_DIM = 4096


@dataclass(frozen=True)
class MatrixPair2D:
    """Kronecker stiffness/mass pair on the unit square (Dirichlet)."""

    space: BSplineSpace
    stiffness: np.ndarray
    mass: np.ndarray
    stiffness_rule: str
    mass_rule: str


def assemble_2d(pair: MatrixPair, max_dim: int = KRON_MAX_DIM) -> MatrixPair2D:
    """Tensor-product pair of a 1D pair: K2 = K (x) M + M (x) K, M2 = M (x) M.

    Dense output; max_dim caps the 2D unknown count dim^2, checked before
    any Kronecker product, against accidentally huge ones (dim^4 entries
    per matrix).
    """
    n = pair.stiffness.n
    if n * n > max_dim:
        raise ValueError(f"2D dimension {n * n} exceeds limit {max_dim}")
    K = pair.stiffness.to_dense()
    M = pair.mass.to_dense()
    K2 = np.kron(K, M) + np.kron(M, K)
    M2 = np.kron(M, M)
    return MatrixPair2D(pair.space, K2, M2, pair.stiffness_rule, pair.mass_rule)
