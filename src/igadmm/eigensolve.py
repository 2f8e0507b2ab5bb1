"""Generalized eigenvalue solution and error measures for the Laplace
eigenproblem on [0, 1] (Dirichlet) and its tensor square.

Eigenpairs come from a double-precision solver: for band and Kronecker
pencils of order _BANDED_MIN_N and up, shift-invert Lanczos (ARPACK
through scipy's eigsh, shift 0, on a sparse copy) computes only the
leading modes; smaller pencils and dense arrays go to scipy's dense
symmetric-definite eigh.  The leading eigenvalues a caller asks for are
then refined, through the operators' longdouble products, by
extended-precision Rayleigh quotients, which pushes the numerical noise
floor far below the discretization errors being measured (the 1D studies
resolve relative errors down to 1e-13).  Modes past the requested count
are refined only when their double eigenvalue ties the last requested one,
so that a degenerate pair split by the cut sorts as a full refinement
would sort it.  Refinement needs a longdouble wider than float64; where it
is not (Windows, Apple ARM), generalized_eig raises PrecisionError.

Error measures: relative eigenvalue errors against j^2 pi^2 (or
(j^2 + k^2) pi^2 on the square), and the energy-norm eigenfunction error

    |u_j - u~|_E = sqrt( integral of (u_j' - u~')^2 over [0, 1] ),

integrated directly with a high-order Gauss rule on a basis table of all
elements, summed one term at a time in element, then node order, as a
scalar element loop would.  The integrand is a square, so nothing cancels;
the equal identity lambda_j - 2 a(u_j, u~) + a(u~, u~) gets the squared
error as a difference of numbers of order lambda_j and loses every digit
by p = 4, N = 128, where the error is 1.03e-9.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from igadmm.assembly import MatrixPair, SymBandMatrix, _assemble_full, _reduce_dirichlet
from igadmm.assembly import _rule_points_longdouble
from igadmm.quadrature import gauss_legendre
from igadmm.splines import BSplineSpace, basis_table

PI_LD = np.longdouble("3.14159265358979323846264338327950288")

_SQRT2_LD = np.sqrt(np.longdouble(2))

# relative width of the eigenvalue cluster refined past the requested count:
# refinement shifts the leading modes by at most ~2e-11 relative, and
# degenerate 2D pairs sit ~1e-15 apart while distinct modes differ by > 5e-2
_CUT_RTOL = 1e-8

# smallest band or Kronecker pencil order solved by shift-invert Lanczos;
# below it the dense eigh is faster.  One BLAS thread on a 2-vCPU x86-64
# VM, 1D, p = 2, dense vs Lanczos: 4.6 vs 6.1 ms at n = 128, 10 vs 6.6 ms at
# n = 192, 680 vs 9.7 ms at n = 1024
_BANDED_MIN_N = 160

# modes the Lanczos solve computes past the requested count, so that it
# sees the whole cluster at the cut
_MARGIN = 2

# the Rayleigh refinement needs an arithmetic wider than float64: x87
# 80-bit on x86-64 Linux, but not on Windows or Apple ARM
LONGDOUBLE_IS_WIDE = bool(np.finfo(np.longdouble).eps < np.finfo(np.float64).eps)


class PairingError(ValueError):
    """Requested mode index outside the discrete spectrum."""


class PrecisionError(ArithmeticError):
    """numpy longdouble is no wider than float64 on this platform."""


@dataclass(frozen=True)
class Spectrum:
    """Sorted discrete spectrum with refined eigenvalues.

    eigenvalues are longdouble (Rayleigh-refined); vectors holds the
    double-precision eigenvectors as columns, normalized against the mass
    matrix that produced them.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _operator(A):
    """A band or Kronecker operator as it is; a dense array as a full band
    SymBandMatrix."""
    return A if hasattr(A, "matvec") else SymBandMatrix.from_dense(A)


def _cluster_top(w, count: int) -> float:
    """Largest double eigenvalue still tied with the count-th."""
    cut = w[count - 1]
    return cut + _CUT_RTOL * abs(cut)


def _leading_modes(K, M, count: int):
    """Double-precision (eigenvalues, vectors) of the smallest modes of a
    band or Kronecker pencil with K positive definite, through the cluster
    at the cut, by shift-invert Lanczos at 0; (None, None) when that needs
    all n."""
    import scipy.sparse.linalg

    n = K.n
    K_csc, M_csc = K.to_csc(), M.to_csc()
    # a fixed start vector makes repeated solves bitwise equal; a ramp has
    # no reflection symmetry, so it is not orthogonal to the modes that are
    # even about x = 1/2, as a constant vector would be, nor, on the square,
    # to those odd under swapping x and y
    v0 = np.linspace(1.0, 2.0, n)
    k = count + _MARGIN
    while k < n:
        w, vecs = scipy.sparse.linalg.eigsh(K_csc, k, M_csc, sigma=0, v0=v0)
        order = np.argsort(w, kind="stable")
        w, vecs = w[order], vecs[:, order]
        if w[-1] > _cluster_top(w, count):
            return w, vecs
        k *= 2
    return None, None


def generalized_eig(K, M, count: int | None = None) -> Spectrum:
    """Solve K v = lambda M v for symmetric K and positive definite M.

    Accepts SymBandMatrix or KroneckerSum operators, or dense arrays.
    Returns the count smallest modes (all n when count is None or exceeds
    n).  Their eigenvalues are recomputed as extended-precision Rayleigh
    quotients of the double-precision eigenvectors, through the operators'
    longdouble matvec, and re-sorted; for well-separated modes this
    restores the eigenvalues to near working precision of the assembled
    matrices.  Refinement covers the leading count modes and every later
    mode whose double eigenvalue lies within _CUT_RTOL of the count-th:
    refinement moves an eigenvalue by far less than that, so no mode left
    out could sort into the first count.

    An operator pencil of order _BANDED_MIN_N or more, with K positive
    definite, is solved for its leading modes only, by shift-invert
    Lanczos; smaller ones, dense arrays at any order, and a pencil whose
    leading modes would take all n, by a dense eigh.  On the dense side the
    result is bitwise the leading part of a full solve (count=None); on the
    Lanczos side the eigenvectors carry different roundoff, so refined
    eigenvalues may differ from the dense ones in the last digits of
    longdouble.
    """
    if not LONGDOUBLE_IS_WIDE:
        raise PrecisionError("numpy longdouble is not wider than float64 here: "
                             "refined eigenvalues would sit at the float64 floor")
    operators = hasattr(K, "matvec") and hasattr(M, "matvec")
    K, M = _operator(K), _operator(M)
    n = K.n
    count = n if count is None else min(count, n)
    if count < 1:
        raise ValueError(f"need at least one mode, requested {count}")
    w = None
    if operators and n >= _BANDED_MIN_N:
        w, vecs = _leading_modes(K, M, count)
    if w is None:
        w, vecs = scipy.linalg.eigh(K.to_dense(np.float64), M.to_dense(np.float64))
    stop = int(np.searchsorted(w, _cluster_top(w, count), side="right"))
    refined = np.empty(stop, dtype=np.longdouble)
    for j in range(stop):
        v = vecs[:, j].astype(np.longdouble)
        refined[j] = (v @ K.matvec(v)) / (v @ M.matvec(v))
    order = np.argsort(refined, kind="stable")[:count]
    return Spectrum(refined[order], vecs[:, order])


def exact_spectrum(count: int) -> np.ndarray:
    """First count Dirichlet Laplace eigenvalues on [0, 1]: (j pi)^2."""
    j = np.arange(1, count + 1, dtype=np.longdouble)
    return (j * PI_LD) ** 2


def exact_spectrum_2d(count: int) -> np.ndarray:
    """First count Dirichlet eigenvalues on the unit square, multiplicity kept."""
    J = int(2 * count ** 0.5) + 3
    vals = [
        (np.longdouble(j * j + k * k)) * PI_LD ** 2
        for j in range(1, J + 1)
        for k in range(1, J + 1)
    ]
    vals.sort()
    if len(vals) < count:
        raise ValueError("internal index range too small")
    return np.array(vals[:count], dtype=np.longdouble)


def tensor_spectrum_2d(eigs_1d, count: int | None = None) -> np.ndarray:
    """Sorted pairwise sums of a 1D discrete spectrum.

    The Kronecker discretization K (x) M + M (x) K, M (x) M has exactly
    these eigenvalues, so this is the cheap route to the 2D spectrum.
    """
    e = np.asarray(eigs_1d, dtype=np.longdouble)
    sums = (e[:, None] + e[None, :]).ravel()
    sums.sort()
    if count is not None:
        sums = sums[:count]
    return sums


def relative_ev_errors(spectrum, count: int, exact: np.ndarray | None = None) -> np.ndarray:
    """|computed - exact| / exact for the first count modes."""
    eigs = spectrum.eigenvalues if isinstance(spectrum, Spectrum) else np.asarray(spectrum)
    if count > len(eigs):
        raise PairingError(f"only {len(eigs)} discrete modes, requested {count}")
    if exact is None:
        exact = exact_spectrum(count)
    exact = np.asarray(exact, dtype=np.longdouble)[:count]
    comp = np.asarray(eigs, dtype=np.longdouble)[:count]
    return np.abs(comp - exact) / exact


@lru_cache(maxsize=None)
def _exact_forms(space: BSplineSpace) -> SymBandMatrix:
    """Fully integrated reduced mass matrix: the exact L2 Gram matrix."""
    M = _assemble_full(space, gauss_legendre(space.p + 1), "mass")
    return SymBandMatrix(space.dim, space.p, _reduce_dirichlet(M))


@lru_cache(maxsize=None)
def _cross_rule_points(p: int):
    return _rule_points_longdouble(gauss_legendre(p + 5))


@lru_cache(maxsize=1)
def _energy_tables(space: BSplineSpace):
    """Points, basis derivatives and values of the energy integral on every
    element; a study reads several modes of one space in a row."""
    nodes = _cross_rule_points(space.p)[0]
    t, der = basis_table(space, nodes, derivative=True)
    tables = (t, der, basis_table(space, nodes)[1])
    for table in tables:
        table.flags.writeable = False  # shared by every call on this space
    return tables


def _element_dot(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """u_h at every table point: coefficients of each element's functions
    dotted with their values, adding in basis order from 0 as np.dot does."""
    acc = 0
    for a in range(table.shape[-1]):
        acc = acc + coeffs[:, a, None] * table[:, :, a]
    return acc


def energy_error(pair: MatrixPair, spectrum: Spectrum, mode: int) -> float:
    """Energy-norm error of the mode-th discrete eigenfunction (1-based).

    The discrete vector is renormalized in the exact L2 inner product and
    sign-aligned with sin(mode pi x); the error is the square root of the
    integral of (u' - u~')^2, all quadrature in extended precision.
    """
    space = pair.space
    if not 1 <= mode <= len(spectrum):
        raise PairingError(f"mode {mode} outside 1..{len(spectrum)}")
    M_exact = _exact_forms(space)
    v = spectrum.vectors[:, mode - 1].astype(np.longdouble)
    v = v / np.sqrt(v @ M_exact.matvec(v))

    p, N = space.p, space.N
    h = np.longdouble(1) / N
    weights = _cross_rule_points(p)[1]
    jpi = mode * PI_LD
    c_full = np.zeros(space.dim_full, dtype=np.longdouble)
    c_full[1:-1] = v
    coeffs = c_full[np.arange(N)[:, None] + np.arange(p + 1)]  # element e: e..e+p
    t, der, val = _energy_tables(space)
    uh_prime, uh = _element_dot(coeffs, der), _element_dot(coeffs, val)
    # (u_mode, u~) in L2 for the sign and the squared error, each summed
    # one term at a time in element-then-node order: np.sum would add pairwise
    overlap = np.cumsum(weights * h * (_SQRT2_LD * np.sin(jpi * t)) * uh)[-1]
    if overlap < 0:
        uh_prime = -uh_prime
    diff = _SQRT2_LD * jpi * np.cos(jpi * t) - uh_prime
    return float(np.sqrt(np.cumsum(weights * h * diff * diff)[-1]))


@dataclass(frozen=True)
class ErrorRow:
    p: int
    N: int
    rule: str
    mode: int
    rel_ev_error: float
    ef_energy_error: float | None = None


@dataclass(frozen=True)
class ErrorTable:
    """Study results, one row per (p, N, rule, mode)."""

    rows: tuple[ErrorRow, ...]

    CSV_COLUMNS = ("p", "N", "rule", "mode", "rel_ev_error", "ef_energy_error")

    def to_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([
                r.p, r.N, r.rule, r.mode,
                _fmt(r.rel_ev_error),
                "" if r.ef_energy_error is None else _fmt(r.ef_energy_error),
            ])

    def to_json_obj(self) -> list[dict]:
        out = []
        for r in self.rows:
            d = {
                "p": r.p, "N": r.N, "rule": r.rule, "mode": r.mode,
                "rel_ev_error": _fmt(r.rel_ev_error),
            }
            if r.ef_energy_error is not None:
                d["ef_energy_error"] = _fmt(r.ef_energy_error)
            out.append(d)
        return out

    def select(self, **keys) -> list[ErrorRow]:
        return [
            r for r in self.rows
            if all(getattr(r, k) == v for k, v in keys.items())
        ]


def _fmt(x: float) -> str:
    """Six significant digits, scientific; deterministic across runs."""
    return f"{float(x):.5e}"


def convergence_rate(errors, meshes) -> float:
    """Average convergence rate in the element count over a refinement
    sequence: the mean of log(e_i / e_{i+1}) / log(N_{i+1} / N_i)."""
    e = np.asarray([float(v) for v in errors])
    n = np.asarray([float(v) for v in meshes])
    if e.size < 2 or n.size != e.size:
        raise ValueError("need at least two errors, one per mesh")
    if np.any(e <= 0):
        raise ValueError("errors must be positive")
    if np.any(n[1:] <= n[:-1]):
        raise ValueError("meshes must increase strictly")
    steps = np.log2(e[:-1] / e[1:]) / np.log2(n[1:] / n[:-1])
    return float(np.mean(steps))
