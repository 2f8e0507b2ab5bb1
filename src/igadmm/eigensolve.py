"""Generalized eigenvalue solution and error measures for the Laplace
eigenproblem on [0, 1] (Dirichlet) and its tensor square.

Eigenpairs of a band pencil come from a double-precision solver that
reads it only through the LAPACK lower band copies of its operators
(to_bands), after the band Cholesky factor of M, the one check that M is
positive definite: for pencils of order _BANDED_MIN_N and up asked for
fewer than all their modes (the order from which Lanczos costs less than
the dense solve, measured), a Lanczos run of this module (_lanczos)
converges exactly the leading count, in standard form on R^T K^-1 R with
M = R R^T and K = L L^T; every other pencil goes to LAPACK's dense
symmetric-definite dsygvd of the band copies expanded (_dense), the
call scipy.linalg.eigh makes.  Every LAPACK and BLAS routine, the
Lanczos Ritz checks' dsyevd included, comes from scipy's f2py extension
modules scipy.linalg._flapack and _fblas, loaded at the first solve by
_f2py without running the __init__ of scipy or of scipy.linalg:
scipy/linalg/__init__.py takes about 0.25 s and 22 MB more, and no
command needs it, nor scipy's sparse package.  So a solve runs on
one LAPACK, scipy's, and never on the one numpy bundles.  The leading
eigenvalues a caller asks for are then refined, through the operators'
longdouble products on blocks of eigenvectors, one K V and one M V per
block, by extended-precision Rayleigh quotients, which pushes the
numerical noise floor far below the discretization errors being measured
(the 1D studies resolve relative errors down to 1e-13).  A band spectrum
is simple, so the requested count alone is refined.  Refinement needs a
longdouble wider than float64; where it is not (Windows, Apple ARM),
generalized_eig raises PrecisionError.

On the square, the Kronecker pencil K (x) M + M (x) K, M (x) M has
exactly the pairwise sums of the 1D spectrum as its spectrum
(tensor_spectrum_2d), so no 2D pencil is solved.

Error measures: relative eigenvalue errors against j^2 pi^2 (or
(j^2 + k^2) pi^2 on the square), and the energy-norm eigenfunction error

    |u_j - u~|_E = sqrt( integral of (u_j' - u~')^2 over [0, 1] ),

integrated directly with the (p + 5)-point Gauss rule, summed one term
at a time in element, then node order, as a scalar element loop would.
The basis at the rule's nodes is each element type's exact polynomials
(quadrature._type_basis) evaluated once per degree and type set in
longdouble (_type_tables), each element reading its type's table; a
space keeps only what depends on N, its points, weights and element type
indices (_energy_tables), and a mode its exact slope on those points
(_mode_tables).  None of these depends on the rule or the eigenvector, so
all are kept for the process and every rule and study job on a space
reads the same arrays.  The L2 norm that scales u~ to 1 is a sum on the
same tables, which is exact for it, a degree-2p integrand.  The sign of
u~ is that of the energy product a(u_j, u~) = integral of u_j' u~', a
sum of the two slopes on the same tables: for u~ in H^1_0, integration
by parts gives a(u_j, u~) = lambda_j m(u_j, u~), so it is the sign of
the L2 overlap with sin(j pi x), and the sign that makes the error the
smaller one.  The integrand of the error is a square, so nothing cancels;
the equal identity lambda_j - 2 a(u_j, u~) + a(u~, u~) gets the squared
error as a difference of numbers of order lambda_j and loses every digit
by p = 4, N = 128, where the error is 1.03e-9.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from igadmm.assembly import MatrixPair, SymBandMatrix, _element_types
from igadmm.quadrature import _type_basis, gauss_legendre
from igadmm.splines import BSplineSpace

PI_LD = np.longdouble("3.14159265358979323846264338327950288")

_SQRT2_LD = np.sqrt(np.longdouble(2))

# smallest pencil order solved by Lanczos: the smallest order of the grid
# below (n = 64..160 in steps of 8) from which Lanczos wins at every p and
# count.  generalized_eig for the leading 4 and 8 modes of the gauss
# pencil, dense vs Lanczos in ms, one BLAS thread on a 2-vCPU x86-64 VM,
# best of 7 in a process, median of 9 fresh processes (in-process
# timings are bimodal from process to process):
#
#   p, count       64         80         88         96        128        160
#   1, 4    0.54/0.51  0.79/0.53  0.93/0.54  1.09/0.56  2.10/0.63  3.20/0.70
#   1, 8    0.56/0.83  0.83/0.87  0.97/0.89  1.11/0.90  2.15/1.00  3.28/1.10
#   2, 4    0.56/0.53  0.83/0.56  0.96/0.57  1.11/0.59  2.14/0.67  3.25/0.74
#   2, 8    0.61/0.86  0.86/0.89  1.01/0.93  1.15/0.94  2.19/1.04  3.33/1.17
#   3, 4    0.59/0.55  0.86/0.59  1.00/0.61  1.15/0.61  2.19/0.71  3.25/0.78
#   3, 8    0.63/0.90  0.91/0.95  1.05/0.98  1.20/1.00  2.27/1.13  3.38/1.24
#   4, 4    0.62/0.58  0.88/0.63  1.02/0.64  1.17/0.63  1.99/0.74  3.33/0.83
#   4, 8    0.67/0.93  0.94/0.97  1.09/1.03  1.24/1.04  2.07/1.17  3.41/1.32
#   5, 4    0.65/0.62  0.92/0.65  1.05/0.67  1.19/0.67  1.99/0.77  3.30/0.88
#   5, 8    0.70/0.95  0.98/1.04  1.13/1.07  1.28/1.09  2.11/1.23  3.46/1.39
#   6, 4    0.67/0.63  0.94/0.68  1.09/0.70  1.23/0.71  2.29/0.84  3.34/0.93
#   6, 8    0.74/1.00  1.03/1.08  1.17/1.11  1.35/1.15  2.40/1.32  3.57/1.46
#
# At 80 the dense solve still wins for 8 modes at p = 1 and 6.  The two
# routes' refined eigenvalues differ by less than their rounding floor
# (tests/test_eigensolve.py); the Lanczos vectors are the better ones
_BANDED_MIN_N = 88

# columns per block product of the Rayleigh refinement: K V and M V take
# one band product per operator for the block, and a refinement of all n
# modes of a dense-solved pencil holds three n x 64 longdouble blocks, not
# three n x n arrays
_REFINE_BLOCK = 64

# the Rayleigh refinement needs an arithmetic wider than float64: x87
# 80-bit on x86-64 Linux, but not on Windows or Apple ARM
LONGDOUBLE_IS_WIDE = bool(np.finfo(np.longdouble).eps < np.finfo(np.float64).eps)


class PairingError(ValueError):
    """Requested mode index outside the discrete spectrum."""


class PrecisionError(ArithmeticError):
    """numpy longdouble is no wider than float64 on this platform."""


class IndefiniteMassError(ArithmeticError):
    """The mass matrix of a pencil is not positive definite."""


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


def _f2py(name: str):
    """scipy.linalg's f2py extension module name, _flapack or _fblas, the
    one in sys.modules if any; else loaded from the linalg directory of
    the top scipy package, whose spec is found without importing it, so no
    scipy package's __init__ runs, and registered under its full name, so
    that a later import of scipy.linalg reuses it."""
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            full, [os.path.join(path, "linalg") for path in scipy.submodule_search_locations])
        if spec is None:
            raise ImportError(f"no module named {full!r}", name=full)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return module


def _dense(ab: np.ndarray) -> np.ndarray:
    """The symmetric double-precision matrix whose lower band storage is ab,
    of order ab.shape[1] and half-band at most the order: a 1D pencil's
    half-band p is at most n = N + p - 2, as N >= 2."""
    n = ab.shape[1]
    out = np.zeros((n, n))
    j = np.arange(n)
    for d in range(len(ab)):
        out[j[d:], j[: n - d]] = ab[d, : n - d]
        out[j[: n - d], j[d:]] = ab[d, : n - d]
    return out


def _band_cholesky(A: SymBandMatrix):
    """Lower Cholesky factor of a band matrix A in double precision, in
    LAPACK's band storage (dpbtrf); None when A is not positive definite in
    double precision."""
    factor, info = _f2py("_flapack").dpbtrf(A.to_bands(), lower=1, overwrite_ab=1)
    return factor if info == 0 else None


def _mass_factor(M: SymBandMatrix):
    """Products with R and with R^T, M = R R^T by LAPACK's band Cholesky,
    half-band p, on each row of a block; None when M is not positive
    definite in double precision."""
    R = _band_cholesky(M)
    if R is None:
        return None
    kd, dtbmv = len(R) - 1, _f2py("_fblas").dtbmv
    return (lambda X: np.array([dtbmv(kd, R, x, lower=1) for x in X]),
            lambda X: np.array([dtbmv(kd, R, x, lower=1, trans=1) for x in X]))


def _lanczos(apply_c, start, count: int):
    """(w, U): w = 1 / theta ascending and the unit Ritz vectors as rows
    of U, for the count largest Ritz values theta of a symmetric positive
    definite C of order n > count, which apply_c applies to each row of a
    block.

    Lanczos from the vector start, each new vector orthogonalized twice
    against the whole basis Q, kept in rows, whose projections give the
    projected matrix Q C Q^T a column a step.  With beta q the remainder of
    a step, q of unit norm, the Ritz pair (theta, Q^T s) has the residual
    norm beta |s_m|, s_m the last entry of s; the leading count have
    converged when each is at most eps theta, ARPACK's own test.  A band
    spectrum is simple, so the count-th pair converges as the others do
    and no pair past it is converged as a guard.  The check is scipy's
    LAPACK dsyevd on the upper triangle of the projected matrix, which
    costs as much as a step or more, so the first one comes at m = count
    and the next waits as many steps as the worst residual has decades
    above its tolerance: these runs gain at most about one decade a step.
    A basis that reaches n returns the leading exact Ritz pairs of the
    whole space.
    """
    dsyevd = _f2py("_flapack").dsyevd

    def ritz(A):
        """Eigenvalues ascending and eigenvectors, as columns, of the
        projected matrix from its upper triangle.  LAPACK returns the
        vectors in Fortran order; they are copied to C order, as numpy's
        eigh returns them, since the products with them round differently
        on the two layouts and the printed cells are those of C order."""
        theta, S, info = dsyevd(A, lower=0)
        if info:
            raise np.linalg.LinAlgError(f"the Ritz check failed: LAPACK dsyevd info {info}")
        return theta, np.ascontiguousarray(S)

    n = len(start)
    check = count  # the first Ritz check: no fewer steps can converge count pairs
    Q = np.empty((min(n, 6 * count), n))
    H = np.zeros((len(Q), len(Q)))
    Q[0] = start / np.sqrt(start @ start)
    m = 1
    while True:
        basis = Q[:m]
        q = apply_c(basis[m - 1:])[0]
        h = basis @ q
        q -= h @ basis
        again = basis @ q
        q -= again @ basis
        h += again
        H[:m, m - 1] = h
        beta = np.sqrt(q @ q)
        if m >= check:
            theta, S = ritz(H[:m, :m])
            theta, S = theta[:-count - 1:-1], S[:, :-count - 1:-1]
            worst = np.max(beta * np.abs(S[m - 1]) / theta) / np.finfo(np.float64).eps
            if worst <= 1 or m == n:
                return 1.0 / theta, S.T @ basis
            check = min(n, m + math.ceil(np.log10(worst)))
        q /= beta
        if m == len(Q):
            grown = min(n, 2 * len(Q))
            Q = np.concatenate([Q, np.empty((grown - len(Q), n))])
            H = np.pad(H, (0, grown - len(H)))
        Q[m] = q
        m += 1


def _leading_modes(K: SymBandMatrix, factor, count: int):
    """Double-precision (eigenvalues, vectors) of the count smallest modes
    of a band pencil of order n > count, with vectors M-normalized: the
    modes generalized_eig refines; (None, None) when K is not positive
    definite.  factor holds the products with R and R^T of M = R R^T
    (_mass_factor).

    With M = R R^T and K = L L^T factored once each, Lanczos (_lanczos)
    runs in standard form on C = R^T K^-1 R, whose eigenvalues are
    1/lambda, and lambda K^-1 R u maps its unit eigenvector u to the
    pencil's mode, of unit M-norm since v^T M v = lambda^2 u^T C^2 u = 1:
    a product with R, one band solve, and a product with R^T per Lanczos
    step.  One start vector finds every mode, as a band spectrum is simple.
    """
    n = K.n
    L = _band_cholesky(K)
    if L is None:
        return None, None
    r, rt = factor
    dpbtrs = _f2py("_flapack").dpbtrs

    def solve_k(Y):
        """K^-1 on each row of Y: one band solve for the block."""
        return dpbtrs(L, Y.T, lower=1, overwrite_b=1)[0].T

    # a fixed start makes repeated solves bitwise equal; a ramp has no
    # reflection symmetry, so it is not orthogonal to the modes that are
    # even about x = 1/2, as a constant vector would be
    w, U = _lanczos(lambda X: rt(solve_k(r(X))), np.linspace(1.0, 2.0, n), count)
    return w, solve_k(r(U)).T * w


def _dense_eigh(K, M):
    """Double-precision (eigenvalues, vectors) of all modes of the pencil,
    ascending, vectors M-normalized: LAPACK's dsygvd on the band copies
    expanded, which is the call scipy.linalg.eigh(K, M) makes, with its
    checks: a non-finite entry raises ValueError before any LAPACK call,
    and a nonzero info raises numpy's LinAlgError."""
    a, b = _dense(K.to_bands()), _dense(M.to_bands())
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("the pencil has an entry that is inf or NaN")
    w, vecs, info = _f2py("_flapack").dsygvd(a, b)
    if info:
        raise np.linalg.LinAlgError(f"the dense eigensolver failed: LAPACK dsygvd info {info}")
    return w, vecs


def generalized_eig(K: SymBandMatrix, M: SymBandMatrix, count: int | None = None) -> Spectrum:
    """Solve K v = lambda M v for a band pencil, K symmetric and M positive
    definite.

    K and M are SymBandMatrix operators; a Kronecker pencil raises
    TypeError, as its spectrum is tensor_spectrum_2d of the 1D one.
    Returns the count smallest modes (all n when count is None or exceeds
    n).  Their eigenvalues are recomputed as extended-precision Rayleigh
    quotients of the double-precision eigenvectors, through the operators'
    longdouble matvec on blocks of _REFINE_BLOCK eigenvectors (one K V and
    one M V per block, each quotient's two dots taken per column, so
    bitwise the quotients of single columns), and re-sorted; for
    well-separated modes this restores the eigenvalues to near working
    precision of the assembled matrices.  A band spectrum is simple, so
    no mode past the count could sort into it, and the count alone is
    refined.

    The mass is factored first, M = R R^T by LAPACK's band Cholesky, and
    one that is not positive definite in double precision raises
    IndefiniteMassError, whichever route the pencil takes.  The route is
    one test: a pencil of order _BANDED_MIN_N or more, the measured
    crossover of the two routes' costs, asked for fewer than all n modes
    is solved for those count modes only, by this module's Lanczos on
    R^T K^-1 R (K = L L^T, also a band Cholesky);
    every other pencil, and one whose K is not positive definite, by a
    dense eigh of the band copies (_dense_eigh).  On the dense side the
    result is bitwise the leading part of a full solve (count=None); on
    the Lanczos side the eigenvectors carry different roundoff, so
    refined eigenvalues may differ from the dense ones in the last digits
    of longdouble, within their rounding floor, and the Lanczos vectors
    are the closer to the converged ones.
    """
    for op in (K, M):
        if not isinstance(op, SymBandMatrix):
            raise TypeError(f"generalized_eig solves band pencils, not a {type(op).__name__}; "
                            "a Kronecker pencil's spectrum is tensor_spectrum_2d of the 1D one")
    if not LONGDOUBLE_IS_WIDE:
        raise PrecisionError("numpy longdouble is not wider than float64 here: "
                             "refined eigenvalues would sit at the float64 floor")
    n = K.n
    count = n if count is None else min(count, n)
    if count < 1:
        raise ValueError(f"need at least one mode, requested {count}")
    factor = _mass_factor(M)
    if factor is None:
        raise IndefiniteMassError("the mass matrix is not positive definite")
    w = None
    if n >= _BANDED_MIN_N and count < n:
        w, vecs = _leading_modes(K, factor, count)
    if w is None:
        w, vecs = _dense_eigh(K, M)
    refined = np.empty(count, dtype=np.longdouble)
    for lo in range(0, count, _REFINE_BLOCK):
        V = vecs[:, lo: min(count, lo + _REFINE_BLOCK)].astype(np.longdouble)
        KV, MV = K.matvec(V), M.matvec(V)
        for j in range(V.shape[1]):
            refined[lo + j] = (V[:, j] @ KV[:, j]) / (V[:, j] @ MV[:, j])
    order = np.argsort(refined, kind="stable")
    return Spectrum(refined[order], vecs[:, order])


def exact_spectrum(count: int) -> np.ndarray:
    """First count Dirichlet Laplace eigenvalues on [0, 1]: (j pi)^2."""
    j = np.arange(1, count + 1, dtype=np.longdouble)
    return (j * PI_LD) ** 2


def tensor_spectrum_2d(eigs_1d, count: int | None = None) -> np.ndarray:
    """Sorted pairwise sums of a 1D discrete spectrum.

    The Kronecker discretization K (x) M + M (x) K, M (x) M has exactly
    these eigenvalues, so this is the cheap route to the 2D spectrum; of
    the exact 1D spectrum, it is the exact spectrum of the unit square.
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
def _type_tables(p: int, types: tuple) -> np.ndarray:
    """The basis of each element type at the (p + 5)-point Gauss nodes of
    the energy integral, read-only: entry [0, t, k, a] is the local slope
    d phi_a / dx on the reference element [0, 1] (no 1/h) of type
    types[t] at node k, entry [1, t, k, a] the value phi_a.  Each is the
    type's exact integer polynomial (quadrature._type_basis) by Horner's
    rule in longdouble at u = 2x - 1, divided once by its denominator.
    Kept for the process: a type set is the same for every mesh of 2p or
    more elements, and holds 32 (p + 5) (p + 1) bytes a type."""
    nodes = gauss_legendre(p + 5).as_longdouble()[0]
    u = 2 * nodes - 1
    tables = np.empty((2, len(types), p + 5, p + 1), dtype=np.longdouble)
    for t, (left, right) in enumerate(types):
        den, *forms = _type_basis(p, left, right)
        for f, basis in enumerate(forms):
            acc = 0
            for column in np.array(basis, dtype=np.longdouble).T[::-1]:  # top degree first
                acc = acc * u + column[:, None]
            tables[f, t] = (acc / np.longdouble(den)).T
    tables.flags.writeable = False  # shared by every space of the type set
    return tables


@lru_cache(maxsize=None)
def _energy_tables(space: BSplineSpace):
    """The points t[e, k] = (e + x_k) h of the energy integral on every
    element, on its (p + 5)-point Gauss rule, the weights times h, each
    element's type index and the type tables (_type_tables) it reads:
    read-only and kept for the process, as every rule and job on a space
    reads them.  A space retains N (16 (p + 5) + 8) bytes with a 16-byte
    longdouble; the type tables are shared."""
    p, N = space.p, space.N
    types, index = _element_types(p, N)
    nodes, weights = gauss_legendre(p + 5).as_longdouble()
    h = np.longdouble(1) / N
    t = (np.arange(N)[:, None] + nodes) * h
    tables = (t, weights * h, index)
    for table in tables:
        table.flags.writeable = False  # shared by every call on this space
    return tables + (_type_tables(p, types),)


@lru_cache(maxsize=None)
def _mode_tables(space: BSplineSpace, mode: int):
    """The exact slope sqrt(2) j pi cos(j pi t) of mode j in longdouble at
    the energy table points t, read-only and kept for the process: it
    depends on neither the rule nor the eigenvector.  A mode retains
    N (p + 5) 16 bytes."""
    t = _energy_tables(space)[0]
    jpi = mode * PI_LD
    slope = _SQRT2_LD * jpi * np.cos(jpi * t)
    slope.flags.writeable = False  # shared by every call on this mode
    return slope


def _element_dot(coeffs: np.ndarray, table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """u_h at every table point: coefficients of each element's functions
    dotted with the values of its type, table[index[e]], adding in basis
    order from 0 as np.dot does."""
    acc = 0
    for a in range(table.shape[-1]):
        acc = acc + coeffs[:, a, None] * table[index, :, a]
    return acc


def energy_error(pair: MatrixPair, spectrum: Spectrum, mode: int) -> float:
    """Energy-norm error of the mode-th discrete eigenfunction (1-based).

    The discrete function is normalized in L2 and sign-aligned with
    sin(mode pi x) through the sign of a(u, u~) = lambda m(u, u~); the
    error is the square root of the integral of (u' - u~')^2.  All three
    integrals are extended-precision sums on the energy tables.
    """
    space = pair.space
    if not 1 <= mode <= len(spectrum):
        raise PairingError(f"mode {mode} outside 1..{len(spectrum)}")
    p, N = space.p, space.N
    c_full = np.zeros(space.dim_full, dtype=np.longdouble)
    c_full[1:-1] = spectrum.vectors[:, mode - 1]
    coeffs = c_full[np.arange(N)[:, None] + np.arange(p + 1)]  # element e: e..e+p
    _, wh, index, (der, val) = _energy_tables(space)
    slope = _mode_tables(space, mode)
    # the local slopes carry the 1/h of d/dx
    uh_prime, uh = _element_dot(coeffs, der, index) * N, _element_dot(coeffs, val, index)
    # the L2 norm of u~ and the squared error, each summed one term at a
    # time in element-then-node order: np.sum would add pairwise; only the
    # sign of a(u, u~) is read
    norm = np.sqrt(np.cumsum(wh * uh * uh)[-1])
    uh_prime = uh_prime / (-norm if np.sum(wh * uh_prime * slope) < 0 else norm)
    diff = slope - uh_prime
    return float(np.sqrt(np.cumsum(wh * diff * diff)[-1]))


def convergence_rate(errors, meshes) -> float:
    """Average convergence rate in the element count over a refinement
    sequence: the mean of log(e_i / e_{i+1}) / log(N_{i+1} / N_i); nan
    when an error is not positive, as a cell that rounds to 0 has no
    logarithm and so gives the series no rate."""
    e = np.asarray([float(v) for v in errors])
    n = np.asarray([float(v) for v in meshes])
    if e.size < 2 or n.size != e.size:
        raise ValueError("need at least two errors, one per mesh")
    if np.any(n[1:] <= n[:-1]):
        raise ValueError("meshes must increase strictly")
    if np.any(e <= 0):
        return math.nan
    steps = np.log2(e[:-1] / e[1:]) / np.log2(n[1:] / n[:-1])
    return float(np.mean(steps))
