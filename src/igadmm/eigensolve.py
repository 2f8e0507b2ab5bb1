"""Generalized eigenvalue solution and error measures for the Laplace
eigenproblem on [0, 1] (Dirichlet) and its tensor square.

Eigenpairs come from a double-precision solver: for band and Kronecker
pencils of order _BANDED_MIN_N and up, Lanczos (ARPACK through scipy's
eigsh) computes only the leading modes, in standard form on R^T K^-1 R
with band Cholesky factors M = R R^T and K = L L^T from LAPACK; smaller
pencils go to scipy's dense symmetric-definite eigh.  scipy is imported
at the first solve, not with this module: it takes about 0.3 s to
import, and every command but the studies runs without it.  The leading
eigenvalues a caller asks for are then refined, through the operators'
longdouble products on blocks of eigenvectors, one K V and one M V per
block, by extended-precision Rayleigh quotients, which
pushes the numerical noise floor far below the discretization errors
being measured (the 1D studies resolve relative errors down to 1e-13).
Modes past the requested count are refined only when their double
eigenvalue ties the last requested one, so that a degenerate pair split
by the cut sorts as a full refinement would sort it.  Refinement needs a
longdouble wider than float64; where it is not (Windows, Apple ARM),
generalized_eig raises PrecisionError.

Error measures: relative eigenvalue errors against j^2 pi^2 (or
(j^2 + k^2) pi^2 on the square), and the energy-norm eigenfunction error

    |u_j - u~|_E = sqrt( integral of (u_j' - u~')^2 over [0, 1] ),

integrated directly with the (p + 5)-point Gauss rule on the basis tables
of all elements, summed one term at a time in element, then node order,
as a scalar element loop would.  Those tables, and each mode's exact
slope and sine on their points, depend on neither the rule nor the
eigenvector: they are built once per space and mode and kept for the
process, so every rule and study job on a space reads the same arrays.
The L2 norm that scales u~ to 1 is a sum
on the same table, which is exact for it, a degree-2p integrand.  The
overlap with sin(j pi x) that fixes the sign of u~ is summed in double
precision: only its sign is read, and it sits far from zero.  The
integrand of the error is a square, so nothing
cancels; the equal identity lambda_j - 2 a(u_j, u~) + a(u~, u~) gets the
squared error as a difference of numbers of order lambda_j and loses every
digit by p = 4, N = 128, where the error is 1.03e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from igadmm.assembly import MatrixPair
from igadmm.quadrature import gauss_legendre
from igadmm.splines import BSplineSpace, basis_table

PI_LD = np.longdouble("3.14159265358979323846264338327950288")

_SQRT2_LD = np.sqrt(np.longdouble(2))

# relative width of the eigenvalue cluster refined past the requested count:
# refinement shifts the leading modes by at most ~2e-11 relative, and
# degenerate 2D pairs sit ~1e-15 apart while distinct modes differ by > 5e-2
_CUT_RTOL = 1e-8

# smallest band or Kronecker pencil order solved by Lanczos.  One BLAS
# thread on a 2-vCPU x86-64 VM, 1D, p = 2, four modes, dense vs Lanczos:
# 3.4 vs 1.6 ms at n = 128, 5.0 vs 1.5 ms at n = 160, 7.4 vs 1.6 ms at
# n = 192, 500 vs 4.0 ms at n = 1024.  Lanczos wins below 160 too, but the
# smaller pencils keep the dense solve, so that their study cells, and the
# golden outputs that print them, stay bitwise as they are
_BANDED_MIN_N = 160

# modes the Lanczos solve computes past the requested count, so that it
# sees the whole cluster at the cut
_MARGIN = 2

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


def _cluster_top(w, count: int) -> float:
    """Largest double eigenvalue still tied with the count-th."""
    cut = w[count - 1]
    return cut + _CUT_RTOL * abs(cut)


def _band_cholesky(A):
    """Lower Cholesky factor of a band or Kronecker operator A in double
    precision, in LAPACK's band storage (dpbtrf); None when A is not
    positive definite in double precision."""
    from scipy.linalg import lapack

    factor, info = lapack.dpbtrf(A.to_bands(), lower=1, overwrite_ab=1)
    return factor if info == 0 else None


def _leading_modes(K, M, count: int):
    """Double-precision (eigenvalues, vectors) of the smallest modes of a
    band or Kronecker pencil, through the cluster at the cut, with vectors
    M-normalized; (None, None) when that needs all n or K is not positive
    definite.

    With M = R R^T and K = L L^T factored once each, Lanczos runs in
    standard form on C = R^T K^-1 R, whose eigenvalues are 1/lambda, and
    lambda K^-1 R u maps its unit eigenvector u to the pencil's mode, of
    unit M-norm since v^T M v = lambda^2 u^T C^2 u = 1: one band product,
    band solve and band product per Lanczos step.  The factor of M is also
    the check that M is positive definite, which ARPACK would not make.
    """
    import scipy.sparse.linalg
    from scipy.linalg import blas, lapack

    n = K.n
    k = count + _MARGIN
    if k >= n:
        return None, None
    R = _band_cholesky(M)
    if R is None:
        raise IndefiniteMassError("the mass matrix is not positive definite")
    L = _band_cholesky(K)
    if L is None:
        return None, None
    kd = len(R) - 1

    def solve_k(y):
        return lapack.dpbtrs(L, y, lower=1, overwrite_b=1)[0]

    def apply_c(x):
        y = solve_k(blas.dtbmv(kd, R, x.ravel(), lower=1)[:, None])
        return blas.dtbmv(kd, R, y.ravel(), lower=1, trans=1, overwrite_x=1)

    C = scipy.sparse.linalg.LinearOperator((n, n), matvec=apply_c, dtype=np.float64)
    # a fixed start vector makes repeated solves bitwise equal; a ramp has
    # no reflection symmetry, so it is not orthogonal to the modes that are
    # even about x = 1/2, as a constant vector would be, nor, on the square,
    # to those odd under swapping x and y
    v0 = np.linspace(1.0, 2.0, n)
    while k < n:
        mu, u = scipy.sparse.linalg.eigsh(C, k, which="LA", v0=v0)
        w = 1.0 / mu
        order = np.argsort(w, kind="stable")
        w = w[order]
        if w[-1] > _cluster_top(w, count):
            Ru = np.column_stack([blas.dtbmv(kd, R, u[:, j], lower=1) for j in order])
            return w, solve_k(Ru) * w
        k *= 2
    return None, None


def generalized_eig(K, M, count: int | None = None) -> Spectrum:
    """Solve K v = lambda M v for symmetric K and positive definite M.

    K and M are SymBandMatrix or KroneckerSum operators.  Returns the count
    smallest modes (all n when count is None or exceeds n).  Their
    eigenvalues are recomputed as extended-precision Rayleigh quotients of
    the double-precision eigenvectors, through the operators' longdouble
    matvec on blocks of _REFINE_BLOCK eigenvectors (one K V and one M V
    per block, each quotient's two dots taken per column, so bitwise the
    quotients of single columns), and re-sorted; for well-separated modes
    this restores the eigenvalues to near working precision of the
    assembled matrices.

    Refinement covers the leading count modes and every later mode whose
    double eigenvalue lies within _CUT_RTOL of the count-th: refinement
    moves an eigenvalue by far less than that, so no mode left out could
    sort into the first count.

    A pencil of order _BANDED_MIN_N or more, with K positive definite, is
    solved for its leading modes only, by Lanczos on R^T K^-1 R (M = R R^T
    and K = L L^T, band Cholesky factors); smaller ones, a pencil whose
    leading modes would take all n, and one whose K is not positive
    definite, by a dense eigh.  On the dense side the result is bitwise
    the leading part of a full solve (count=None); on the Lanczos side
    the eigenvectors carry different roundoff, so refined eigenvalues may
    differ from the dense ones in the last digits of longdouble.  A mass matrix that is not
    positive definite in double precision raises IndefiniteMassError on
    either side.
    """
    if not LONGDOUBLE_IS_WIDE:
        raise PrecisionError("numpy longdouble is not wider than float64 here: "
                             "refined eigenvalues would sit at the float64 floor")
    n = K.n
    count = n if count is None else min(count, n)
    if count < 1:
        raise ValueError(f"need at least one mode, requested {count}")
    w = None
    if n >= _BANDED_MIN_N:
        w, vecs = _leading_modes(K, M, count)
    if w is None:
        import scipy.linalg

        try:
            w, vecs = scipy.linalg.eigh(K.to_dense(np.float64), M.to_dense(np.float64))
        except np.linalg.LinAlgError:
            # eigh factors M first; tell that failure from any other
            if _band_cholesky(M) is None:
                raise IndefiniteMassError("the mass matrix is not positive definite") from None
            raise
    stop = int(np.searchsorted(w, _cluster_top(w, count), side="right"))
    refined = np.empty(stop, dtype=np.longdouble)
    for lo in range(0, stop, _REFINE_BLOCK):
        V = vecs[:, lo: min(stop, lo + _REFINE_BLOCK)].astype(np.longdouble)
        KV, MV = K.matvec(V), M.matvec(V)
        for j in range(V.shape[1]):
            refined[lo + j] = (V[:, j] @ KV[:, j]) / (V[:, j] @ MV[:, j])
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
def _energy_tables(space: BSplineSpace):
    """Points, weights times h, basis derivatives and values of the energy
    integral on every element, on the (p + 5)-point Gauss rule, read-only
    and kept for the process: every rule and job on a space reads them.
    A space retains N (p + 5) (32 (p + 1) + 16) bytes with a 16-byte
    longdouble."""
    nodes, weights = gauss_legendre(space.p + 5).as_longdouble()
    t, val, der = basis_table(space, nodes)
    wh = weights * (np.longdouble(1) / space.N)
    tables = (t, wh, der, val)
    for table in tables:
        table.flags.writeable = False  # shared by every call on this space
    return tables


@lru_cache(maxsize=None)
def _mode_tables(space: BSplineSpace, mode: int):
    """The exact slope sqrt(2) j pi cos(j pi t) of mode j in longdouble and
    sin(j pi t) in double precision, at the energy table points t, read-only
    and kept for the process: they depend on neither the rule nor the
    eigenvector.  A mode retains N (p + 5) 24 bytes."""
    t = _energy_tables(space)[0]
    jpi = mode * PI_LD
    slope = _SQRT2_LD * jpi * np.cos(jpi * t)
    sine = np.sin((mode * np.pi) * t.astype(np.float64))
    for table in (slope, sine):
        table.flags.writeable = False  # shared by every call on this mode
    return slope, sine


def _element_dot(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """u_h at every table point: coefficients of each element's functions
    dotted with their values, adding in basis order from 0 as np.dot does."""
    acc = 0
    for a in range(table.shape[-1]):
        acc = acc + coeffs[:, a, None] * table[:, :, a]
    return acc


def _overlap(sine, wh, uh) -> float:
    """Integral of sqrt(2) sin(mode pi x) u_h on the energy table, in
    double precision, from the mode's double sine table (_mode_tables).  It
    only gives u_h its sign: u_h comes from an M-normalized vector, so the
    overlap is near +-1 for the modes below N, and above 0.05 for the p - 1
    outlier modes at the top of the spectrum on the meshes tested;
    double-precision roundoff, ~1e-15 of that, cannot flip it."""
    f = sine * uh.astype(np.float64)
    return float(np.sqrt(2.0) * np.sum(f @ wh.astype(np.float64)))


def energy_error(pair: MatrixPair, spectrum: Spectrum, mode: int) -> float:
    """Energy-norm error of the mode-th discrete eigenfunction (1-based).

    The discrete function is normalized in L2 and sign-aligned with
    sin(mode pi x); the error is the square root of the integral of
    (u' - u~')^2.  All three integrals are sums on the energy tables: the
    norm and the error in extended precision, the overlap that gives the
    sign in double precision (_overlap).
    """
    space = pair.space
    if not 1 <= mode <= len(spectrum):
        raise PairingError(f"mode {mode} outside 1..{len(spectrum)}")
    p, N = space.p, space.N
    c_full = np.zeros(space.dim_full, dtype=np.longdouble)
    c_full[1:-1] = spectrum.vectors[:, mode - 1]
    coeffs = c_full[np.arange(N)[:, None] + np.arange(p + 1)]  # element e: e..e+p
    _, wh, der, val = _energy_tables(space)
    slope, sine = _mode_tables(space, mode)
    uh_prime, uh = _element_dot(coeffs, der), _element_dot(coeffs, val)
    # the L2 norm of u~ and the squared error, each summed one term at a
    # time in element-then-node order: np.sum would add pairwise
    norm = np.sqrt(np.cumsum(wh * uh * uh)[-1])
    uh_prime = uh_prime / (-norm if _overlap(sine, wh, uh) < 0 else norm)
    diff = slope - uh_prime
    return float(np.sqrt(np.cumsum(wh * diff * diff)[-1]))


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
