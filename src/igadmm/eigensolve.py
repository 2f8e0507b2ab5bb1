"""Generalized eigenvalue solution and error measures for the Laplace
eigenproblem on [0, 1] (Dirichlet) and its tensor square.

Eigenpairs come from a double-precision solver that reads each pencil
only through the LAPACK lower band copies of its operators (to_bands),
after the band Cholesky factor of M, the one check that M is positive
definite: for pencils of order _BANDED_MIN_N and up, a block Lanczos run
of this module (_lanczos) computes only the leading modes, in standard
form on R^T K^-1 R with M = R R^T and K = L L^T; smaller pencils go to
LAPACK's dense symmetric-definite dsygvd of the band copies expanded
(_dense), the call scipy.linalg.eigh makes.  Every LAPACK and BLAS
routine comes from scipy's f2py extension modules scipy.linalg._flapack
and _fblas, loaded at the first solve by _f2py without running
scipy/linalg/__init__.py: that takes about 0.25 s and 22 MB more, and no
command needs it, nor scipy's sparse package.  The leading
eigenvalues a caller asks for are then refined, through the operators'
longdouble products on blocks of eigenvectors, one K V and one M V per
block, by extended-precision Rayleigh quotients, which
pushes the numerical noise floor far below the discretization errors
being measured (the 1D studies resolve relative errors down to 1e-13).
A Kronecker pencil refines one mode past the requested count, so that a
degenerate pair split by the cut sorts as a full refinement would sort
it; a band pencil, whose spectrum is simple, refines the count alone.
Refinement needs a longdouble wider than float64; where it is not
(Windows, Apple ARM), generalized_eig raises PrecisionError.

Error measures: relative eigenvalue errors against j^2 pi^2 (or
(j^2 + k^2) pi^2 on the square), and the energy-norm eigenfunction error

    |u_j - u~|_E = sqrt( integral of (u_j' - u~')^2 over [0, 1] ),

integrated directly with the (p + 5)-point Gauss rule on the basis tables
of all elements, summed one term at a time in element, then node order,
as a scalar element loop would.  Those tables, and each mode's exact
slope on their points, depend on neither the rule nor the eigenvector:
they are built once per space and mode and kept for the process, so
every rule and study job on a space reads the same arrays.  The L2 norm
that scales u~ to 1 is a sum on the same table, which is exact for it, a
degree-2p integrand.  The sign of u~ is that of the energy product
a(u_j, u~) = integral of u_j' u~', a sum of the two slopes on the same
table: for u~ in H^1_0, integration by parts gives a(u_j, u~) =
lambda_j m(u_j, u~), so it is the sign of the L2 overlap with
sin(j pi x), and the sign that makes the error the smaller one.  The
integrand of the error is a square, so nothing cancels; the equal
identity lambda_j - 2 a(u_j, u~) + a(u~, u~) gets the squared error as a
difference of numbers of order lambda_j and loses every digit by p = 4,
N = 128, where the error is 1.03e-9.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from igadmm.assembly import MatrixPair, SymBandMatrix
from igadmm.quadrature import gauss_legendre
from igadmm.splines import BSplineSpace, basis_table

PI_LD = np.longdouble("3.14159265358979323846264338327950288")

_SQRT2_LD = np.sqrt(np.longdouble(2))

# smallest band or Kronecker pencil order solved by Lanczos.  One BLAS
# thread on a 2-vCPU x86-64 VM, 1D, p = 2, four modes, dense vs Lanczos:
# 3.5 vs 1.6 ms at n = 128, 5.3 vs 1.8 ms at n = 160, 8.0 vs 1.9 ms at
# n = 192, 518 vs 4.0 ms at n = 1024.  Lanczos wins below 160 too, but the
# smaller pencils keep the dense solve, so that their study cells, and the
# golden outputs that print them, stay bitwise as they are
_BANDED_MIN_N = 160

# modes the Lanczos solve converges past the requested count; refinement
# reads one of them past a Kronecker cut, none past a band one
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


def _f2py(name: str):
    """scipy.linalg's f2py extension module name, _flapack or _fblas, the
    one in sys.modules if any; else loaded from the package's directory,
    found without importing scipy.linalg (only the top scipy package
    runs), and registered under its full name, so that a later import of
    scipy.linalg reuses it."""
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is None:
        package = importlib.util.find_spec("scipy.linalg")
        spec = package and importlib.machinery.PathFinder.find_spec(
            full, package.submodule_search_locations)
        if spec is None:
            raise ImportError(f"no module named {full!r}", name=full)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return module


def _dense(ab: np.ndarray) -> np.ndarray:
    """The symmetric double-precision matrix whose lower band storage is ab,
    of order ab.shape[1].  Band rows from the order on hold no entry: a
    Kronecker band on a coarse mesh, half-band p n1 + p, can reach it."""
    n = ab.shape[1]
    out = np.zeros((n, n))
    j = np.arange(n)
    for d in range(min(len(ab), n)):
        out[j[d:], j[: n - d]] = ab[d, : n - d]
        out[j[: n - d], j[d:]] = ab[d, : n - d]
    return out


def _band_cholesky(A):
    """Lower Cholesky factor of a band or Kronecker operator A in double
    precision, in LAPACK's band storage (dpbtrf); None when A is not
    positive definite in double precision."""
    factor, info = _f2py("_flapack").dpbtrf(A.to_bands(), lower=1, overwrite_ab=1)
    return factor if info == 0 else None


def _mass_factor(M):
    """Products with R and with R^T, M = R R^T, on each row of a block;
    None when M is not positive definite in double precision.

    A band M is factored by LAPACK, half-band p.  A Kronecker mass A (x) B
    has the factor R_A (x) R_B, applied as R_A X R_B^T to each row
    reshaped to A.n x B.n: its own band, half p B.n + p, is never formed,
    and the 1D factors are the check that it is positive definite.  The 1D
    factors are expanded to dense triangles for the products: at n1 = 24,
    and up to 128, one matmul a side is faster than a band loop in numpy.
    """
    if isinstance(M, SymBandMatrix):
        R = _band_cholesky(M)
        if R is None:
            return None
        kd, dtbmv = len(R) - 1, _f2py("_fblas").dtbmv
        return (lambda X: np.array([dtbmv(kd, R, x, lower=1) for x in X]),
                lambda X: np.array([dtbmv(kd, R, x, lower=1, trans=1) for x in X]))
    (A, B), = M.terms
    RA = _band_cholesky(A)
    RB = RA if B is A else _band_cholesky(B)
    if RA is None or RB is None:
        return None
    # the dense lower triangles, from the symmetric copies of the bands
    RA, RB = (np.tril(_dense(F)) for F in (RA, RB))

    def product(X, RA, RB):
        return (RA @ X.reshape(len(X), A.n, B.n) @ RB.T).reshape(X.shape)

    return (lambda X: product(X, RA, RB)), (lambda X: product(X, RA.T, RB.T))


def _orthonormal_rows(W):
    """(Q, G): W = G Q, Q with orthonormal rows and G lower triangular, in
    place, for a block of one or two rows; Gram-Schmidt, the second row
    orthogonalized twice against the first."""
    G = np.zeros((len(W), len(W)))
    G[0, 0] = np.sqrt(W[0] @ W[0])
    W[0] /= G[0, 0]
    if len(W) == 2:
        for _ in range(2):
            c = W[0] @ W[1]
            W[1] -= c * W[0]
            G[1, 0] += c
        G[1, 1] = np.sqrt(W[1] @ W[1])
        W[1] /= G[1, 1]
    return W, G


def _lanczos(apply_c, start, count: int):
    """(w, U): w = 1 / theta ascending and the unit Ritz vectors as rows
    of U, for the count + _MARGIN largest Ritz values theta of a
    symmetric positive definite C; (None, None) when the basis cannot grow
    by a full block before they converge.

    Block Lanczos from the rows of start, each new block orthogonalized
    twice against the whole basis Q, kept in rows, whose projections give
    the projected matrix Q C Q^T a column block a step.  With G Q_new the
    remainder of a step, the Ritz pair (theta, Q^T s) has the residual norm
    |G^T s_b|, s_b the entries of s on the newest block; the leading k
    have converged when each is at most eps theta, ARPACK's own test.  The
    check is an eigh of the projected matrix, which costs as much as a
    step or more, so the next one waits as many steps as the worst
    residual has decades above its tolerance: these runs gain at most
    about one decade a step.  A basis that reaches n returns the exact
    Ritz pairs of the whole space.
    """
    b, n = start.shape
    k = check = count + _MARGIN
    Q = np.empty((min(n, 6 * k), n))
    H = np.zeros((len(Q), len(Q)))
    Q[:b] = _orthonormal_rows(start.copy())[0]
    m = b
    while True:
        basis = Q[:m]
        W = apply_c(basis[m - b:])
        h = basis @ W.T
        W -= h.T @ basis
        again = basis @ W.T
        W -= again.T @ basis
        h += again
        H[:m, m - b: m] = h
        if m == n:
            theta, S = np.linalg.eigh(H, UPLO="U")
            return 1.0 / theta[::-1], S[:, ::-1].T @ Q
        W, G = _orthonormal_rows(W)
        if m >= check:
            theta, S = np.linalg.eigh(H[:m, :m], UPLO="U")
            theta, S = theta[:-k - 1:-1], S[:, :-k - 1:-1]
            worst = np.max(np.sqrt(np.sum((G.T @ S[m - b:]) ** 2, axis=0)) / theta)
            worst /= np.finfo(np.float64).eps
            if worst <= 1:
                return 1.0 / theta, S.T @ basis
            check = m + b * math.ceil(np.log10(worst))
        if m + b > n:
            return None, None
        if m + b > len(Q):
            grown = min(n, 2 * len(Q))
            Q = np.concatenate([Q, np.empty((grown - len(Q), n))])
            H = np.pad(H, (0, grown - len(H)))
        Q[m: m + b] = W
        m += b


def _start_block(K):
    """The Lanczos start block, as rows, of a pencil of stiffness K.  A
    band pencil starts from one vector: its spectrum is simple.  A
    Kronecker pencil starts from two, the ramp and its image under
    swapping x and y: each mode (j, k) of the square has the twin (k, j)
    of the same eigenvalue, and one Krylov vector sees one direction of
    such a pair only."""
    # a fixed start makes repeated solves bitwise equal; a ramp has no
    # reflection symmetry, so it is not orthogonal to the modes that are
    # even about x = 1/2, as a constant vector would be
    ramp = np.linspace(1.0, 2.0, K.n)
    if isinstance(K, SymBandMatrix):
        return ramp[None, :]
    side = K.terms[0][0].n
    return np.array([ramp, ramp.reshape(side, -1).T.ravel()])


def _leading_modes(K, factor, start, count: int):
    """Double-precision (eigenvalues, vectors) of the count + _MARGIN or
    more smallest modes of a band or Kronecker pencil, with vectors
    M-normalized; (None, None) when that needs all n or K is not positive
    definite.  factor holds the products with R and R^T of M = R R^T
    (_mass_factor), and start the rows the Krylov basis starts from
    (_start_block).

    With M = R R^T and K = L L^T factored once each, Lanczos (_lanczos)
    runs in standard form on C = R^T K^-1 R, whose eigenvalues are
    1/lambda, and lambda K^-1 R u maps its unit eigenvector u to the
    pencil's mode, of unit M-norm since v^T M v = lambda^2 u^T C^2 u = 1:
    a product with R, one band solve for the block, and a product with R^T
    per Lanczos step.
    """
    n = K.n
    if count + _MARGIN >= n:
        return None, None
    L = _band_cholesky(K)
    if L is None:
        return None, None
    r, rt = factor
    dpbtrs = _f2py("_flapack").dpbtrs

    def solve_k(Y):
        """K^-1 on each row of Y: one band solve for the block."""
        return dpbtrs(L, Y.T, lower=1, overwrite_b=1)[0].T

    w, U = _lanczos(lambda X: rt(solve_k(r(X))), start, count)
    if w is None:
        return None, None
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

    Refinement covers the leading count + b - 1 modes (at most n) on both
    routes, b the size of the Lanczos start block (_start_block).  A band
    spectrum is simple, as the one-vector start assumes (b = 1); on the
    square, the tensor sum of the 1D spectrum, a mode (j, k) ties only
    with its twin (k, j), and b = 2 takes in the twin of a pair the cut
    splits.  So no mode left out could sort into the first count.

    The mass is factored first, M = R R^T by LAPACK's band Cholesky (a
    Kronecker mass through its 1D factor), and one that is not positive
    definite in double precision raises IndefiniteMassError, whichever
    route the pencil takes.  A pencil of order _BANDED_MIN_N or more, with
    K positive definite, is solved for its leading modes only, by this
    module's block Lanczos on R^T K^-1 R (K = L L^T, also a band
    Cholesky); smaller ones, a pencil whose leading modes would take all
    n, and one whose K is not positive definite, by a dense eigh of the
    band copies (_dense_eigh).  On the dense side the result is bitwise
    the leading part of a full solve (count=None); on the Lanczos side the
    eigenvectors carry different roundoff, so refined eigenvalues may
    differ from the dense ones in the last digits of longdouble.
    """
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
    start = _start_block(K)
    w = None
    if n >= _BANDED_MIN_N:
        w, vecs = _leading_modes(K, factor, start, count)
    if w is None:
        w, vecs = _dense_eigh(K, M)
    stop = min(count + len(start) - 1, n)
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
    """The exact slope sqrt(2) j pi cos(j pi t) of mode j in longdouble at
    the energy table points t, read-only and kept for the process: it
    depends on neither the rule nor the eigenvector.  A mode retains
    N (p + 5) 16 bytes."""
    t = _energy_tables(space)[0]
    jpi = mode * PI_LD
    slope = _SQRT2_LD * jpi * np.cos(jpi * t)
    slope.flags.writeable = False  # shared by every call on this mode
    return slope


def _element_dot(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """u_h at every table point: coefficients of each element's functions
    dotted with their values, adding in basis order from 0 as np.dot does."""
    acc = 0
    for a in range(table.shape[-1]):
        acc = acc + coeffs[:, a, None] * table[:, :, a]
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
    _, wh, der, val = _energy_tables(space)
    slope = _mode_tables(space, mode)
    uh_prime, uh = _element_dot(coeffs, der), _element_dot(coeffs, val)
    # the L2 norm of u~ and the squared error, each summed one term at a
    # time in element-then-node order: np.sum would add pairwise; only the
    # sign of a(u, u~) is read
    norm = np.sqrt(np.cumsum(wh * uh * uh)[-1])
    uh_prime = uh_prime / (-norm if np.sum(wh * uh_prime * slope) < 0 else norm)
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
