"""Generalized eigenvalue solution and error measures for the Laplace
eigenproblem on [0, 1] (Dirichlet) and its tensor square.

Eigenpairs come from scipy's dense symmetric-definite solver in double
precision; eigenvalues are then refined by one extended-precision Rayleigh
quotient per mode, which pushes the numerical noise floor far below the
discretization errors being measured (the 1D studies resolve relative
errors down to 1e-13).

Error measures: relative eigenvalue errors against j^2 pi^2 (or
(j^2 + k^2) pi^2 on the square), and the energy-norm eigenfunction error

    |u_j - u~|_E^2 = lambda_j - 2 a(u_j, u~) + a(u~, u~),

with a(.,.) the exact Dirichlet form: a(u~, u~) uses a fully integrated
stiffness matrix (not the possibly under-integrated one that produced the
eigenvector) and the cross term is integrated with a high-order Gauss rule
on a basis table of all elements, summed one term at a time in element,
then node order, as a scalar element loop would.
"""

from __future__ import annotations

import csv
import json
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


class PairingError(ValueError):
    """Requested mode index outside the discrete spectrum."""


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


def _as_operator(A):
    """Uniform (dense_f64, matvec_longdouble) view of a matrix argument."""
    if isinstance(A, SymBandMatrix):
        dense = A.to_dense(dtype=np.float64)
        return dense, A.matvec
    arr = np.asarray(A)
    arr_ld = arr.astype(np.longdouble)
    return arr.astype(np.float64), lambda x: arr_ld @ x


def generalized_eig(K, M) -> Spectrum:
    """Solve K v = lambda M v for symmetric K and positive definite M.

    Accepts SymBandMatrix or dense arrays.  Eigenvalues are recomputed as
    extended-precision Rayleigh quotients of the double-precision
    eigenvectors and re-sorted; for well-separated modes this restores the
    eigenvalues to near working precision of the assembled matrices.
    """
    K_dense, K_mv = _as_operator(K)
    M_dense, M_mv = _as_operator(M)
    _, vecs = scipy.linalg.eigh(K_dense, M_dense)
    n = vecs.shape[1]
    refined = np.empty(n, dtype=np.longdouble)
    for j in range(n):
        v = vecs[:, j].astype(np.longdouble)
        refined[j] = (v @ K_mv(v)) / (v @ M_mv(v))
    order = np.argsort(refined, kind="stable")
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
def _exact_forms(space: BSplineSpace):
    """Fully integrated reduced stiffness and mass band arrays."""
    rule = gauss_legendre(space.p + 1)
    K = _reduce_dirichlet(_assemble_full(space, rule, "stiffness"))
    M = _reduce_dirichlet(_assemble_full(space, rule, "mass"))
    return (
        SymBandMatrix(space.dim, space.p, K),
        SymBandMatrix(space.dim, space.p, M),
    )


@lru_cache(maxsize=None)
def _cross_rule_points(p: int):
    return _rule_points_longdouble(gauss_legendre(p + 5))


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
    sign-aligned with sin(mode pi x) before the energy identity is
    evaluated; all quadrature runs in extended precision.
    """
    space = pair.space
    if not 1 <= mode <= len(spectrum):
        raise PairingError(f"mode {mode} outside 1..{len(spectrum)}")
    K_exact, M_exact = _exact_forms(space)
    v = spectrum.vectors[:, mode - 1].astype(np.longdouble)
    v = v / np.sqrt(v @ M_exact.matvec(v))

    p, N = space.p, space.N
    h = np.longdouble(1) / N
    nodes, weights = _cross_rule_points(p)
    jpi = mode * PI_LD
    c_full = np.zeros(space.dim_full, dtype=np.longdouble)
    c_full[1:-1] = v
    coeffs = c_full[np.arange(N)[:, None] + np.arange(p + 1)]  # element e: e..e+p
    t, der = basis_table(space, nodes, derivative=True)
    _, val = basis_table(space, nodes)
    uh_prime, uh = _element_dot(coeffs, der), _element_dot(coeffs, val)
    # a(u_mode, u~) and (u_mode, u~) in L2 (for the sign), summed one term
    # at a time in element-then-node order: np.sum would add pairwise
    cross = np.cumsum(weights * h * (_SQRT2_LD * jpi * np.cos(jpi * t)) * uh_prime)[-1]
    overlap = np.cumsum(weights * h * (_SQRT2_LD * np.sin(jpi * t)) * uh)[-1]
    if overlap < 0:
        cross = -cross
        v = -v
    val = jpi ** 2 - 2 * cross + v @ K_exact.matvec(v)
    return float(np.sqrt(max(val, np.longdouble(0))))


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

    def to_json(self, fh) -> None:
        json.dump(self.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    def select(self, **keys) -> list[ErrorRow]:
        return [
            r for r in self.rows
            if all(getattr(r, k) == v for k, v in keys.items())
        ]


def _fmt(x: float) -> str:
    """Six significant digits, scientific; deterministic across runs."""
    return f"{float(x):.5e}"


def convergence_rate(errors) -> float:
    """Average dyadic convergence rate over a mesh-halving sequence."""
    e = np.asarray([float(v) for v in errors])
    if e.size < 2:
        raise ValueError("need at least two errors")
    if np.any(e <= 0):
        raise ValueError("errors must be positive")
    steps = np.log2(e[:-1] / e[1:])
    return float(np.mean(steps))
