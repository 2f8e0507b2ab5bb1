"""Eigensolver, exact spectra, error measures, rate fitting."""

import math
import subprocess
import sys

import numpy as np
import pytest

import dense_reference
from basis_reference import reference_basis
from igadmm import eigensolve, quadrature
from igadmm.assembly import (
    SymBandMatrix,
    assemble_1d,
    assemble_1d_dmm,
    assemble_2d,
)
from igadmm.eigensolve import (
    PI_LD,
    _SQRT2_LD,
    PairingError,
    Spectrum,
    convergence_rate,
    energy_error,
    exact_spectrum,
    generalized_eig,
    relative_ev_errors,
    tensor_spectrum_2d,
)
from igadmm.quadrature import gauss_legendre, gauss_lobatto, gauss_radau, optimal_blend
from igadmm.splines import BSplineSpace


def test_exact_spectra():
    got = np.asarray(exact_spectrum(3), dtype=float)
    assert np.allclose(got, [math.pi ** 2, 4 * math.pi ** 2, 9 * math.pi ** 2],
                       rtol=1e-15)
    # the square's: the first count pairwise sums of the first count 1D
    # values, multiplicity kept
    got2 = np.asarray(tensor_spectrum_2d(exact_spectrum(4), 4), dtype=float)
    assert np.allclose(got2, np.array([2, 5, 5, 8]) * math.pi ** 2, rtol=1e-15)
    for count in (1, 7, 60):
        want = sorted(j * j + k * k for j in range(1, 3 * count) for k in range(1, 3 * count))
        got = tensor_spectrum_2d(exact_spectrum(count), count)
        assert len(got) == count
        assert np.allclose(np.asarray(got, dtype=float),
                           np.array(want[:count]) * math.pi ** 2, rtol=1e-15), count


def test_linear_discrete_spectrum_closed_form():
    # classic consistent-mass result on a uniform mesh: the discrete
    # eigenvalues have an explicit cosine expression
    N = 16
    pair = assemble_1d(BSplineSpace(1, N), gauss_legendre(2))
    spectrum = generalized_eig(pair.stiffness, pair.mass)
    h = 1.0 / N
    for j in range(1, N):
        c = math.cos(j * math.pi * h)
        lam = (6.0 / h ** 2) * (1 - c) / (2 + c)
        assert abs(float(spectrum.eigenvalues[j - 1]) - lam) < 1e-12 * lam


def test_eigenvalues_sorted_and_shapes():
    pair = assemble_1d(BSplineSpace(2, 8), gauss_legendre(3))
    spectrum = generalized_eig(pair.stiffness, pair.mass)
    n = pair.stiffness.n
    assert len(spectrum) == n
    assert spectrum.vectors.shape == (n, n)
    assert np.all(np.diff(np.asarray(spectrum.eigenvalues, dtype=float)) >= 0)


def _full_band(A):
    """A dense symmetric matrix as a band matrix of halfband n - 1, read
    from its lower triangle."""
    n = len(A)
    bands = np.zeros((n, n), dtype=np.longdouble)
    for d in range(n):
        bands[d, : n - d] = np.diagonal(A, -d)
    return SymBandMatrix(bands)


def test_generalized_eig_matches_reference_on_random_pencil():
    rng = np.random.default_rng(20260823)
    n = 12
    B = rng.standard_normal((n, n))
    K = B + B.T
    C = rng.standard_normal((n, n))
    M = C @ C.T + n * np.eye(n)
    import scipy.linalg

    want = np.sort(scipy.linalg.eigh(K, M, eigvals_only=True))
    got = np.asarray(generalized_eig(_full_band(K), _full_band(M)).eigenvalues, dtype=float)
    assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def _study_rule(p, label):
    """The quadrature rule a study label assembles both forms with."""
    if label == "dmm":
        return optimal_blend(p, "gl")  # assemble_1d_dmm's rule
    if label.startswith("blend:"):
        return optimal_blend(p, label[len("blend:"):])
    return {"gauss": gauss_legendre(p + 1), "gp": gauss_legendre(p),
            "lobatto": gauss_lobatto(p + 1), "radau": gauss_radau(p)}[label]


def _study_pair(p, N, label):
    space = BSplineSpace(p, N)
    if label == "dmm":
        return assemble_1d_dmm(space)
    return assemble_1d(space, _study_rule(p, label))


def _assert_leading_modes_are_the_full_solve(K, M, counts):
    full = generalized_eig(K, M)
    n = len(full)
    for count in counts:
        part = generalized_eig(K, M, count)
        k = min(count, n)
        assert len(part) == k and part.vectors.shape == (n, k)
        assert np.array_equal(part.eigenvalues, full.eigenvalues[:k]), count
        assert np.array_equal(part.vectors, full.vectors[:, :k]), count


@pytest.mark.parametrize("N", [4, 8, 17, 64])
@pytest.mark.parametrize("label", ["gauss", "gp", "lobatto", "radau", "dmm"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_leading_modes_are_bitwise_those_of_the_full_solve(p, label, N):
    pair = _study_pair(p, N, label)
    n = pair.stiffness.n
    _assert_leading_modes_are_the_full_solve(
        pair.stiffness, pair.mass, (1, 3, n - 1, n, n + 5))


def test_generalized_eig_needs_a_positive_count():
    pair = assemble_1d(BSplineSpace(2, 6), gauss_legendre(3))
    with pytest.raises(ValueError):
        generalized_eig(pair.stiffness, pair.mass, 0)


def test_a_kronecker_operator_is_refused_at_entry(monkeypatch):
    # the 2D spectrum is the tensor sums of the 1D one: generalized_eig
    # solves band pencils only, and says so before any factor or copy
    pair = _study_pair(2, 8, "dmm")
    square = assemble_2d(pair)
    monkeypatch.setattr(eigensolve, "_f2py", lambda name: pytest.fail(f"{name} loaded"))
    for K, M in ((square.stiffness, square.mass), (pair.stiffness, square.mass),
                 (square.stiffness, pair.mass)):
        with pytest.raises(TypeError, match="KroneckerSum.*tensor_spectrum_2d"):
            generalized_eig(K, M, 4)


def _count_solver_calls(monkeypatch):
    """Record '_dense_eigh' and '_lanczos' for every dense and Lanczos solve."""
    calls = []
    for name in ("_dense_eigh", "_lanczos"):
        solver = getattr(eigensolve, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(eigensolve, name, counted)
    return calls


def _dense_solve(monkeypatch, K, M, count):
    """generalized_eig with the crossover out of reach: the dense route."""
    with monkeypatch.context() as patch:
        patch.setattr(eigensolve, "_BANDED_MIN_N", 10 ** 9)
        return generalized_eig(K, M, count)


def _assert_same_modes(band, dense, M):
    """Refined eigenvalues within 1e-14 relative, and each vector the dense
    one of its mode up to sign (unit M-overlap, none with another mode)."""
    assert len(band) == len(dense)
    rel = np.abs(band.eigenvalues - dense.eigenvalues) / dense.eigenvalues
    assert float(np.max(rel)) <= 1e-14
    overlap = band.vectors.T @ dense_reference.dense(M) @ dense.vectors
    assert np.allclose(np.abs(overlap), np.eye(len(band)), atol=1e-8)


def test_band_pencils_from_the_crossover_on_take_the_lanczos_solve(monkeypatch):
    calls = _count_solver_calls(monkeypatch)
    n0 = eigensolve._BANDED_MIN_N
    below = _study_pair(2, n0 - 1, "gauss")  # p = 2: n = N
    above = _study_pair(2, n0, "gauss")
    assert (below.stiffness.n, above.stiffness.n) == (n0 - 1, n0)
    generalized_eig(below.stiffness, below.mass, 4)
    assert calls == ["_dense_eigh"]
    generalized_eig(above.stiffness, above.mass, 4)
    assert calls == ["_dense_eigh", "_lanczos"]


@pytest.mark.parametrize("p,N,label", [
    (2, 256, "gauss"), (2, 512, "dmm"), (3, 256, "radau"), (3, 1024, "dmm"),
    (4, 256, "lobatto"), (5, 300, "gp"), (1, 400, "gauss"), (6, 233, "dmm"),
    (8, 200, "blend:gg"),
])
def test_band_solve_pairs_with_the_dense_leading_modes(monkeypatch, p, N, label):
    # the Lanczos run tests the count pairs asked for and no pair past
    # it, so the count-th mode is the last one its test covers; six
    # modes: three even about x = 1/2 (j odd), three odd (j even)
    pair = _study_pair(p, N, label)
    calls = _count_solver_calls(monkeypatch)
    dense = _dense_solve(monkeypatch, pair.stiffness, pair.mass, 20)
    for count in (1, 6, 20):
        band = generalized_eig(pair.stiffness, pair.mass, count)
        # the dense route's leading modes are bitwise those of a longer solve
        _assert_same_modes(band, Spectrum(dense.eigenvalues[:count], dense.vectors[:, :count]),
                           pair.mass)
    assert calls == ["_dense_eigh"] + ["_lanczos"] * 3


def _absolute_bands(wh, table):
    """The full band array of sum over elements e and nodes k of wh[k]
    table[e, k, a] table[e, k, a + d], added element by element."""
    N, _, width = table.shape
    bands = np.zeros((width, N + width - 1), dtype=np.longdouble)
    for d in range(width):
        for a in range(width - 1 - d, -1, -1):
            contrib = wh * (table[:, :, a] * table[:, :, a + d])
            for k in range(len(wh)):
                bands[d, a: a + N] += contrib[:, k]
    return bands


def _absolute_pair(p, N, label):
    """The Dirichlet band operators whose entries are the sums of the
    absolute quadrature terms of the study pencil's at the rule's nodes:
    |w h| times |dphi_a dphi_b| for the stiffness, |phi_a phi_b| for the
    mass, so the |w| of a blend's signed weights, and with it the
    amplification of its ratio, enters too."""
    rule = _study_rule(p, label)
    wh = np.abs(rule.as_longdouble()[1] * (np.longdouble(1) / N))
    values, derivatives = _basis_at(p, N, [float(x) for x in rule.nodes])
    K, M = (_absolute_bands(wh, np.abs(table)) for table in (derivatives, values))
    return SymBandMatrix(K[:, 1:-1]), SymBandMatrix(M[:, 1:-1])


def _basis_at(p, N, nodes):
    """Values and derivatives of every element's functions at its points
    (e + x) / N, x in nodes, as (N, len(nodes), p + 1) arrays: the float
    reference, once on the first element of each type (min(e, p - 1),
    min(N - 1 - e, p - 1)), whose basis every element of the type has."""
    first = {}
    for e in range(N):
        first.setdefault((min(e, p - 1), min(N - 1 - e, p - 1)),
                         [reference_basis(p, N, (e + x) / N, e) for x in nodes])
    rows = [first[min(e, p - 1), min(N - 1 - e, p - 1)] for e in range(N)]
    return tuple(np.array([[point[i] for point in row] for row in rows], dtype=np.longdouble)
                 for i in (0, 1))


def _rounding_floor(K, M, K_abs, M_abs, V):
    """The first-order bound on the relative rounding error of the
    longdouble Rayleigh quotient of each column v of V:
    eps_ld (|v|^T K_abs |v| / v^T K v + |v|^T M_abs |v| / v^T M v)."""
    V = V.astype(np.longdouble)
    A = np.abs(V)
    ratio = (np.sum(A * K_abs.matvec(A), axis=0) / np.sum(V * K.matvec(V), axis=0)
             + np.sum(A * M_abs.matvec(A), axis=0) / np.sum(V * M.matvec(V), axis=0))
    return np.finfo(np.longdouble).eps * ratio


def _residuals(K, M, spectrum):
    """||K v - lambda M v|| / (||K v|| + lambda ||M v||) of each refined
    pair, in longdouble."""
    V = spectrum.vectors.astype(np.longdouble)
    KV, MV = K.matvec(V), M.matvec(V)
    norm = lambda X: np.sqrt(np.sum(X * X, axis=0))  # noqa: E731
    return norm(KV - spectrum.eigenvalues * MV) / (norm(KV) + spectrum.eigenvalues * norm(MV))


# pencil orders from the switch up to 159, four a degree
_SWITCH_ORDERS = np.linspace(eigensolve._BANDED_MIN_N, 159, 4).round().astype(int)


def test_the_route_switch_stays_within_the_rounding_floor_with_better_vectors(monkeypatch):
    # the pencils of order _BANDED_MIN_N to 159 are those the measured
    # crossover sends to Lanczos and a switch at 160 kept on the dense
    # solve, so their cells are the ones it moves.  For the 7 leading modes
    # of each, p = 1..6 and every rule of the diff_outputs sweep (840
    # eigenvalues, 784 of which move), the Lanczos eigenvalue moves from
    # the dense one by at most the floor of its Rayleigh quotient (at most
    # 0.33 of it, at p = 6, n = 88, radau, mode 7), so the switch moves no
    # eigenvalue cell by more than the arithmetic that prints it can
    # resolve.  A Rayleigh quotient is second order in its vector, so the
    # eigenfunction cells are gated by the vectors themselves: each Lanczos
    # pair's residual is at most the dense one's (at most 0.29 of it, 0.033
    # in the median)
    for p in range(1, 7):
        for n in _SWITCH_ORDERS:
            for label in ("gauss", "radau", "dmm", "lobatto", "gp"):
                pair = _study_pair(p, n - p + 2, label)
                K, M = pair.stiffness, pair.mass
                assert K.n == n
                lanczos = generalized_eig(K, M, 7)
                dense = _dense_solve(monkeypatch, K, M, 7)
                floor = _rounding_floor(K, M, *_absolute_pair(p, n - p + 2, label),
                                        lanczos.vectors)
                move = np.abs(lanczos.eigenvalues - dense.eigenvalues) / dense.eigenvalues
                assert np.all(move <= floor), (p, n, label, move / floor)
                better = _residuals(K, M, lanczos) / _residuals(K, M, dense)
                assert np.all(better <= 1), (p, n, label, better)


def test_band_solves_are_repeatable():
    a = _study_pair(3, 256, "dmm")
    b = _study_pair(2, 400, "gauss")
    first = generalized_eig(a.stiffness, a.mass, 4)
    generalized_eig(b.stiffness, b.mass, 7)
    again = generalized_eig(a.stiffness, a.mass, 4)
    assert np.array_equal(first.eigenvalues, again.eigenvalues)
    assert np.array_equal(first.vectors, again.vectors)


@pytest.mark.parametrize("offset", [3, 2, 1, 0, -5])
def test_band_pencil_counts_near_n(monkeypatch, offset):
    # every count below n is a Lanczos solve, n - 1 too; n and above dense
    pair = _study_pair(2, eigensolve._BANDED_MIN_N, "gauss")
    n = pair.stiffness.n
    calls = _count_solver_calls(monkeypatch)
    got = generalized_eig(pair.stiffness, pair.mass, n - offset)
    assert calls == (["_lanczos"] if offset > 0 else ["_dense_eigh"])
    assert len(got) == min(n - offset, n) and got.vectors.shape == (n, len(got))
    _assert_same_modes(got, _dense_solve(monkeypatch, pair.stiffness, pair.mass, n - offset),
                       pair.mass)


def _record_refined_widths(monkeypatch):
    """Record the block width of every product of a band operator with a
    block of columns."""
    widths = []
    matvec = SymBandMatrix.matvec

    def recorded(op, x):
        if np.ndim(x) == 2:
            widths.append(x.shape[1])
        return matvec(op, x)

    monkeypatch.setattr(SymBandMatrix, "matvec", recorded)
    return widths


@pytest.mark.parametrize("N", [16, 256])
def test_a_band_solve_refines_count_modes(monkeypatch, N):
    # n = 17 and 257: the dense route and the Lanczos one.  The
    # refinement's K V and M V are the only products with the operators,
    # one block each
    band = _study_pair(3, N, "dmm")
    calls = _count_solver_calls(monkeypatch)
    widths = _record_refined_widths(monkeypatch)
    for count in (1, 4, 9):
        assert len(generalized_eig(band.stiffness, band.mass, count)) == count
        assert widths == [count] * 2, count
        widths.clear()
    route = "_lanczos" if N >= eigensolve._BANDED_MIN_N else "_dense_eigh"
    assert calls == [route] * 3
    # all modes: the count caps at n, in blocks of _REFINE_BLOCK columns
    n, block = band.stiffness.n, eigensolve._REFINE_BLOCK
    assert len(generalized_eig(band.stiffness, band.mass)) == n
    assert widths == [min(block, n - lo) for lo in range(0, n, block) for _ in "KM"]


# every label a study accepts, without the aliases G, L and R
_STUDY_LABELS = ("gauss", "gp", "lobatto", "radau", "dmm",
                 *(f"blend:{pair}" for pair in quadrature._PAIR_NAMES))


def _study_spectra(monkeypatch, p, N, count):
    """The leading count refined eigenvalues of every study label's 1D
    pencil at (p, N), by label, from the dense solve of the whole spectrum;
    a blend with no ratio at p, or a mass that is not positive definite,
    has none."""
    spectra = {}
    for label in _STUDY_LABELS:
        try:
            pair = _study_pair(p, N, label)
            spectra[label] = _dense_solve(monkeypatch, pair.stiffness, pair.mass,
                                          count).eigenvalues
        except (quadrature.DegenerateBlendError, eigensolve.IndefiniteMassError):
            pass
    return spectra


@pytest.mark.parametrize("N", [3, 4, 8, 33, 160])
def test_the_leading_1d_spectra_are_simple(monkeypatch, N):
    # a band solve refines the count modes alone, and starts Lanczos from
    # one vector: among the first 16, no two modes of a study pencil tie
    # (the smallest gap here is 2.4e-2, at p = 6, N = 8, dmm)
    for p in range(1, 7):
        for label, w in _study_spectra(monkeypatch, p, N, 16).items():
            gaps = np.diff(np.asarray(w, dtype=float)) / np.asarray(w[:-1], dtype=float)
            assert np.all(gaps > 1e-6), (p, N, label, float(np.min(gaps)))


@pytest.mark.parametrize("p,N", [(2, 24), (3, 16), (2, 8), (3, 6)]
                         + [(p, 14) for p in range(1, 7)])
def test_the_leading_2d_ties_are_twin_pairs(monkeypatch, p, N):
    # a 2D study cell pairs the m-th pairwise sum of the 1D spectrum with
    # the m-th exact value (j^2 + k^2) pi^2, and --verify-kron pairs it with
    # the 1D modes behind it: among the first 20 sums, at the meshes the
    # kron-2d cross-checks, the 2D goldens and the output sweep read, every
    # near tie is a (j, k)/(k, j) pair, as in the exact spectrum, so no
    # three sums tie (the smallest gap between sums that are not twins is
    # 1.1e-3, at p = 1, N = 14, gp)
    for label, w in _study_spectra(monkeypatch, p, N, 20).items():
        sums = sorted((w[j] + w[k], min(j, k), max(j, k))
                      for j in range(len(w)) for k in range(len(w)))[:20]
        tied = [(a[1:], b[1:]) for a, b in zip(sums, sums[1:])
                if b[0] - a[0] <= 1e-6 * a[0]]
        assert all(a == b for a, b in tied), (p, N, label, tied)


def _record_copies(monkeypatch):
    """Record each band operator whose band copy is taken."""
    copied = []
    to_bands = SymBandMatrix.to_bands

    def recorded(op):
        copied.append(op)
        return to_bands(op)

    monkeypatch.setattr(SymBandMatrix, "to_bands", recorded)
    return copied


@pytest.mark.parametrize("N", [16, 256])
def test_an_indefinite_mass_is_refused_on_either_route(monkeypatch, N):
    # 16 elements take the dense solve, 256 the Lanczos one; on both, the
    # band Cholesky of the mass refuses it before any solve, and the only
    # copy taken is the one it factors
    pair = assemble_1d(BSplineSpace(3, N), optimal_blend(3, "gr"))
    calls = _count_solver_calls(monkeypatch)
    copied = _record_copies(monkeypatch)
    with pytest.raises(eigensolve.IndefiniteMassError):
        generalized_eig(pair.stiffness, pair.mass, 4)
    assert calls == []
    assert [op is pair.mass for op in copied] == [True]


def test_a_definite_mass_is_factored_once_on_the_dense_route(monkeypatch):
    # the band Cholesky of the mass is the one definiteness check on either
    # route: on the dense one it factors M once and K never
    pair = assemble_1d(BSplineSpace(3, 16), optimal_blend(3, "gl"))
    factored = []
    band_cholesky = eigensolve._band_cholesky

    def recorded(A):
        factored.append(A)
        return band_cholesky(A)

    monkeypatch.setattr(eigensolve, "_band_cholesky", recorded)
    assert len(generalized_eig(pair.stiffness, pair.mass, 4)) == 4
    assert [A is pair.mass for A in factored] == [True]


def test_an_indefinite_stiffness_from_the_crossover_on_takes_the_dense_solve(monkeypatch):
    pair = _study_pair(3, 256, "dmm")
    K = SymBandMatrix(-pair.stiffness.bands)
    assert K.n >= eigensolve._BANDED_MIN_N
    calls = _count_solver_calls(monkeypatch)
    got = generalized_eig(K, pair.mass, 6)
    assert calls == ["_dense_eigh"]
    dense = _dense_solve(monkeypatch, K, pair.mass, 6)
    assert np.array_equal(got.eigenvalues, dense.eigenvalues)
    assert np.array_equal(got.vectors, dense.vectors)
    assert float(got.eigenvalues[0]) < 0


def _with_entry(op, value):
    """A copy of the band operator with value on its first subdiagonal."""
    bands = op.bands.copy()
    bands[1, 3] = value
    return SymBandMatrix(bands)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("form", ["stiffness", "mass"])
def test_the_dense_solve_refuses_a_non_finite_pencil_before_any_lapack_call(monkeypatch,
                                                                         value, form):
    # scipy.linalg.eigh's check_finite, which the dense route keeps
    pair = _study_pair(2, 16, "gauss")
    ops = {"stiffness": pair.stiffness, "mass": pair.mass}
    ops[form] = _with_entry(ops[form], value)
    assert ops[form].n < eigensolve._BANDED_MIN_N

    def forbidden(name):
        raise AssertionError(f"LAPACK or BLAS ({name}) before the finiteness check")

    monkeypatch.setattr(eigensolve, "_f2py", forbidden)
    with pytest.raises(ValueError, match="inf or NaN"):
        eigensolve._dense_eigh(ops["stiffness"], ops["mass"])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_stiffness_fails_generalized_eig_before_the_dense_solve(monkeypatch,
                                                                             value):
    pair = _study_pair(2, 16, "gauss")
    K = _with_entry(pair.stiffness, value)

    def forbidden(*args, **kwargs):
        raise AssertionError("dsygvd on a non-finite pencil")

    monkeypatch.setattr(eigensolve._f2py("_flapack"), "dsygvd", forbidden)
    with pytest.raises(ValueError, match="inf or NaN"):
        generalized_eig(K, pair.mass, 4)


@pytest.mark.parametrize("info", [-2, 3, 14 + 5])  # illegal argument, no convergence, M
def test_a_nonzero_dsygvd_info_raises(monkeypatch, info):
    pair = _study_pair(2, 14, "gauss")  # p = 2: n = N
    flapack = eigensolve._f2py("_flapack")
    dsygvd, seen = flapack.dsygvd, []

    def failing(a, b):
        w, v, _ = dsygvd(a, b)
        seen.append(len(a))
        return w, v, info

    monkeypatch.setattr(flapack, "dsygvd", failing)
    with pytest.raises(np.linalg.LinAlgError, match=f"LAPACK dsygvd info {info}$"):
        generalized_eig(pair.stiffness, pair.mass, 4)
    assert seen == [14]


def test_a_missing_extension_module_is_an_import_error_that_names_it():
    with pytest.raises(ImportError, match="scipy.linalg._absent") as raised:
        eigensolve._f2py("_absent")
    assert raised.value.name == "scipy.linalg._absent"
    assert "scipy.linalg._absent" not in sys.modules


def _ritz_pencils():
    """Band pencils of orders 256 and 289: both take the Lanczos solve."""
    return [_study_pair(2, 256, "gauss"), _study_pair(3, 288, "dmm")]


def test_no_solve_calls_numpys_lapack(monkeypatch, no_numpy_lapack):
    # the Lanczos Ritz checks run on scipy's LAPACK, as the band Cholesky,
    # the band solves and the dense route do: a solve calls one LAPACK
    monkeypatch.setattr(np.linalg, "eigh", no_numpy_lapack)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_numpy_lapack)
    with pytest.raises(AssertionError, match="numpy LAPACK"):
        np.linalg.cholesky(np.eye(2))
    calls = _count_solver_calls(monkeypatch)
    small = _study_pair(2, 16, "gauss")
    for pair in [small, *_ritz_pencils()]:
        assert len(generalized_eig(pair.stiffness, pair.mass, 8)) == 8
    assert calls == ["_dense_eigh", "_lanczos", "_lanczos"]


def _lanczos_result(monkeypatch, pair):
    """(w, U) of the one Lanczos run of an 8-mode solve of the pencil."""
    runs = []
    lanczos = eigensolve._lanczos

    def recorded(*args):
        runs.append(lanczos(*args))
        return runs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(eigensolve, "_lanczos", recorded)
        generalized_eig(pair.stiffness, pair.mass, 8)
    (w, U), = runs
    return w, U


def test_ritz_checks_give_bitwise_the_pairs_of_numpys_c_ordered_eigh(monkeypatch):
    # LAPACK returns the Ritz vectors in Fortran order, numpy's eigh in C
    # order, and the products with them round differently on the two
    # layouts: the copy to C order keeps every printed cell as it was
    pencils = _ritz_pencils()
    shipped = [_lanczos_result(monkeypatch, pair) for pair in pencils]

    def numpy_dsyevd(a, lower):
        w, v = np.linalg.eigh(a, UPLO="L" if lower else "U")
        assert v.flags.c_contiguous
        return w, v, 0

    monkeypatch.setattr(eigensolve._f2py("_flapack"), "dsyevd", numpy_dsyevd)
    for pair, (w, U) in zip(pencils, shipped):
        want_w, want_U = _lanczos_result(monkeypatch, pair)
        assert np.array_equal(w, want_w) and np.array_equal(U, want_U)


def test_a_failed_ritz_check_raises(monkeypatch):
    flapack = eigensolve._f2py("_flapack")
    dsyevd = flapack.dsyevd

    def failing(a, lower):
        w, v, _ = dsyevd(a, lower=lower)
        return w, v, 7

    monkeypatch.setattr(flapack, "dsyevd", failing)
    pair = _ritz_pencils()[0]
    with pytest.raises(np.linalg.LinAlgError, match="LAPACK dsyevd info 7$"):
        generalized_eig(pair.stiffness, pair.mass, 4)


def test_lanczos_vectors_are_mass_orthonormal(monkeypatch):
    pair = _study_pair(3, 512, "dmm")
    calls = _count_solver_calls(monkeypatch)
    got = generalized_eig(pair.stiffness, pair.mass, 12)
    assert calls == ["_lanczos"]
    V = got.vectors
    gram = V.T @ dense_reference.dense(pair.mass) @ V
    assert np.max(np.abs(gram - np.eye(12))) <= 1e-12


def test_generalized_eig_refuses_a_narrow_longdouble(monkeypatch):
    monkeypatch.setattr(eigensolve, "LONGDOUBLE_IS_WIDE", False)
    pair = _study_pair(2, 8, "gauss")
    with pytest.raises(eigensolve.PrecisionError):
        generalized_eig(pair.stiffness, pair.mass, 2)


def test_tensor_spectrum_is_the_pairwise_sum():
    e = np.array([1.0, 4.0, 9.5])
    want = sorted(a + b for a in e for b in e)
    assert np.allclose(np.asarray(tensor_spectrum_2d(e), dtype=float), want)
    assert len(tensor_spectrum_2d(e, count=4)) == 4
    assert float(tensor_spectrum_2d(e, count=1)[0]) == 2.0


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_the_kronecker_spectrum_is_the_tensor_sum_of_the_1d_one(p):
    # the theorem behind the tensor route and --verify-kron, by a dense
    # solve: scipy's eigh of (K (x) M + M (x) K, M (x) M), each the
    # longdouble np.kron sum rounded once, gives every pairwise sum of the
    # refined 1D spectrum, multiplicity kept, to float64 roundoff (at most
    # 7.0e-14 relative here, at p = 4)
    import scipy.linalg

    for label in ("gauss", "radau", "dmm", "blend:gg"):
        for N in (2, 3, 6):
            pair = _study_pair(p, N, label)
            square = assemble_2d(pair)
            want = tensor_spectrum_2d(generalized_eig(pair.stiffness, pair.mass).eigenvalues)
            got = scipy.linalg.eigh(dense_reference.dense(square.stiffness),
                                    dense_reference.dense(square.mass), eigvals_only=True)
            assert len(got) == len(want) == square.stiffness.n, (label, N)
            rel = np.abs(got - want) / want
            assert float(np.max(rel)) < 1e-12, (label, N)


def test_relative_errors_and_pairing_guard():
    exact = np.asarray(exact_spectrum(5), dtype=np.longdouble)
    fake = Spectrum(exact * (1 + 1e-6), np.eye(5))
    errs = np.asarray(relative_ev_errors(fake, 5), dtype=float)
    assert np.allclose(errs, 1e-6, rtol=1e-6)
    with pytest.raises(PairingError):
        relative_ev_errors(fake, 6)
    # plain arrays work too
    errs2 = np.asarray(relative_ev_errors(exact * (1 - 2e-7), 3), dtype=float)
    assert np.allclose(errs2, 2e-7, rtol=1e-6)


@pytest.mark.parametrize("p,N,count", [
    (2, 100, None),  # dense, all 100 modes: two refinement blocks
    (3, 300, 6),  # Lanczos
])
def test_refined_eigenvalues_are_the_per_column_rayleigh_quotients(p, N, count):
    pair = assemble_1d_dmm(BSplineSpace(p, N))
    K, M = pair.stiffness, pair.mass
    spectrum = generalized_eig(K, M, count)
    assert len(spectrum) == (count or K.n)
    for j, value in enumerate(spectrum.eigenvalues):
        v = spectrum.vectors[:, j].astype(np.longdouble)
        assert value == (v @ K.matvec(v)) / (v @ M.matvec(v)), j


def test_energy_error_equals_direct_integration():
    # longdouble table integral vs a float brute-force integration of (u_h' - u')^2
    p, N, mode = 1, 8, 1
    space = BSplineSpace(p, N)
    pair = assemble_1d(space, gauss_legendre(p + 1))
    spectrum = generalized_eig(pair.stiffness, pair.mass)
    got = energy_error(pair, spectrum, mode)

    v = spectrum.vectors[:, mode - 1].astype(np.longdouble)
    Mmv = pair.mass.matvec
    v = v / np.sqrt(v @ Mmv(v))  # exact rule: this mass IS the L2 Gram
    c = np.zeros(space.dim_full, dtype=np.longdouble)
    c[1:-1] = v
    h = 1.0 / N
    fine = gauss_legendre(10)
    jpi = mode * math.pi
    amp = math.sqrt(2)

    def uh_prime(e, x):
        _, der = reference_basis(p, N, float((e + x) * h), e)
        return float(np.dot(c[e: e + p + 1], der))

    overlap_sign = 1.0
    probe = sum(w * uh_prime(0, x) for x, w in zip(fine.nodes, fine.weights))
    if probe < 0:  # u' > 0 near 0 for the first mode
        overlap_sign = -1.0
    acc = 0.0
    for e in range(N):
        for x, w in zip(fine.nodes, fine.weights):
            t = (e + x) * h
            diff = overlap_sign * uh_prime(e, x) - amp * jpi * math.cos(jpi * t)
            acc += w * h * diff * diff
    assert abs(got - math.sqrt(acc)) < 1e-10 * got


def _energy_error_by_scalar_loop(pair, spectrum, mode):
    """Reference energy error: the type tables of the (p + 5)-point Gauss
    rule read one point at a time, element e's from its type (min(e,
    p - 1), min(N - 1 - e, p - 1)), accumulated in element-then-node order;
    a first pass for the L2 norm of u_h and the sign of its overlap with
    sin(mode pi x), then the direct integral of (u' - u_h')^2."""
    space = pair.space
    p, N = space.p, space.N
    h = np.longdouble(1) / N
    nodes, weights = gauss_legendre(p + 5).as_longdouble()
    types = sorted({(min(e, p - 1), min(N - 1 - e, p - 1)) for e in range(N)})
    slopes, values = eigensolve._type_tables(p, tuple(types))
    jpi = mode * PI_LD
    c_full = np.zeros(space.dim_full, dtype=np.longdouble)
    c_full[1:-1] = spectrum.vectors[:, mode - 1]
    points = [(e, k, types.index((min(e, p - 1), min(N - 1 - e, p - 1))), w * h, (e + x) * h)
              for e in range(N) for k, (x, w) in enumerate(zip(nodes, weights))]
    mass = overlap = np.longdouble(0)
    for e, k, i, wh, t in points:
        uh = np.dot(c_full[e: e + p + 1], values[i, k])
        mass += wh * uh * uh
        overlap += wh * (_SQRT2_LD * np.sin(jpi * t)) * uh
    scale = -np.sqrt(mass) if overlap < 0 else np.sqrt(mass)
    err2 = np.longdouble(0)
    for e, k, i, wh, t in points:
        # the local slopes carry the 1/h of d/dx
        uh_prime = np.dot(c_full[e: e + p + 1], slopes[i, k]) * N / scale
        diff = _SQRT2_LD * jpi * np.cos(jpi * t) - uh_prime
        err2 += wh * diff * diff
    return float(np.sqrt(err2))


@pytest.mark.parametrize("N", [3, 8, 32])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_energy_error_is_bitwise_the_scalar_loop(p, N):
    space = BSplineSpace(p, N)
    pair = assemble_1d(space, gauss_radau(p + 1))
    spectrum = generalized_eig(pair.stiffness, pair.mass)
    for mode in (1, 2, len(spectrum)):
        assert energy_error(pair, spectrum, mode) == _energy_error_by_scalar_loop(
            pair, spectrum, mode)


@pytest.mark.parametrize("N", [3, 8, 33])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_the_energy_product_has_the_sign_of_the_longdouble_overlap(p, N):
    # u_h takes the sign of a(u, u_h) = lambda m(u, u_h); on every mode it
    # is the sign of the longdouble L2 overlap with sqrt(2) sin(mode pi x),
    # read off as the one of the two signed errors energy_error returns.
    # Where the overlap is roundoff (the outlier modes of a mesh coarser
    # than about 2p) either sign prints the same six digits
    space = BSplineSpace(p, N)
    t, wh, index, (der, val) = eigensolve._energy_tables(space)
    for label in ("gauss", "radau", "dmm"):
        pair = _study_pair(p, N, label)
        spectrum = generalized_eig(pair.stiffness, pair.mass)
        for mode in range(1, len(spectrum) + 1):
            c_full = np.zeros(space.dim_full, dtype=np.longdouble)
            c_full[1:-1] = spectrum.vectors[:, mode - 1]
            coeffs = c_full[np.arange(N)[:, None] + np.arange(p + 1)]
            uh = eigensolve._element_dot(coeffs, val, index)
            uh_prime = eigensolve._element_dot(coeffs, der, index) * N
            norm = np.sqrt(np.cumsum(wh * uh * uh)[-1])
            overlap = np.cumsum(wh * (_SQRT2_LD * np.sin(mode * PI_LD * t)) * uh)[-1] / norm
            slope = eigensolve._mode_tables(space, mode)
            signed = {}
            for sign in (1, -1):
                diff = slope - uh_prime / (sign * norm)
                signed[sign] = float(np.sqrt(np.cumsum(wh * diff * diff)[-1]))
            got = energy_error(pair, spectrum, mode)
            if abs(overlap) >= 1e-10:
                assert got == signed[1 if overlap > 0 else -1], (label, mode)
            else:
                assert got in signed.values(), (label, mode)
                assert f"{signed[1]:.5e}" == f"{signed[-1]:.5e}", (label, mode)


def _energy_error_mp(space, vector, mode):
    """sqrt of the integral of (u' - u_h')^2 in 40-digit arithmetic, u_h
    normalized in L2 and sign-aligned with sin(mode pi x), on 12 Gauss points
    an element (exact for the mass, and far past six digits for the rest);
    the basis comes from the reference on 40-digit knots k/N, so any N will
    do."""
    from mpmath import mp

    with mp.workdps(40):
        c = [0] + [mp.mpf(float(x)) for x in vector] + [0]
        rule = gauss_legendre(12)
        pairs = tuple(zip(rule.nodes, rule.weights))
        h = mp.mpf(1) / space.N
        jpi = mode * mp.pi
        mass = overlap = 0
        slopes = []
        for e in range(space.N):
            for x, w in pairs:
                t = (e + x) * h
                val, der = reference_basis(space.p, space.N, t, e)
                uh = mp.fsum(c[e + a] * val[a] for a in range(space.p + 1))
                mass += w * h * uh ** 2
                overlap += w * h * mp.sin(jpi * t) * uh
                slopes.append((w * h, mp.sqrt(2) * jpi * mp.cos(jpi * t),
                               mp.fsum(c[e + a] * der[a] for a in range(space.p + 1))))
        scale = mp.sign(overlap) / mp.sqrt(mass)
        return mp.sqrt(mp.fsum(wh * (du - scale * duh) ** 2 for wh, du, duh in slopes))


@pytest.mark.parametrize("p,N,label,printed", [
    # the golden cells 3,64,gauss,1 and 3,64,dmm,1 of study1d_p3_energy_json.txt
    (3, 64, "gauss", "2.13816e-06"),
    (3, 64, "dmm", "2.13816e-06"),
    # the cancelling identity returned 0.0 here.  The Lanczos vector's
    # error is 1.030074622e-09, the converged value: five steps of 40-digit
    # inverse iteration on the longdouble bands give the same ten digits
    (4, 128, "gauss", "1.03007e-09"),
    # a mesh that is not a power of two: the cell 3,48,gauss,1 of
    # study-1d -p 3 --rules gauss --meshes 24,48 --energy
    (3, 48, "gauss", "5.07068e-06"),
])
def test_energy_error_matches_a_40_digit_integral(p, N, label, printed):
    pair = _study_pair(p, N, label)
    spectrum = generalized_eig(pair.stiffness, pair.mass, 4)
    want = _energy_error_mp(pair.space, spectrum.vectors[:, 0], 1)
    got = energy_error(pair, spectrum, 1)
    assert f"{float(want):.5e}" == printed
    assert abs(got - float(want)) <= 1e-9 * float(want)


def _clear_energy_caches():
    eigensolve._type_tables.cache_clear()
    eigensolve._energy_tables.cache_clear()
    eigensolve._mode_tables.cache_clear()


def test_energy_tables_are_kept_per_space_and_reused_bitwise():
    # every rule and job on a space reads one set of tables and one slope
    # per mode: spaces A, B, A in turn, then radau and dmm on A,
    # give the bits of a cold cache, with one table build per space and
    # one type-table build for both, whose meshes share their type set
    jobs = [(8, "gauss"), (12, "gauss"), (8, "gauss"), (8, "radau"), (8, "dmm")]
    solved = {}
    for N, label in jobs:
        pair = _study_pair(2, N, label)
        solved[N, label] = (pair, generalized_eig(pair.stiffness, pair.mass, 3))
    cold = {}
    for key, (pair, spectrum) in solved.items():
        for mode in (1, 2, 3):
            _clear_energy_caches()
            cold[key, mode] = energy_error(pair, spectrum, mode)
    _clear_energy_caches()
    for key in jobs:
        pair, spectrum = solved[key]
        for mode in (1, 2, 3):
            assert energy_error(pair, spectrum, mode) == cold[key, mode], (key, mode)
    assert eigensolve._energy_tables.cache_info().misses == 2
    assert eigensolve._type_tables.cache_info().misses == 1
    assert eigensolve._energy_tables(BSplineSpace(2, 8))[3] is \
        eigensolve._energy_tables(BSplineSpace(2, 12))[3]
    assert eigensolve._mode_tables.cache_info().misses == 2 * 3


def test_the_shared_energy_tables_are_read_only():
    # a space's points, weights times h and element type indices, the type
    # tables its type set shares, and a mode's slopes
    space = BSplineSpace(3, 8)
    tables = eigensolve._energy_tables(space) + (eigensolve._mode_tables(space, 2),)
    assert len(tables) == 5
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


def test_an_energy_study_prints_the_same_bytes_after_other_rules_in_its_process():
    # the dmm study alone, and after a gauss,radau study on the same spaces
    # has filled the shared tables, in fresh interpreters
    script = (
        "import contextlib, io, sys\n"
        "from igadmm.cli import main\n"
        "argv = ['study-1d', '-p', '2', '--energy', '--meshes', '8,16', '--json', '-']\n"
        "if sys.argv[1] == 'after':\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv + ['--rules', 'gauss,radau']) == 0\n"
        "sys.exit(main(argv + ['--rules', 'dmm']))\n")
    outputs = []
    for when in ("alone", "after"):
        proc = subprocess.run([sys.executable, "-c", script, when],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert '"ef_energy_error"' in outputs[0] and '"rule": "dmm"' in outputs[0]


def test_energy_error_mode_guard():
    pair = assemble_1d(BSplineSpace(2, 6), gauss_legendre(3))
    spectrum = generalized_eig(pair.stiffness, pair.mass)
    with pytest.raises(PairingError):
        energy_error(pair, spectrum, 0)
    with pytest.raises(PairingError):
        energy_error(pair, spectrum, len(spectrum) + 1)


def test_convergence_rate_fits_dyadic_sequences():
    errs = [3.0 * 2.0 ** (-4 * k) for k in range(5)]
    assert abs(convergence_rate(errs, [8, 16, 32, 64, 128]) - 4.0) < 1e-12
    mixed = [1.0, 1.0 / 8, 1.0 / 32]  # steps 3 and 2 average to 2.5
    assert abs(convergence_rate(mixed, [4, 8, 16]) - 2.5) < 1e-12
    with pytest.raises(ValueError):
        convergence_rate([1.0], [8])


def test_a_series_with_a_cell_that_is_not_positive_has_no_rate():
    # a cell that rounds to 0 gives nan, not an error; length and mesh
    # order are still checked first
    for errs in ([1.0, 0.0], [0.0, 1e-3, 1e-5], [1e-3, -1e-5, 1e-7]):
        assert math.isnan(convergence_rate(errs, [8, 16, 32][:len(errs)])), errs
    with pytest.raises(ValueError):
        convergence_rate([1.0, 0.0], [16, 8])
    with pytest.raises(ValueError):
        convergence_rate([0.0], [8])


def test_convergence_rate_divides_by_the_mesh_ratio():
    # N grows by 1.5 per step and the error falls as N^-4
    meshes = [8, 12, 18, 27]
    errs = [float(N) ** -4 for N in meshes]
    assert abs(convergence_rate(errs, meshes) - 4.0) < 1e-12
    # a doubling ladder divides each step by log2(2) = 1 exactly
    dyadic = [3.1e-3, 2.2e-4, 1.3e-5]
    steps = np.log2(np.asarray(dyadic[:-1]) / np.asarray(dyadic[1:]))
    assert convergence_rate(dyadic, [8, 16, 32]) == float(np.mean(steps))
    for meshes in ([8, 8], [16, 8], [8, 16, 32]):
        with pytest.raises(ValueError):
            convergence_rate([1.0, 0.5], meshes)
