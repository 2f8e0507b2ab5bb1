"""Eigensolver, exact spectra, error measures, rate fitting."""

import io
import math

import numpy as np
import pytest

from igadmm.assembly import assemble_1d
from igadmm.eigensolve import (
    PI_LD,
    _SQRT2_LD,
    ErrorRow,
    ErrorTable,
    PairingError,
    Spectrum,
    _cross_rule_points,
    _exact_forms,
    convergence_rate,
    energy_error,
    exact_spectrum,
    exact_spectrum_2d,
    generalized_eig,
    relative_ev_errors,
    tensor_spectrum_2d,
)
from igadmm.quadrature import gauss_legendre, gauss_radau
from igadmm.splines import BSplineSpace, nonzero_basis, nonzero_basis_derivatives


def test_exact_spectra():
    got = np.asarray(exact_spectrum(3), dtype=float)
    assert np.allclose(got, [math.pi ** 2, 4 * math.pi ** 2, 9 * math.pi ** 2],
                       rtol=1e-15)
    got2 = np.asarray(exact_spectrum_2d(4), dtype=float)
    assert np.allclose(got2, np.array([2, 5, 5, 8]) * math.pi ** 2, rtol=1e-15)


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


def test_generalized_eig_matches_reference_on_random_pencil():
    rng = np.random.default_rng(20260823)
    n = 12
    B = rng.standard_normal((n, n))
    K = B + B.T
    C = rng.standard_normal((n, n))
    M = C @ C.T + n * np.eye(n)
    import scipy.linalg

    want = np.sort(scipy.linalg.eigh(K, M, eigvals_only=True))
    got = np.asarray(generalized_eig(K, M).eigenvalues, dtype=float)
    assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_tensor_spectrum_is_the_pairwise_sum():
    e = np.array([1.0, 4.0, 9.5])
    want = sorted(a + b for a in e for b in e)
    assert np.allclose(np.asarray(tensor_spectrum_2d(e), dtype=float), want)
    assert len(tensor_spectrum_2d(e, count=4)) == 4
    assert float(tensor_spectrum_2d(e, count=1)[0]) == 2.0


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


def test_energy_error_equals_direct_integration():
    # identity-based value vs brute-force integration of (u_h' - u')^2
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
        first, der = nonzero_basis_derivatives(space, (e + x) * h, element=e)
        return float(np.dot(c[first: first + p + 1], der))

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
    """Reference energy error: scalar basis evaluations, one point at a
    time, accumulated in element-then-node order."""
    space = pair.space
    K_exact, M_exact = _exact_forms(space)
    v = spectrum.vectors[:, mode - 1].astype(np.longdouble)
    v = v / np.sqrt(v @ M_exact.matvec(v))
    p, N = space.p, space.N
    h = np.longdouble(1) / N
    nodes, weights = _cross_rule_points(p)
    jpi = mode * PI_LD
    c_full = np.zeros(space.dim_full, dtype=np.longdouble)
    c_full[1:-1] = v
    cross = np.longdouble(0)
    overlap = np.longdouble(0)
    for e in range(N):
        for x, w in zip(nodes, weights):
            t = (e + x) * h
            first, der = nonzero_basis_derivatives(space, t, element=e)
            uh_prime = np.dot(c_full[first: first + p + 1], der)
            first, val = nonzero_basis(space, t, element=e)
            uh = np.dot(c_full[first: first + p + 1], val)
            cross += w * h * (_SQRT2_LD * jpi * np.cos(jpi * t)) * uh_prime
            overlap += w * h * (_SQRT2_LD * np.sin(jpi * t)) * uh
    if overlap < 0:
        cross = -cross
        v = -v
    val = jpi ** 2 - 2 * cross + v @ K_exact.matvec(v)
    return float(np.sqrt(max(val, np.longdouble(0))))


@pytest.mark.parametrize("N", [3, 8, 32])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_energy_error_is_bitwise_the_scalar_loop(p, N):
    space = BSplineSpace(p, N)
    pair = assemble_1d(space, gauss_radau(p + 1))
    spectrum = generalized_eig(pair.stiffness, pair.mass)
    for mode in (1, 2, len(spectrum)):
        assert energy_error(pair, spectrum, mode) == _energy_error_by_scalar_loop(
            pair, spectrum, mode)


def test_energy_error_mode_guard():
    pair = assemble_1d(BSplineSpace(2, 6), gauss_legendre(3))
    spectrum = generalized_eig(pair.stiffness, pair.mass)
    with pytest.raises(PairingError):
        energy_error(pair, spectrum, 0)
    with pytest.raises(PairingError):
        energy_error(pair, spectrum, len(spectrum) + 1)


def test_convergence_rate_fits_dyadic_sequences():
    errs = [3.0 * 2.0 ** (-4 * k) for k in range(5)]
    assert abs(convergence_rate(errs) - 4.0) < 1e-12
    mixed = [1.0, 1.0 / 8, 1.0 / 32]  # steps 3 and 2 average to 2.5
    assert abs(convergence_rate(mixed) - 2.5) < 1e-12
    with pytest.raises(ValueError):
        convergence_rate([1.0])
    with pytest.raises(ValueError):
        convergence_rate([1.0, 0.0])


def test_error_table_exports_and_select():
    rows = (
        ErrorRow(2, 8, "gauss", 1, 3.41234e-5, 1.2e-3),
        ErrorRow(2, 16, "gauss", 1, 2.1e-6, None),
    )
    table = ErrorTable(rows)
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split(",") == list(ErrorTable.CSV_COLUMNS)
    assert lines[1] == "2,8,gauss,1,3.41234e-05,1.20000e-03"
    assert lines[2].endswith(",")  # missing eigenfunction column stays empty
    objs = table.to_json_obj()
    assert objs[0]["rel_ev_error"] == "3.41234e-05"
    assert "ef_energy_error" not in objs[1]
    assert table.select(N=16) == [rows[1]]
    assert table.select(N=16, mode=2) == []
