"""Dispersion symbol, expansion coefficients, slope fits, duality."""

import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from expected_values import LEAD_P1_EXACT_ORDER2, LEAD_P1_MINIMIZED_ORDER4
from igadmm.assembly import assemble_1d
from igadmm.dispersion import (
    StoppingBandError,
    coefficient_check,
    dispersion_error,
    error_expansion,
    fit_order,
    sample_curve,
)
from igadmm.dmm import dmm_stencil
from igadmm.eigensolve import exact_spectrum, generalized_eig
from igadmm.quadrature import gauss_legendre, quadrature_mass_stencil
from igadmm.splines import BSplineSpace
from igadmm.stencils import mass_stencil, stiffness_stencil


def test_symbol_follows_the_leading_expansion():
    A, B = stiffness_stencil(1), mass_stencil(1)
    y = 0.01
    r = y ** 2 * (1 + dispersion_error(1, A, B, y))  # the symbol R(y)
    assert abs(r / y ** 2 - 1 - float(LEAD_P1_EXACT_ORDER2) * y ** 2) < 1e-9


def test_error_sign_matches_the_leading_coefficient():
    assert dispersion_error(1, stiffness_stencil(1), mass_stencil(1), 0.3) > 0
    assert dispersion_error(1, stiffness_stencil(1), dmm_stencil(1), 0.3) < 0
    for p in (1, 2, 3):
        A = stiffness_stencil(p)
        lead, _ = error_expansion(p, A, mass_stencil(p))
        err = dispersion_error(p, A, mass_stencil(p), 0.05)
        assert math.copysign(1, err) == math.copysign(1, lead)


def test_stopping_band_raises():
    # mass symbol 1/6 + (5/6) cos(y) vanishes at cos(y) = -1/5
    A = stiffness_stencil(1)
    B = (Fraction(1, 6), Fraction(5, 12))
    y = math.acos(-0.2)
    with pytest.raises(StoppingBandError):
        dispersion_error(1, A, B, y)
    assert 1 + dispersion_error(1, A, B, 0.5) > 0  # away from the band all is well


def test_input_validation():
    A = stiffness_stencil(2)
    with pytest.raises(ValueError):
        dispersion_error(2, A, mass_stencil(2), 0)
    with pytest.raises(ValueError):
        dispersion_error(2, (1, 2), mass_stencil(2), 0.1)
    with pytest.raises(ValueError):
        coefficient_check(2, A, mass_stencil(2), 5)


def test_expansion_coefficients_are_exact_fractions():
    lead, nxt = error_expansion(1, stiffness_stencil(1), mass_stencil(1))
    assert lead == LEAD_P1_EXACT_ORDER2
    assert isinstance(lead, Fraction) and isinstance(nxt, Fraction)
    lead_d, next_d = error_expansion(1, stiffness_stencil(1), dmm_stencil(1))
    assert lead_d == 0
    assert next_d == LEAD_P1_MINIMIZED_ORDER4


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coefficient_check_exact_mass(p):
    chk = coefficient_check(p, stiffness_stencil(p), mass_stencil(p), 2 * p)
    assert chk.rel_deviation < 0.01


@pytest.mark.parametrize("p", [1, 2, 3])
def test_coefficient_check_minimized_mass(p):
    chk = coefficient_check(p, stiffness_stencil(p), dmm_stencil(p), 2 * p + 2)
    assert chk.rel_deviation < 0.01


def test_minimized_low_order_coefficient_vanishes():
    A, D = stiffness_stencil(2), dmm_stencil(2)
    lead, _ = error_expansion(2, A, D)
    assert lead == 0
    # numeric proxy: the scaled error at a small wavenumber sits below 1e-10
    # (the next-order term contributes ~1.8e-12 there)
    probe = coefficient_check(2, A, D, 4, wavenumber=1e-4)
    assert abs(probe.measured) < 1e-10


@pytest.mark.parametrize("p", [1, 2, 3])
def test_fitted_slopes(p):
    ys = np.geomspace(1e-2, 1e-1, 9)
    A = stiffness_stencil(p)
    exact = sample_curve(p, A, mass_stencil(p), ys)
    mini = sample_curve(p, A, dmm_stencil(p), ys)
    assert abs(fit_order(exact.wavenumbers, exact.errors) - 2 * p) < 0.1
    assert abs(fit_order(mini.wavenumbers, mini.errors) - (2 * p + 2)) < 0.1
    assert len(exact.errors) == len(ys)


def _error_per_point(A, B, y):
    """The relative error with each row converted and each symbol summed
    on its own, at the module's 50 digits."""
    def symbol(vals, y):
        vals = [mp.mpf(v.numerator) / v.denominator if isinstance(v, Fraction)
                else mp.mpf(v) for v in vals]
        acc = vals[0]
        for k in range(1, len(vals)):
            acc += 2 * vals[k] * mp.cos(k * y)
        return acc

    with mp.workdps(50):
        y = mp.mpf(y)
        num, den = symbol(A, y), symbol(B, y)
        return float((num - y * y * den) / (y * y * den))


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_sample_curve_equals_pointwise_errors_bitwise(p):
    A = stiffness_stencil(p).values
    ys = np.geomspace(0.01, 1.5, 11)
    rows = [mass_stencil(p).values, dmm_stencil(p).values,
            quadrature_mass_stencil(p, gauss_legendre(p + 1)).values,
            tuple(float(v) for v in mass_stencil(p).values)]
    for B in rows:
        curve = sample_curve(p, A, B, ys)
        assert curve.wavenumbers == tuple(float(y) for y in ys)
        assert curve.errors == tuple(dispersion_error(p, A, B, y) for y in ys)
        assert curve.errors == tuple(_error_per_point(A, B, y) for y in ys)


def test_fit_order_guards():
    with pytest.raises(ValueError):
        fit_order([0.1], [1e-3])
    with pytest.raises(ValueError):
        fit_order([0.1, 0.2], [0.0, 1e-3])


def test_curve_difference_isolates_the_leading_coefficient():
    # exact-mass and minimized-mass error curves differ at leading order by
    # exactly the order-2p coefficient
    y = 1e-3
    for p in (1, 2, 3):
        A = stiffness_stencil(p)
        lead, _ = error_expansion(p, A, mass_stencil(p))
        diff = dispersion_error(p, A, mass_stencil(p), y) \
            - dispersion_error(p, A, dmm_stencil(p), y)
        assert abs(diff / y ** (2 * p) - float(lead)) < 1e-3 * abs(float(lead))


def _signed_ev_errors(p, N, count):
    pair = assemble_1d(BSplineSpace(p, N), gauss_legendre(p + 1))
    spectrum = generalized_eig(pair.stiffness, pair.mass)
    exact = exact_spectrum(count)
    comp = np.asarray(spectrum.eigenvalues[:count], dtype=np.longdouble)
    return np.asarray((comp - exact) / exact, dtype=float)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_eigenvalue_errors_follow_the_dispersion_law(p):
    # low modes of the exact-mass discretization behave like plane waves:
    # the relative eigenvalue error tracks the dispersion expansion at the
    # mode's normalized wavenumber j pi h
    N = 64
    errs = _signed_ev_errors(p, N, N // 4)
    lead, nxt = error_expansion(p, stiffness_stencil(p), mass_stencil(p))
    h = 1.0 / N
    for j in range(1, N // 4 + 1):
        y = j * math.pi * h
        one = float(lead) * y ** (2 * p)
        two = one + float(nxt) * y ** (2 * p + 2)
        got = errs[j - 1]
        if j <= N // 8:
            assert abs(got - one) <= 0.10 * abs(got)
        assert abs(got - two) <= 0.05 * abs(got)
