"""Exact Gram stencils, moment identities, and the integer recursion."""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from expected_values import EXACT_MASS, EXACT_STIFFNESS
from igadmm.dmm import dmm_stencil
from igadmm.splines import cardinal_derivative, cardinal_value
from igadmm.stencils import (
    Stencil,
    _fg_level,
    dispersion_moment,
    fg_verify,
    mass_stencil,
    stiffness_stencil,
    verify_ab_identity,
    verify_base_identities,
)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_exact_rows_frozen(p):
    assert mass_stencil(p).values == EXACT_MASS[p]
    assert stiffness_stencil(p).values == EXACT_STIFFNESS[p]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_rows_match_independent_integration(p):
    # independent oracle: numerically integrate the translate products of
    # the integer-knot spline, no recursion involved
    with mp.workdps(30):
        for k in range(p + 1):
            cuts = list(range(k, p + 2))  # integrate element by element
            m_num = mp.quad(lambda t: float(cardinal_value(p, t))
                            * float(cardinal_value(p, t - k)), cuts)
            a_num = mp.quad(lambda t: float(cardinal_derivative(p, t))
                            * float(cardinal_derivative(p, t - k)), cuts)
            assert abs(m_num - float(mass_stencil(p).values[k])) < 1e-13
            assert abs(a_num - float(stiffness_stencil(p).values[k])) < 1e-13


def test_stencil_accessors():
    s = mass_stencil(2)
    assert s.values == (Fraction(11, 20), Fraction(13, 60), Fraction(1, 120))
    assert s.row_sum() == 1


def test_stiffness_row_sum_and_moment():
    for p in range(1, 13):
        a = stiffness_stencil(p)
        assert a.row_sum() == 0
        assert sum(k * k * v for k, v in enumerate(a.values)) == -1


def test_mass_row_sum_and_moment():
    for p in range(1, 13):
        b = mass_stencil(p)
        assert b.row_sum() == 1
        assert (p + 1) - 12 * sum(k * k * v for k, v in enumerate(b.values)) == 0


@settings(max_examples=12, deadline=None)
@given(p=st.integers(min_value=1, max_value=12))
def test_base_identity_report(p):
    rep = verify_base_identities(p)
    assert rep.ok
    assert all(c.residual == 0 for c in rep.checks)


@settings(max_examples=11, deadline=None)
@given(p=st.integers(min_value=2, max_value=12))
def test_coupled_moments_vanish(p):
    rep = verify_ab_identity(p)
    assert rep.ok
    assert all(c.residual == 0 for c in rep.checks)
    # the vanishing stops exactly at order p: the next moment is nonzero,
    # which is what minimization later removes
    nxt = dispersion_moment(stiffness_stencil(p), mass_stencil(p), p + 1)
    assert nxt != 0


def test_integer_recursion_exact():
    t0 = time.perf_counter()
    rep = fg_verify(12, 12)
    assert rep.ok
    assert all(c.residual == 0 for c in rep.checks)
    assert len(rep.checks) >= 400
    assert time.perf_counter() - t0 < 60


def _fg_reference(p_max, m_max):
    """The identities of fg_verify by two recursion runs per (p, m): to
    level p-2 at subscript p+1 for the centred checks, to level p-2 at
    subscript p for the terminal one."""
    out = []
    for p in range(2, p_max + 1):
        for m in range(2, min(p, m_max) + 1):
            for q, F, G in _fg_level(p + 1, m, p - 2):
                if q >= 1:
                    out.append((f"fg_centered_q{q}", p, m, 2 * F - G[0]))
            for q, F, G in _fg_level(p, m, p - 2):
                if q == p - 2:
                    out.append(("fg_terminal", p, m, 4 * F + G[1]))
    return out


@pytest.mark.parametrize("p_max,m_max", [(2, 2), (6, 4), (9, 3), (3, 20), (12, 12), (20, 20)])
def test_fg_verify_matches_the_two_run_reference(p_max, m_max):
    got = [(c.name, c.p, c.m, c.residual) for c in fg_verify(p_max, m_max).checks]
    want = _fg_reference(p_max, m_max)
    assert Counter(got) == Counter(want)
    assert all(type(r) is int for *_, r in got)


def _moment_by_terms(A, b_vals, m):
    return sum(Fraction(k ** (2 * m), math.factorial(2 * m)) * A.values[k]
               + Fraction(k ** (2 * m - 2), math.factorial(2 * m - 2)) * b_vals[k]
               for k in range(1, A.p + 1))


@pytest.mark.parametrize("p", range(1, 11))
def test_integer_moment_equals_the_fraction_term_sum(p):
    A = stiffness_stencil(p)
    rows = [mass_stencil(p).values, dmm_stencil(p).values,
            tuple(k if k % 2 else Fraction(1, k + 1) for k in range(p + 1))]  # with ints
    for b_vals in rows:
        for m in range(2, p + 4):
            got = dispersion_moment(A, b_vals, m)
            assert type(got) is Fraction
            assert got == _moment_by_terms(A, b_vals, m)
    # the first moments that do not vanish
    assert dispersion_moment(A, mass_stencil(p), p + 1) != 0
    assert dispersion_moment(A, dmm_stencil(p), p + 2) != 0


def test_dispersion_moment_mixed_types():
    a = stiffness_stencil(2)
    b = mass_stencil(2)
    exact = dispersion_moment(a, b, 2)
    assert exact == 0
    approx = dispersion_moment(a, Stencil(2, "mass", tuple(float(v) for v in b.values)), 2)
    assert abs(approx) < 1e-16


def test_stencil_rejects_bad_kind():
    with pytest.raises(ValueError):
        Stencil(2, "lumped", (Fraction(1), Fraction(0), Fraction(0)))
