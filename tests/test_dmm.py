"""Dispersion-minimized mass rows and the exact rational solver."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expected_values import (
    LEAD_P1_EXACT_ORDER2,
    LEAD_P1_MINIMIZED_ORDER4,
    MINIMIZED_MASS,
)
from igadmm.dmm import (
    SingularMatrixError,
    dmm_stencil,
    leading_coefficient,
    solve_rational_system,
    verify_dmm_identity,
)
from igadmm.stencils import dispersion_moment, mass_stencil, stiffness_stencil


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_minimized_rows_frozen(p):
    assert dmm_stencil(p).values == MINIMIZED_MASS[p]


def test_minimized_rows_sum_to_one():
    for p in range(1, 11):
        assert dmm_stencil(p).row_sum() == 1


@pytest.mark.parametrize("p", range(1, 11))
def test_minimized_moments_vanish_one_order_further(p):
    rep = verify_dmm_identity(p)
    assert rep.ok
    assert all(c.residual == 0 for c in rep.checks)
    # sharpness: the next moment does not vanish
    nxt = dispersion_moment(stiffness_stencil(p), dmm_stencil(p), p + 2)
    assert nxt != 0


def test_leading_coefficients_frozen():
    a1, b1, d1 = stiffness_stencil(1), mass_stencil(1), dmm_stencil(1)
    assert leading_coefficient(1, a1, b1, 2) == LEAD_P1_EXACT_ORDER2
    assert leading_coefficient(1, a1, d1, 4) == LEAD_P1_MINIMIZED_ORDER4


def test_leading_coefficient_kills_low_order():
    # minimization zeroes the order-2p coefficient and only that one
    for p in (2, 3, 4):
        a = stiffness_stencil(p)
        assert leading_coefficient(p, a, dmm_stencil(p), 2 * p) == 0
        assert leading_coefficient(p, a, mass_stencil(p), 2 * p) != 0
        assert leading_coefficient(p, a, dmm_stencil(p), 2 * p + 2) != 0


def test_leading_coefficient_rejects_other_orders():
    a = stiffness_stencil(2)
    with pytest.raises(ValueError):
        leading_coefficient(2, a, mass_stencil(2), 3)
    with pytest.raises(ValueError):
        leading_coefficient(2, a, mass_stencil(2), 8)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    min_size=3, max_size=3),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3))
def test_rational_solver_exact(matrix, rhs):
    rows = [[Fraction(v) for v in row] for row in matrix]
    b = [Fraction(v) for v in rhs]
    try:
        x = solve_rational_system(rows, b)
    except SingularMatrixError:
        return
    for row, want in zip(rows, b):
        assert sum(c * xi for c, xi in zip(row, x)) == want
    assert all(isinstance(xi, Fraction) for xi in x)


def test_rational_solver_singular():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(SingularMatrixError):
        solve_rational_system(rows, [Fraction(1), Fraction(1)])


def test_solver_handles_zero_pivot_with_exchange():
    rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    x = solve_rational_system(rows, [Fraction(3), Fraction(5)])
    assert x == [Fraction(5), Fraction(3)]


def test_minimized_row_solves_its_defining_conditions():
    # moment conditions determine the off-center entries; the center is
    # fixed by the unit row sum
    for p in (5, 6):
        a = stiffness_stencil(p)
        d = dmm_stencil(p)
        for m in range(1, p + 1):
            lhs = sum(Fraction(k ** (2 * m)) / _fact(2 * m) * d.values[k]
                      for k in range(1, p + 1))
            rhs = -sum(Fraction(k ** (2 * m + 2)) / _fact(2 * m + 2) * a.values[k]
                       for k in range(1, p + 1))
            assert lhs == rhs


def _fact(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _bernoulli(m: int) -> list[Fraction]:
    """B_0..B_m exactly, from sum_{k<=j} C(j+1, k) B_k = 0 for j >= 1."""
    B = [Fraction(1)]
    for j in range(1, m + 1):
        B.append(-sum(comb(j + 1, k) * B[k] for k in range(j)) / (j + 1))
    return B


def test_bernoulli_numbers():
    B = _bernoulli(12)
    assert B[:7] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
                     Fraction(1, 42)]
    assert B[12] == Fraction(-691, 2730)


def test_minimized_rows_in_closed_form():
    # dmm - mass = gamma_p (-1)^k C(2p, p+k) with gamma_p = |B_2p| / (2p)!:
    # the interior row of gamma_p times the Gram matrix of the p-th derivatives
    B = _bernoulli(28)
    for p in range(1, 15):
        gamma = abs(B[2 * p]) / factorial(2 * p)
        got = [d - m for d, m in zip(dmm_stencil(p).values, mass_stencil(p).values)]
        assert got == [gamma * (-1) ** k * comb(2 * p, p + k) for k in range(p + 1)], p
    assert abs(B[12]) / factorial(12) == Fraction(691, 1307674368000)
