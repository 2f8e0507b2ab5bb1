"""Dispersion-minimized mass rows against the paper's moment system."""

import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from expected_values import (
    LEAD_P1_EXACT_ORDER2,
    LEAD_P1_MINIMIZED_ORDER4,
    MINIMIZED_MASS,
)
from igadmm.dispersion import error_expansion
from igadmm.dmm import dmm_stencil, verify_dmm_identity
from igadmm.stencils import dispersion_moment, mass_stencil, stiffness_stencil


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_minimized_rows_frozen(p):
    assert dmm_stencil(p) == MINIMIZED_MASS[p]


def test_minimized_rows_sum_to_one():
    for p in range(1, 11):
        d = dmm_stencil(p)
        assert d[0] + 2 * sum(d[1:]) == 1


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
    assert error_expansion(1, a1, b1)[0] == LEAD_P1_EXACT_ORDER2
    assert error_expansion(1, a1, d1) == (0, LEAD_P1_MINIMIZED_ORDER4)


def test_leading_coefficient_kills_low_order():
    # minimization zeroes the order-2p coefficient and only that one
    for p in (2, 3, 4):
        a = stiffness_stencil(p)
        lead, nxt = error_expansion(p, a, dmm_stencil(p))
        assert lead == 0
        assert nxt != 0
        assert error_expansion(p, a, mass_stencil(p))[0] != 0


def test_minimized_row_solves_its_defining_conditions():
    # moment conditions determine the off-center entries; the center is
    # fixed by the unit row sum
    for p in (5, 6):
        a = stiffness_stencil(p)
        d = dmm_stencil(p)
        for m in range(1, p + 1):
            lhs = sum(Fraction(k ** (2 * m)) / _fact(2 * m) * d[k]
                      for k in range(1, p + 1))
            rhs = -sum(Fraction(k ** (2 * m + 2)) / _fact(2 * m + 2) * a[k]
                       for k in range(1, p + 1))
            assert lhs == rhs


def _fraction_gauss(matrix, rhs):
    """Plain Fraction Gaussian elimination with a nonzero pivot."""
    n = len(rhs)
    M = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        for row in range(col + 1, n):
            f = M[row][col] / M[col][col]
            M[row] = [a - f * b for a, b in zip(M[row], M[col])]
    x = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        x[row] = (M[row][n] - sum(M[row][j] * x[j] for j in range(row + 1, n))) / M[row][row]
    return x


@pytest.mark.parametrize("p", range(1, 25))
def test_minimized_row_equals_fraction_elimination(p):
    # the factorial-weighted Fraction system, solved without integer scaling
    a = stiffness_stencil(p)
    matrix = [[Fraction(k ** (2 * m), factorial(2 * m)) for k in range(1, p + 1)]
              for m in range(1, p + 1)]
    rhs = [-sum(Fraction(k ** (2 * m + 2), factorial(2 * m + 2)) * a[k]
                for k in range(1, p + 1)) for m in range(1, p + 1)]
    off = _fraction_gauss(matrix, rhs)
    assert dmm_stencil(p) == (1 - 2 * sum(off), *off)


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
        got = [d - m for d, m in zip(dmm_stencil(p), mass_stencil(p))]
        assert got == [gamma * (-1) ** k * comb(2 * p, p + k) for k in range(p + 1)], p
    assert abs(B[12]) / factorial(12) == Fraction(691, 1307674368000)


def test_the_closed_form_row_loads_no_mpmath():
    # c_2p is one exact moment of the stencils module: the row needs
    # neither the dispersion module nor its mpmath
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from igadmm import dmm_stencil; row = dmm_stencil(3); "
         "print(row[-1], 'mpmath' in sys.modules, 'igadmm.dispersion' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1/6048", "False", "False"]
