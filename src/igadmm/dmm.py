"""Dispersion-minimized mass stencils, exactly in rational arithmetic.

The off-center entries of the modified mass row are chosen so that the
coupled stiffness/mass moments vanish through order p+1 instead of p,
which raises the dispersion accuracy from 2p to 2p+2.  The defining
conditions form a p x p linear system with factorial-weighted power
coefficients; its rows are scaled to integers and solved by fraction-free
(Bareiss) elimination, and the center entry follows from the row-sum
normalization.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from igadmm.stencils import (
    IdentityCheck,
    IdentityReport,
    Stencil,
    dispersion_moment,
    integer_row,
    stiffness_stencil,
)


class SingularMatrixError(ValueError):
    """Exact elimination hit a zero pivot column."""


def solve_rational_system(matrix, rhs) -> list[Fraction]:
    """Solve M x = b exactly by fraction-free (Bareiss) elimination.

    matrix is a square sequence of sequences, rhs a sequence; entries are
    coerced to Fraction.  Each row of [M | b] is scaled by its common
    denominator to integers; elimination then divides only exactly, and
    back substitution yields x = X / d with d the last pivot, the
    determinant up to sign.  Pivoting picks the largest-magnitude entry,
    which for exact arithmetic only matters for avoiding zero pivots.
    """
    n = len(rhs)
    M = []
    for i in range(n):
        _, row = integer_row([Fraction(v) for v in (*matrix[i][:n], rhs[i])])
        g = math.gcd(*row) or 1
        M.append([v // g for v in row])
    prev = 1
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[pivot][col] == 0:
            raise SingularMatrixError(f"zero pivot in column {col}")
        M[col], M[pivot] = M[pivot], M[col]
        top = M[col]
        for row in range(col + 1, n):
            r = M[row]
            f = r[col]
            M[row] = [0] * (col + 1) + [(r[j] * top[col] - f * top[j]) // prev
                                        for j in range(col + 1, n + 1)]
        prev = top[col]
    d = prev
    X = [0] * n
    for row in range(n - 1, -1, -1):
        r = M[row]
        acc = d * r[n] - sum(r[j] * X[j] for j in range(row + 1, n))
        X[row] = acc // r[row]
    return [Fraction(v, d) for v in X]


@lru_cache(maxsize=None)
def dmm_stencil(p: int) -> Stencil:
    """Exact dispersion-minimized mass row for degree p.

    Solves, for the off-center entries b_1..b_p,
        sum_k k^{2m-2}/(2m-2)! b_k = - sum_k k^{2m}/(2m)! A_k,  m = 2..p+1,
    the vanishing of the coupled moments, then sets the center entry from
    the unit row sum.  Condition m is scaled by (2m)! D_A, with D_A the
    common denominator of A = a / D_A, to the integer row
        sum_k k^{2m-2} (2m-1) 2m D_A b_k = - sum_k k^{2m} a_k.
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    da, a = integer_row(stiffness_stencil(p).values)
    orders = range(2, p + 2)
    matrix = [[k ** (2 * m - 2) * (2 * m - 1) * 2 * m * da for k in range(1, p + 1)]
              for m in orders]
    rhs = [-sum(k ** (2 * m) * a[k] for k in range(1, p + 1)) for m in orders]
    off = solve_rational_system(matrix, rhs)
    center = 1 - 2 * sum(off)
    return Stencil(p, "mass", (center, *off))


def verify_dmm_identity(p: int) -> IdentityReport:
    """Moment identities of the minimized row: orders m = 2..p+1 vanish."""
    A = stiffness_stencil(p)
    Bt = dmm_stencil(p)
    checks = tuple(
        IdentityCheck("dmm_moment_identity", p, m, dispersion_moment(A, Bt, m))
        for m in range(2, p + 2)
    )
    return IdentityReport(checks)

