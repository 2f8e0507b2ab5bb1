"""Dispersion-minimized mass stencils, exactly in rational arithmetic.

The off-center entries of the modified mass row are chosen so that the
coupled stiffness/mass moments vanish through order p+1 instead of p,
which raises the dispersion accuracy from 2p to 2p+2.  The defining
conditions form a p x p linear system with factorial-weighted power
coefficients, and the center entry follows from the row-sum
normalization.  That system has a closed-form solution: the exact Gram
mass row plus c_2p times G_p, the interior Gram row of the p-th
derivatives, with c_2p the exact row's own leading dispersion coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from igadmm.stencils import (
    IdentityCheck,
    IdentityReport,
    dispersion_moment,
    mass_stencil,
    stiffness_stencil,
)


@lru_cache(maxsize=None)
def dmm_stencil(p: int) -> tuple:
    """Exact dispersion-minimized mass row for degree p.

    Entry k is B_k + c_2p G_p[k], with B the exact mass row, c_2p =
    2 (-1)^{p+1} M_{p+1}(A, B) the leading dispersion coefficient
    (dispersion.error_expansion) for the exact stiffness row A, and
    G_p[k] = (-1)^k C(2p, p+k).  G_p is the 2p-th central difference, so
    its row sum and its moments sum_k k^{2m-2}/(2m-2)! G_p[k] of orders
    m = 2..p vanish, while its order-(p+1) moment is (-1)^p/2.  Adding
    c_2p G_p therefore keeps the unit row sum and M_2..M_p at zero and
    cancels M_{p+1} = (-1)^{p+1} c_2p / 2, which makes the row the unique
    solution of the p x p system
        sum_k k^{2m-2}/(2m-2)! b_k = - sum_k k^{2m}/(2m)! A_k,  m = 2..p+1.
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    mass = mass_stencil(p)
    c = 2 * (-1) ** (p + 1) * dispersion_moment(stiffness_stencil(p), mass, p + 1)
    return tuple(mass[k] + c * (-1) ** k * comb(2 * p, p + k) for k in range(p + 1))


def verify_dmm_identity(p: int) -> IdentityReport:
    """Moment identities of the minimized row: orders m = 2..p+1 vanish."""
    A = stiffness_stencil(p)
    Bt = dmm_stencil(p)
    checks = tuple(
        IdentityCheck("dmm_moment_identity", p, m, dispersion_moment(A, Bt, m))
        for m in range(2, p + 2)
    )
    return IdentityReport(checks)
