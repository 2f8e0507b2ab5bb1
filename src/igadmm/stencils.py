"""Exact rational interior Gram stencils for uniform B-spline bases.

A stencil collects the Gram values between one interior basis function and
its neighbors at offsets 0..p: ``stiffness`` entries are scaled by h (values
of the derivative Gram row times h) and ``mass`` entries by 1/h, so both are
mesh independent.  Mass entries follow a three-term recursion in the degree;
stiffness entries are finite differences of the degree-(p-1) mass entries.
Everything in this module is exact: values are ``fractions.Fraction`` and
identity checks report exact rational residuals, never tolerances.  The
moment sums run in integers: a row is scaled to integer numerators over
its common denominator (``integer_row``), and each moment becomes one
``Fraction`` at the end.

The verification operations cover the algebraic facts the rest of the
package builds on: row-sum normalizations, the second-moment identities,
the coupled stiffness/mass moment identity and its cumulant form, and the
two integer-coefficient identities behind the induction argument (the F/G
recursion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True)
class Stencil:
    """Symmetric interior Gram row: values[k] is the entry at offset +-k.

    kind is "stiffness" (row sums to 0) or "mass" (row sums to 1).  Values
    are Fractions for exactly computed stencils; rule-induced stencils
    reuse this container with 40-digit mpf.
    """

    p: int
    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in ("stiffness", "mass"):
            raise ValueError(f"unknown stencil kind {self.kind!r}")
        if len(self.values) != self.p + 1:
            raise ValueError("stencil must hold offsets 0..p")

    def row_sum(self):
        """Sum over all offsets -p..p."""
        return self.values[0] + 2 * sum(self.values[1:])


@lru_cache(maxsize=None)
def mass_stencil(p: int) -> Stencil:
    """Exact mass entries of degree p via the three-term degree recursion.

    The recursion lifts the degree-(p-1) row to degree p:
    B_p[k] = ((p+k+1)^2 B_{p-1}[k+1] - 2(k^2-p-p^2) B_{p-1}[k]
              + (p-k+1)^2 B_{p-1}[k-1]) / (2p(2p+1)),
    with base row [1] at degree 0 and symmetric extension B[-1] = B[1].
    It runs on the integer numerators n over (2p+1)! = prod_q 2q(2q+1),
    so each lift is exact without a division.
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    n = [1]
    for q in range(1, p + 1):
        n = n + [0, 0]  # the degree-(q-1) row is zero at offsets q and q+1
        n = [(q + k + 1) ** 2 * n[k + 1] - 2 * (k * k - q - q * q) * n[k]
             + (q - k + 1) ** 2 * n[abs(k - 1)] for k in range(q + 1)]
    den = math.factorial(2 * p + 1)
    return Stencil(p, "mass", tuple(Fraction(v, den) for v in n))


@lru_cache(maxsize=None)
def stiffness_stencil(p: int) -> Stencil:
    """Exact stiffness entries: second difference of degree-(p-1) mass entries."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if p == 1:
        prev = [Fraction(1)]
    else:
        prev = list(mass_stencil(p - 1).values)

    def at(k: int) -> Fraction:
        k = abs(k)
        return prev[k] if k < len(prev) else Fraction(0)

    vals = tuple(2 * at(k) - at(k + 1) - at(k - 1) for k in range(p + 1))
    return Stencil(p, "stiffness", vals)


def integer_row(values) -> tuple[int, list[int]]:
    """Exact row values as (D, n) with values[k] = n[k] / D and D the least
    common denominator; values are Fractions or ints."""
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def _power_sum(nums, j: int) -> int:
    """sum_{k>=1} k^{2j} nums[k] over integer numerators."""
    return sum(k ** (2 * j) * nums[k] for k in range(1, len(nums)))


def dispersion_moment(A: Stencil, B, m: int):
    """The coupled moment sum_{k=1..p} (k^{2m}/(2m)! A_k + k^{2m-2}/(2m-2)! B_k).

    This is the m-th coefficient functional of the dispersion expansion; it
    vanishes for m = 2..p with exact mass entries and for m = 2..p+1 with the
    dispersion-minimized ones.  B may be a Stencil or a plain sequence of
    offset-0..p values.  With exact rows (Fractions or ints) both sums run
    over integer numerators and give one Fraction; otherwise arithmetic
    follows the value types term by term (floating for floats, the mpf
    precision for mpf).
    """
    if m < 2:
        raise ValueError(f"moment order must be >= 2, got {m}")
    p = A.p
    b_vals = B.values if isinstance(B, Stencil) else tuple(B)
    if len(b_vals) != p + 1:
        raise ValueError("mass values must cover offsets 0..p")
    if all(isinstance(v, (Fraction, int)) for v in A.values + b_vals):
        (da, a), (db, b) = integer_row(A.values), integer_row(b_vals)
        num = db * _power_sum(a, m) + 2 * m * (2 * m - 1) * da * _power_sum(b, m - 1)
        return Fraction(num, math.factorial(2 * m) * da * db)
    ca = math.factorial(2 * m)
    cb = math.factorial(2 * m - 2)
    total = 0
    for k in range(1, p + 1):
        total = total + _scaled(Fraction(k ** (2 * m), ca), A.values[k])
        total = total + _scaled(Fraction(k ** (2 * m - 2), cb), b_vals[k])
    return total


def _scaled(c: Fraction, v):
    """c * v without losing exactness for Fraction v or precision for mpf v."""
    if isinstance(v, (Fraction, int)):
        return c * v
    if isinstance(v, float):
        return float(c) * v
    # mpmath.mpf and numpy scalars: split the fraction to stay in that type
    return v * c.numerator / c.denominator


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    p: int
    m: int | None
    residual: object

    @property
    def ok(self) -> bool:
        return self.residual == 0


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.ok]


def verify_base_identities(p: int) -> IdentityReport:
    """Row sums and second-moment identities of the exact stencils.

    Checks, all as exact rational residuals:
      stiffness row sum        sum_{-p..p} A = 0
      mass row sum             sum_{-p..p} B = 1
      stiffness second moment  (sum_{k>=1} k^2 A_k) + 1 = 0
      mass second moment       p + 1 - 12 sum_{k>=1} k^2 B_k = 0
    """
    A = stiffness_stencil(p)
    B = mass_stencil(p)
    checks = [
        IdentityCheck("stiffness_row_sum", p, None, A.row_sum()),
        IdentityCheck("mass_row_sum", p, None, B.row_sum() - 1),
        IdentityCheck(
            "stiffness_second_moment", p, None,
            sum(k * k * A.values[k] for k in range(1, p + 1)) + 1,
        ),
        IdentityCheck(
            "mass_second_moment", p, None,
            p + 1 - 12 * sum(k * k * B.values[k] for k in range(1, p + 1)),
        ),
    ]
    return IdentityReport(tuple(checks))


def verify_ab_identity(p: int) -> IdentityReport:
    """Coupled stiffness/mass moment identities for orders m = 2..p.

    Verifies dispersion_moment(A_p, B_p, m) = 0 exactly, plus the cumulant
    form: with C_2 = 1 and
    C_{2m} = sum_k (-1)^m k^{2m}/(2m)! A_k
             - sum_{q=1..m-1} C_{2m-2q} sum_k (-1)^q k^{2q}/(2q)! B_k,
    every C_{2m} for m = 2..p must vanish.  Each power moment of either
    row is one integer sum, computed once, so the suite costs O(p^2)
    Fraction operations.
    """
    if p < 2:
        raise ValueError(f"degree must be >= 2, got {p}")
    da, a = integer_row(stiffness_stencil(p).values)
    db, b = integer_row(mass_stencil(p).values)
    # the power moments sum_k k^{2j}/(2j)! row_k, each computed once
    sa = {j: Fraction(_power_sum(a, j), math.factorial(2 * j) * da) for j in range(2, p + 1)}
    sb = {j: Fraction(_power_sum(b, j), math.factorial(2 * j) * db) for j in range(1, p)}
    checks = [IdentityCheck("moment_identity", p, m, sa[m] + sb[m - 1])
              for m in range(2, p + 1)]
    cums = {1: Fraction(1)}  # C_{2m} keyed by m
    for m in range(2, p + 1):
        cums[m] = (-1) ** m * sa[m] - sum(
            cums[m - q] * (-1) ** q * sb[q] for q in range(1, m))
        checks.append(IdentityCheck("cumulant_identity", p, m, cums[m]))
    return IdentityReport(tuple(checks))


def _fg_base(P: int, m: int) -> tuple[int, list[int]]:
    """Level-0 integer coefficient F and G[k] arrays for first subscript P."""
    F = -2 * P * (2 * P + 1) + 2 * m * (2 * m - 1) * P * P
    G = []
    for k in range(P):
        g = 2 * P * (2 * P + 1) * (
            2 * k ** (2 * m) - (k + 1) ** (2 * m) - (k - 1) ** (2 * m)
        ) + 2 * m * (2 * m - 1) * (
            (k - 1) ** (2 * m - 2) * (P + k) ** 2
            - 2 * k ** (2 * m - 2) * (k * k - P - P * P)
            + (k + 1) ** (2 * m - 2) * (P - k) ** 2
        )
        G.append(g)
    return F, G


def _fg_level(P: int, m: int, q_max: int):
    """Iterate the F/G coefficient recursion up to level q_max.

    Level q keeps G[k] for k = 0..P-1-q.  The recursion, with d = P - q:
      F^q    = 2(d+1)d F^{q-1} + d^2 G^{q-1}[1]
      G^q[k] = (d+k)^2 G^{q-1}[k-1] - 2(k^2 - d(d+1)) G^{q-1}[k]
               + (d-k)^2 G^{q-1}[k+1]
    with the symmetric extension G[-1] = G[1].  All quantities are integers.
    """
    F, G = _fg_base(P, m)
    yield 0, F, G
    for q in range(1, q_max + 1):
        d = P - q
        newF = 2 * (d + 1) * d * F + d * d * G[1]
        newG = []
        for k in range(P - q):
            below = G[1] if k == 0 else G[k - 1]
            newG.append(
                (d + k) ** 2 * below
                - 2 * (k * k - d * (d + 1)) * G[k]
                + (d - k) ** 2 * G[k + 1]
            )
        F, G = newF, newG
        yield q, F, G


def fg_verify(p_max: int, m_max: int | None = None) -> IdentityReport:
    """Integer identities of the F/G coefficient recursion.

    For every 2 <= m <= p <= p_max (with m additionally capped by m_max):
      2 F^q at subscript p+1 equals G^q[0] at subscript p+1, q = 1..p-2;
      4 F^{p-2} at subscript p plus G^{p-2}[1] at subscript p equals 0.
    Residuals are exact integers.  Each recursion runs once: the one at
    subscript p+1 gives the centred checks of p and, run one level
    further, the terminal check of p+1.
    """
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    if m_max is None:
        m_max = p_max
    checks = []
    terminal = {}  # m -> terminal residual of degree p, from the run at p-1
    for p in range(2, p_max + 1):
        ahead = {}
        q_max = p - 1 if p < p_max else p - 2
        for m in range(2, min(p, m_max) + 1):
            for q, F, G in _fg_level(p + 1, m, q_max):
                if q == p - 1:
                    ahead[m] = 4 * F + G[1]
                elif q >= 1:
                    checks.append(IdentityCheck(f"fg_centered_q{q}", p, m, 2 * F - G[0]))
            if m not in terminal:  # m = p: no run at p-1 covered it
                for _, F, G in _fg_level(p, m, p - 2):
                    pass
                terminal[m] = 4 * F + G[1]
            checks.append(IdentityCheck("fg_terminal", p, m, terminal[m]))
        terminal = ahead
    return IdentityReport(tuple(checks))
