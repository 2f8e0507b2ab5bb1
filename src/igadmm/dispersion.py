"""Discrete dispersion analysis of interior stencil pairs.

For a stiffness/mass row pair the plane-wave (Bloch) eigenvalue at
normalized wavenumber y = omega*h is the trigonometric quotient

    R(y) = (A_0 + 2 sum_k A_k cos(k y)) / (B_0 + 2 sum_k B_k cos(k y)),

and the relative dispersion error is (R(y) - y^2) / y^2.  Expanding the
cosines gives error = c_{2p} y^{2p} + c_{2p+2} y^{2p+2} + ... where the
coefficients are the coupled stencil moments:

    c_{2p}   = 2 (-1)^{p+1} M_{p+1}
    c_{2p+2} = 2 (-1)^p M_{p+2} + (sum_k k^2 B_k) c_{2p}

with M_m the order-m moment from stencils.dispersion_moment.  A
dispersion-minimized mass row has M_{p+1} = 0, so its error starts at
y^{2p+2} and the feedback term drops out.

Evaluation happens in mpmath: near y = 0 the quotient cancels to machine
roundoff long before the curves reach the asymptotic regime (for p = 3
minimized rows the error is ~1e-21 at y = 0.01), so double precision
cannot resolve the slopes this module measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from igadmm.stencils import dispersion_moment

_DPS = 50


class StoppingBandError(ArithmeticError):
    """Mass symbol vanished: the wavenumber sits in a stopping band."""


def _values(row, p: int) -> tuple:
    vals = tuple(row)
    if len(vals) != p + 1:
        raise ValueError(f"need offsets 0..{p}, got {len(vals)} values")
    return vals


def _to_mp(v) -> mp.mpf:
    """v as an mpf at the working precision; mpmath takes no Fraction."""
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)


def _symbols(a_mp, b_mp, y):
    """Stiffness and mass symbols at y, sharing each cos(k y)."""
    num, den = a_mp[0], b_mp[0]
    for k in range(1, len(a_mp)):
        c = mp.cos(k * y)
        num += 2 * a_mp[k] * c
        den += 2 * b_mp[k] * c
    return num, den


def _relative_errors(p: int, A, B, wavenumbers) -> list:
    """(R(y) - y^2) / y^2 of two rows at each wavenumber y, as mpf, in
    mpmath at _DPS digits; the rows are converted once.  A vanishing mass
    symbol is a stopping band."""
    out = []
    with mp.workdps(_DPS):
        a = [_to_mp(v) for v in _values(A, p)]
        b = [_to_mp(v) for v in _values(B, p)]
        for wavenumber in wavenumbers:
            y = _to_mp(wavenumber)
            num, den = _symbols(a, b, y)
            if abs(den) < 1e-14:
                raise StoppingBandError(f"mass symbol ~ 0 at wavenumber {wavenumber}")
            if y == 0:
                raise ValueError("wavenumber must be nonzero")
            out.append((num - y * y * den) / (y * y * den))
    return out


@dataclass(frozen=True)
class DispersionCurve:
    wavenumbers: tuple[float, ...]
    errors: tuple[float, ...]  # signed relative errors


def sample_curve(p: int, A, B, wavenumbers) -> DispersionCurve:
    """Relative dispersion errors (R(y) - y^2) / y^2 at each wavenumber y,
    evaluated in mpmath."""
    errs = tuple(float(e) for e in _relative_errors(p, A, B, wavenumbers))
    return DispersionCurve(tuple(float(y) for y in wavenumbers), errs)


def fit_order(wavenumbers, errors) -> float:
    """Least-squares slope of log|error| against log(wavenumber), centred
    on the means and summed with math.fsum."""
    if len(wavenumbers) < 2:
        raise ValueError("need at least two samples to fit a slope")
    if any(e == 0 for e in errors):
        raise ValueError("zero error sample: slope undefined")
    xs = [math.log(y) for y in wavenumbers]
    zs = [math.log(abs(e)) for e in errors]
    x_mean, z_mean = math.fsum(xs) / len(xs), math.fsum(zs) / len(zs)
    dxs = [x - x_mean for x in xs]
    spread = math.fsum(d * d for d in dxs)
    if spread == 0:
        raise ValueError("need two distinct wavenumbers to fit a slope")
    return math.fsum(d * (z - z_mean) for d, z in zip(dxs, zs)) / spread


def error_expansion(p: int, A, B) -> tuple:
    """Coefficients (c_{2p}, c_{2p+2}) of the dispersion error expansion.

    Exact Fractions when both rows carry Fractions, floats or mpf
    otherwise.  c_{2p+2} includes the feedback of c_{2p} through the mass
    symbol, so it is the true second coefficient also for rows that are
    not dispersion minimized.
    """
    a, b = _values(A, p), _values(B, p)
    lead = 2 * (-1) ** (p + 1) * dispersion_moment(a, b, p + 1)
    bare = 2 * (-1) ** p * dispersion_moment(a, b, p + 2)
    b1 = sum(k * k * b[k] for k in range(1, p + 1))
    return lead, bare + b1 * lead


@dataclass(frozen=True)
class CoefficientCheck:
    order: int
    measured: float
    predicted: float

    @property
    def rel_deviation(self) -> float:
        return abs(self.measured - self.predicted) / abs(self.predicted)


def coefficient_check(p: int, A, B, order: int, wavenumber: float = 1e-3) -> CoefficientCheck:
    """Compare the measured error coefficient against the moment formula.

    Measures the relative error / y^order at a small wavenumber and predicts
    the same number from the expansion coefficients: the c_{2p} term for
    order = 2p, the full c_{2p+2} term for order = 2p + 2.
    """
    if order not in (2 * p, 2 * p + 2):
        raise ValueError(f"order must be {2 * p} or {2 * p + 2}, got {order}")
    c_lead, c_next = error_expansion(p, A, B)
    predicted = c_lead if order == 2 * p else c_next
    error, = _relative_errors(p, A, B, [wavenumber])
    with mp.workdps(_DPS):  # divided before it is rounded
        measured = float(error / _to_mp(wavenumber) ** order)
    return CoefficientCheck(order, measured, float(predicted))
