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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from igadmm.stencils import Stencil, dispersion_moment

_DPS = 50


class StoppingBandError(ArithmeticError):
    """Mass symbol vanished: the wavenumber sits in a stopping band."""


def _values(S, p: int) -> tuple:
    vals = S.values if isinstance(S, Stencil) else tuple(S)
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


def _evaluate(p: int, A, B, wavenumbers, quotient) -> list[float]:
    """quotient(stiffness symbol, mass symbol, y) of two rows at each
    wavenumber y, in mpmath at _DPS digits; the rows are converted once.
    A vanishing mass symbol is a stopping band."""
    a = _values(A, p)
    b = _values(B, p)
    out = []
    with mp.workdps(_DPS):
        a, b = [_to_mp(v) for v in a], [_to_mp(v) for v in b]
        for wavenumber in wavenumbers:
            y = _to_mp(wavenumber)
            num, den = _symbols(a, b, y)
            if abs(den) < 1e-14:
                raise StoppingBandError(f"mass symbol ~ 0 at wavenumber {wavenumber}")
            out.append(float(quotient(num, den, y)))
    return out


def _relative_error(num, den, y):
    if y == 0:
        raise ValueError("wavenumber must be nonzero")
    return (num - y * y * den) / (y * y * den)


def dispersion_error(p: int, A, B, wavenumber) -> float:
    """Relative dispersion error (R(y) - y^2) / y^2, evaluated in mpmath."""
    return _evaluate(p, A, B, [wavenumber], _relative_error)[0]


@dataclass(frozen=True)
class DispersionCurve:
    wavenumbers: tuple[float, ...]
    errors: tuple[float, ...]  # signed relative errors


def sample_curve(p: int, A, B, wavenumbers) -> DispersionCurve:
    """Relative dispersion errors at each wavenumber, equal to
    dispersion_error point by point."""
    errs = tuple(_evaluate(p, A, B, wavenumbers, _relative_error))
    return DispersionCurve(tuple(float(y) for y in wavenumbers), errs)


def fit_order(wavenumbers, errors) -> float:
    """Least-squares slope of log|error| against log(wavenumber)."""
    ys = np.asarray(wavenumbers, dtype=float)
    es = np.abs(np.asarray(errors, dtype=float))
    if ys.size < 2:
        raise ValueError("need at least two samples to fit a slope")
    if np.any(es == 0):
        raise ValueError("zero error sample: slope undefined")
    coeffs = np.polyfit(np.log(ys), np.log(es), 1)
    return float(coeffs[0])


def error_expansion(p: int, A, B) -> tuple:
    """Coefficients (c_{2p}, c_{2p+2}) of the dispersion error expansion.

    Exact Fractions when both stencils carry Fractions, floats or mpf
    otherwise.  c_{2p+2} includes the feedback of c_{2p} through the mass
    symbol, so it is the true second coefficient also for rows that are
    not dispersion minimized.
    """
    a = Stencil(p, "stiffness", _values(A, p))
    b = _values(B, p)
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

    Measures dispersion_error / y^order at a small wavenumber and predicts
    the same number from the expansion coefficients: the c_{2p} term for
    order = 2p, the full c_{2p+2} term for order = 2p + 2.
    """
    if order not in (2 * p, 2 * p + 2):
        raise ValueError(f"order must be {2 * p} or {2 * p + 2}, got {order}")
    c_lead, c_next = error_expansion(p, A, B)
    predicted = c_lead if order == 2 * p else c_next
    measured, = _evaluate(p, A, B, [wavenumber],
                          lambda num, den, y: _relative_error(num, den, y) / y ** order)
    return CoefficientCheck(order, measured, float(predicted))
