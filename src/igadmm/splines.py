"""Uniform maximum-continuity B-spline bases on [0, 1] and cardinal B-splines.

Two families live here.  ``BSplineSpace`` is the open-knot Cox-de Boor basis
of degree p on a uniform mesh of N elements, C^{p-1} across interior knots,
with homogeneous Dirichlet conditions imposed by dropping the first and last
basis functions.  ``cardinal_value`` evaluates the degree-p cardinal B-spline
on integer knots 0..p+1, exactly when the argument is rational.  Away from the
boundary the two coincide up to an affine change of variable, which is what
makes interior Gram rows expressible through cardinal-spline values.

All evaluation routines are generic over the scalar type of the point:
``fractions.Fraction`` input gives exact rational output, ``float`` or
``numpy.longdouble`` input stays in that arithmetic.  ``basis_table``
evaluates the basis at quadrature nodes of all elements at once, through
the same recurrences and so bitwise equal to the scalar routines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np


def knot_vector(p: int, N: int) -> list[Fraction]:
    """Open uniform knot vector on [0, 1] with exact rational knots.

    The boundary knots 0 and 1 are repeated p+1 times each and the N-1
    interior knots are k/N, giving a sequence of length N + 2p + 1.
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    if N < 2:
        raise ValueError(f"element count must be >= 2, got {N}")
    zero, one = Fraction(0), Fraction(1)
    interior = [Fraction(k, N) for k in range(1, N)]
    return [zero] * (p + 1) + interior + [one] * (p + 1)


@dataclass(frozen=True)
class BSplineSpace:
    """Degree-p spline space on a uniform N-element mesh of [0, 1].

    The basis is the open-knot Cox-de Boor basis: N + p functions of maximal
    smoothness C^{p-1}.  With homogeneous Dirichlet conditions the first and
    last functions are removed, leaving N + p - 2 degrees of freedom.
    """

    p: int
    N: int
    knots: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "knots", tuple(knot_vector(self.p, self.N)))

    @property
    def dim_full(self) -> int:
        return self.N + self.p

    @property
    def dim(self) -> int:
        """Dimension after removing the two boundary basis functions."""
        return self.N + self.p - 2

    def element_index(self, x) -> int:
        """Index of the mesh element containing x, with x=1 assigned to the last."""
        if x < 0 or x > 1:
            raise ValueError(f"point {x} outside [0, 1]")
        return min(int(math.floor(x * self.N)), self.N - 1)

    def knots_as(self, x):
        """Knot sequence coerced to the arithmetic of the sample point x."""
        if isinstance(x, Fraction) or isinstance(x, int):
            return self.knots
        return _knots_in(self.p, self.N, isinstance(x, np.longdouble))


@lru_cache(maxsize=None)
def _knots_in(p: int, N: int, longdouble: bool):
    if not longdouble:
        return tuple(float(t) for t in knot_vector(p, N))
    knots = np.array([np.longdouble(t.numerator) / np.longdouble(t.denominator)
                      for t in knot_vector(p, N)])
    knots.setflags(write=False)
    return knots


def _triangular(knots, x, mu, degree: int) -> list:
    """Triangular Cox-de Boor scheme: the degree+1 B-splines of that degree
    that are nonzero on the knot span [knots[mu], knots[mu+1]].

    x may be a Fraction, float or longdouble scalar, or a longdouble array
    with mu an integer array broadcasting against it (one span per row);
    each array entry runs exactly the rounding steps of the scalar call.
    """
    vals = [x - x + 1]  # multiplicative unit in the arithmetic of x
    left = [None] * (degree + 1)
    right = [None] * (degree + 1)
    for q in range(1, degree + 1):
        left[q] = x - knots[mu + 1 - q]
        right[q] = knots[mu + q] - x
        saved = 0
        for r in range(q):
            temp = vals[r] / (right[r + 1] + left[q - r])
            vals[r] = saved + right[r + 1] * temp
            saved = left[q - r] * temp
        vals.append(saved)
    return vals


def _derivatives(knots, x, mu, p: int) -> list:
    """First derivatives of the p+1 degree-p B-splines nonzero on span mu.

    Degree reduction: B'_j = p B_j^{p-1} / (t_{j+p} - t_j)
    - p B_{j+1}^{p-1} / (t_{j+p+1} - t_{j+1}), dropping the lower-degree
    functions that vanish on the span.  Every remaining denominator covers
    the span itself, so none is zero.  Same arithmetic genericity as
    ``_triangular``.
    """
    lower = _triangular(knots, x, mu, p - 1)
    derivs = []
    for a in range(p + 1):
        acc = 0
        if a > 0:
            acc = acc + p * lower[a - 1] / (knots[mu + a] - knots[mu - p + a])
        if a < p:
            acc = acc - p * lower[a] / (knots[mu + a + 1] - knots[mu - p + a + 1])
        derivs.append(acc)
    return derivs


def nonzero_basis(space: BSplineSpace, x, element: int | None = None):
    """All basis values that may be nonzero at x.

    Returns ``(first, values)`` where ``values[i]`` is basis function
    ``first + i`` (full numbering, no Dirichlet reduction) evaluated at x.
    Uses the triangular Cox-de Boor scheme, which never divides by zero for
    points inside the domain; x=1 is evaluated in the last element so the
    resulting values are the left limits there.

    element pins the evaluation to a mesh element's polynomial pieces.  At
    an element's right endpoint this yields the left limits, which is what
    per-element quadrature needs (basis derivatives jump across knots when
    p = 1).
    """
    p = space.p
    mu = p + (space.element_index(x) if element is None else element)
    return mu - p, _triangular(space.knots_as(x), x, mu, p)


def nonzero_basis_derivatives(space: BSplineSpace, x, element: int | None = None):
    """First derivatives of the basis functions that may be nonzero at x.

    Same indexing convention (and element pinning) as ``nonzero_basis``.
    """
    p = space.p
    mu = p + (space.element_index(x) if element is None else element)
    return mu - p, _derivatives(space.knots_as(x), x, mu, p)


def basis_table(space: BSplineSpace, nodes, derivative: bool = False):
    """Element-pinned basis values (or first derivatives) at the reference
    nodes of every element, in longdouble.

    Returns ``(t, table)``: t[e, k] = (e + nodes[k]) h is the physical point
    and table[e, k, a] is basis function e + a (full numbering) there,
    evaluated on element e's pieces.  Each entry is bitwise equal to
    ``nonzero_basis`` / ``nonzero_basis_derivatives`` at t[e, k] with
    ``element=e``: the recurrences are the same, vectorized over elements.
    """
    p, N = space.p, space.N
    elements = np.arange(N)[:, None]
    t = (elements + np.asarray(nodes, dtype=np.longdouble)) * (np.longdouble(1) / N)
    rows = (_derivatives if derivative else _triangular)(
        _knots_in(p, N, True), t, p + elements, p)
    return t, np.stack(rows, axis=-1)


def eval_basis(space: BSplineSpace, j: int, x):
    """Value of basis function j (full numbering) at x in [0, 1]."""
    if not 0 <= j < space.dim_full:
        raise ValueError(f"basis index {j} out of range 0..{space.dim_full - 1}")
    first, vals = nonzero_basis(space, x)
    i = j - first
    if 0 <= i < len(vals):
        return vals[i]
    return 0 * x


def cardinal_value(p: int, t):
    """Degree-p cardinal B-spline on knots 0, 1, ..., p+1 evaluated at t.

    Exact rational output for int or Fraction input; float-family input is
    evaluated in its own arithmetic.  The spline is taken right-continuous,
    so the value is 0 at t = p+1 and outside [0, p+1).
    """
    if p < 0:
        raise ValueError(f"degree must be >= 0, got {p}")
    exact = isinstance(t, (int, Fraction))
    zero = Fraction(0) if exact else 0 * t
    if t < 0 or t >= p + 1:
        return zero
    one = zero + 1
    vals = [one if i <= t < i + 1 else zero for i in range(p + 1)]
    for q in range(1, p + 1):
        for i in range(p + 1 - q):
            vals[i] = ((t - i) * vals[i] + (i + q + 1 - t) * vals[i + 1]) / q
    return vals[0]


def cardinal_derivative(p: int, t):
    """First derivative of the degree-p cardinal B-spline at t (p >= 1)."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    return cardinal_value(p - 1, t) - cardinal_value(p - 1, t - 1)


def cardinal_piece(p: int, element: int, t):
    """Polynomial piece of the cardinal spline on [element, element+1] at t.

    Unlike ``cardinal_value`` this extends the piece to its closed right
    end, i.e. at integer breakpoints it gives the left limit of the piece;
    elements outside 0..p give 0.  Needed by per-element quadrature, where
    an endpoint node must see the integrand of its own element.
    """
    if p < 0:
        raise ValueError(f"degree must be >= 0, got {p}")
    exact = isinstance(t, (int, Fraction))
    zero = Fraction(0) if exact else 0 * t
    if not 0 <= element <= p:
        return zero
    one = zero + 1
    vals = [one if i == element else zero for i in range(p + 1)]
    for q in range(1, p + 1):
        for i in range(p + 1 - q):
            vals[i] = ((t - i) * vals[i] + (i + q + 1 - t) * vals[i + 1]) / q
    return vals[0]


def cardinal_piece_derivative(p: int, element: int, t):
    """Derivative of the degree-p cardinal spline piece on one element."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    return cardinal_piece(p - 1, element, t) - cardinal_piece(p - 1, element - 1, t - 1)
