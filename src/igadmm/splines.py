"""Uniform maximum-continuity B-spline bases on [0, 1].

``BSplineSpace`` is the open-knot Cox-de Boor basis of degree p on a
uniform mesh of N elements, C^{p-1} across interior knots, with homogeneous
Dirichlet conditions imposed by dropping the first and last basis
functions.  Away from the boundary each basis function is the cardinal
B-spline on integer knots 0..p+1 up to an affine change of variable, which
is what makes interior Gram rows mesh independent; the rule-induced rows
build their cardinal-spline pieces in ``quadrature._piece_products``.

The assembly integrates no basis table: it applies a rule to exact
products of each element type's pieces (``quadrature._type_basis``),
which the tests check against this module's basis.  The space's basis is
evaluated one way: ``basis_table`` gives the values and first
derivatives at the reference nodes of every element, in longdouble, from
one triangular Cox-de Boor pass over the mesh at once; the derivatives
come by degree reduction from the level below the last.  That is what
the energy error integrates.  The tests hold an independent reference:
the same recurrence run per point and twice, to degree p for the values
and to p - 1 for the derivatives, in the point's own arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class BSplineSpace:
    """Degree-p spline space on a uniform N-element mesh of [0, 1].

    The basis is the open-knot Cox-de Boor basis: N + p functions of maximal
    smoothness C^{p-1}.  With homogeneous Dirichlet conditions the first and
    last functions are removed, leaving N + p - 2 degrees of freedom.
    """

    p: int
    N: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"degree must be >= 1, got {self.p}")
        if self.N < 2:
            raise ValueError(f"element count must be >= 2, got {self.N}")

    @property
    def dim_full(self) -> int:
        return self.N + self.p

    @property
    def dim(self) -> int:
        """Dimension after removing the two boundary basis functions."""
        return self.N + self.p - 2


@lru_cache(maxsize=None)
def _knots_in(p: int, N: int):
    # k / N in longdouble: one correctly rounded division of two exact
    # integers, so each knot equals the rounded Fraction k/N
    interior = np.arange(1, N, dtype=np.longdouble) / np.longdouble(N)
    knots = np.concatenate([np.zeros(p + 1, np.longdouble), interior,
                            np.ones(p + 1, np.longdouble)])
    knots.setflags(write=False)
    return knots


def _cox_de_boor(knots, x, mu, p: int, values, derivatives) -> None:
    """One triangular Cox-de Boor pass for the p+1 degree-p B-splines that
    are nonzero on the knot span [knots[mu], knots[mu+1]] and their first
    derivatives: values[a] and derivatives[a] receive function mu - p + a.

    The pass raises the degree one level at a time and reaches level p
    through level p - 1, whose values give the derivatives by degree
    reduction: B'_j = p B_j^{p-1} / (t_{j+p} - t_j)
    - p B_{j+1}^{p-1} / (t_{j+p+1} - t_{j+1}), dropping the lower-degree
    functions that vanish on the span.  Every remaining denominator covers
    the span itself, so none is zero.

    x is a longdouble array of points and mu an integer array of span
    indices broadcasting against it (one span per row); values and
    derivatives are arrays whose leading axis is the function.  The last
    level is written into values directly, so the pass holds its outputs,
    one level of values and the 2p knot distances left and right.
    """
    vals = [np.ones_like(x)] + [None] * p
    left = [None] * (p + 1)
    right = [None] * (p + 1)
    for q in range(1, p + 1):
        left[q] = x - knots[mu + 1 - q]
        right[q] = knots[mu + q] - x
        out = vals
        if q == p:
            for a in range(p + 1):
                acc = 0
                if a > 0:
                    acc = acc + p * vals[a - 1] / (knots[mu + a] - knots[mu - p + a])
                if a < p:
                    acc = acc - p * vals[a] / (knots[mu + a + 1] - knots[mu - p + a + 1])
                derivatives[a] = acc
            out = values
        saved = 0
        for r in range(q):
            temp = vals[r] / (right[r + 1] + left[q - r])
            out[r] = saved + right[r + 1] * temp
            saved = left[q - r] * temp
        out[q] = saved


def basis_table(space: BSplineSpace, nodes):
    """Element-pinned basis values and first derivatives at the reference
    nodes of every element, in longdouble, from one Cox-de Boor pass.

    Returns ``(t, values, derivatives)``: t[e, k] = (e + nodes[k]) h is the
    physical point, and values[e, k, a] and derivatives[e, k, a] are basis
    function e + a (full numbering) and its derivative there, evaluated on
    the pieces of element e.  Pinning matters at the endpoint nodes 0 and
    1: each element sees the limits of its own polynomials there, which is
    what per-element quadrature needs (the derivatives jump across knots
    when p = 1).
    """
    p, N = space.p, space.N
    elements = np.arange(N)[:, None]
    t = (elements + np.asarray(nodes, dtype=np.longdouble)) * (np.longdouble(1) / N)
    values = np.empty(t.shape + (p + 1,), dtype=np.longdouble)
    derivatives = np.empty_like(values)
    # the function axis goes first, so that slot a of an output is the view [..., a]
    _cox_de_boor(_knots_in(p, N), t, p + elements, p,
                 np.moveaxis(values, -1, 0), np.moveaxis(derivatives, -1, 0))
    return t, values, derivatives
