"""Uniform maximum-continuity B-spline spaces on [0, 1].

``BSplineSpace`` is the open-knot Cox-de Boor basis of degree p on a
uniform mesh of N elements, C^{p-1} across interior knots, with homogeneous
Dirichlet conditions imposed by dropping the first and last basis
functions.  Away from the boundary each basis function is the cardinal
B-spline on integer knots 0..p+1 up to an affine change of variable, which
is what makes interior Gram rows mesh independent.

The space only names the basis; it is evaluated in one place,
``quadrature._type_basis``: on a uniform mesh the basis on an element
depends only on its type, its distance in elements from either end
capped at p - 1, and that function gives each type's basis and its
derivative as exact integer polynomials.  The assembly applies a rule to
their products through the rule's moments, the induced rows take the
interior type's as the cardinal-spline pieces, and the energy error
evaluates them at its Gauss nodes.  The tests check them against an
independent reference, the Cox-de Boor recurrence run per point.
"""

from __future__ import annotations

from dataclasses import dataclass


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

