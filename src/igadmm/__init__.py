"""Dispersion-minimized mass (DMM) and blended quadratures for maximum-continuity
B-spline discretizations of the Laplace eigenproblem on [0, 1]^d.

The package computes exact rational stiffness/mass stencils for uniform
C^{p-1} B-spline bases, the dispersion-minimized mass stencil in closed
form, builds classical and dispersion-minimizing quadrature
rules with their optimal blending parameters, assembles 1D/2D matrices, and
runs eigenvalue/eigenfunction convergence studies.
"""

from igadmm.splines import BSplineSpace, cardinal_value, knot_vector
from igadmm.stencils import Stencil, mass_stencil, stiffness_stencil
from igadmm.dmm import dmm_stencil
from igadmm.quadrature import (
    QuadratureRule,
    blend,
    dmm_rule,
    gauss_legendre,
    gauss_lobatto,
    gauss_radau,
    optimal_tau,
    quadrature_mass_stencil,
)
from igadmm.assembly import assemble_1d, assemble_1d_dmm, assemble_2d
from igadmm.eigensolve import exact_spectrum, generalized_eig, tensor_spectrum_2d

__version__ = "0.1.0"

__all__ = [
    "BSplineSpace",
    "QuadratureRule",
    "Stencil",
    "assemble_1d",
    "assemble_1d_dmm",
    "assemble_2d",
    "blend",
    "cardinal_value",
    "dmm_rule",
    "dmm_stencil",
    "exact_spectrum",
    "gauss_legendre",
    "gauss_lobatto",
    "gauss_radau",
    "generalized_eig",
    "knot_vector",
    "mass_stencil",
    "optimal_tau",
    "quadrature_mass_stencil",
    "stiffness_stencil",
    "tensor_spectrum_2d",
]
