"""Dispersion-minimized mass (DMM) and blended quadratures for maximum-continuity
B-spline discretizations of the Laplace eigenproblem on [0, 1]^d.

The package computes exact rational stiffness/mass stencils for uniform
C^{p-1} B-spline bases, the dispersion-minimized mass stencil in closed
form, builds classical and dispersion-minimizing quadrature
rules with their optimal blending parameters, assembles 1D/2D matrices, and
runs eigenvalue/eigenfunction convergence studies.
"""

import importlib

# each public name by the submodule that defines it; a name is imported on
# first use (PEP 562), so `import igadmm` loads neither numpy nor scipy, and
# the exact rows, rules and ratios never need numpy at all
_EXPORTS = {name: module for module, names in {
    "splines": ("BSplineSpace",),
    "stencils": ("mass_stencil", "stiffness_stencil"),
    "dmm": ("dmm_stencil",),
    "quadrature": ("QuadratureRule", "blend", "dmm_rule", "gauss_legendre", "gauss_lobatto",
                   "gauss_radau", "optimal_tau", "quadrature_mass_stencil", "triple_blend_check"),
    "assembly": ("assemble_1d", "assemble_1d_dmm", "assemble_2d"),
    "eigensolve": ("exact_spectrum", "generalized_eig", "tensor_spectrum_2d"),
}.items() for name in names}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
