"""Stencil kernels: Jacobi (Eq. 1), generic star stencils, diagnostics, LBM.

The Jacobi algorithm "serves here as a prototype for more advanced
stencil-based methods like the lattice-Boltzmann algorithm" (Sect. 1.1);
accordingly this package provides both the prototype and a small D2Q9
lattice-Boltzmann kernel (:mod:`.lbm`) exercising the same blocking
machinery, as the paper's outlook announces.
"""

from .stencils import StarStencil, AXIS_OFFSETS
from .jacobi import (
    jacobi7,
    jacobi5_2d,
    anisotropic_jacobi,
    jacobi_sweep_padded,
)
from .reference import reference_sweeps, reference_sweep_region
from .convergence import (
    change_norm,
    jacobi_residual,
    ConvergenceHistory,
    solve_to_tolerance,
)
from .lbm import D2Q9, LBMState, poiseuille_profile

__all__ = [
    "StarStencil",
    "AXIS_OFFSETS",
    "jacobi7",
    "jacobi5_2d",
    "anisotropic_jacobi",
    "jacobi_sweep_padded",
    "reference_sweeps",
    "reference_sweep_region",
    "change_norm",
    "jacobi_residual",
    "ConvergenceHistory",
    "solve_to_tolerance",
    "D2Q9",
    "LBMState",
    "poiseuille_profile",
]
