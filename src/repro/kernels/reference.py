"""Reference (naive) sweeps — the ground truth for every blocking scheme.

Temporal blocking reorders *when* each cell update happens but must never
change *what* is computed: after ``n·t·T`` pipeline updates the grid has to
equal ``n·t·T`` plain Jacobi sweeps.  These reference sweeps are the
equality target of the whole functional test rail, so they are written in
the most transparent way possible (pad, sweep, repeat).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..grid.grid3d import Grid3D
from .jacobi import jacobi7, jacobi_sweep_padded
from .stencils import StarStencil

__all__ = ["reference_sweeps"]


def reference_sweeps(grid: Grid3D, field: np.ndarray, sweeps: int,
                     stencil: Optional[StarStencil] = None,
                     engine: str = "numpy") -> np.ndarray:
    """Apply ``sweeps`` full Jacobi sweeps to an interior field.

    Each sweep reads the previous time level everywhere (classic two-array
    Jacobi); the Dirichlet ring of ``grid`` supplies out-of-domain values.
    Returns a new interior array; the input is left untouched.  The
    default ``engine="numpy"`` keeps the ground truth on the most
    transparent execution path; other engines are accepted so the
    differential tests can cross-check the engines against each other.
    """
    st = stencil or jacobi7()
    if sweeps < 0:
        raise ValueError("sweeps must be >= 0")
    cur = grid.padded(field)
    nxt = cur.copy()
    for _ in range(sweeps):
        jacobi_sweep_padded(cur, nxt, st, engine=engine)
        cur, nxt = nxt, cur
    return cur[1:-1, 1:-1, 1:-1].copy()

