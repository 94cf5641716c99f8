"""The default engine: vectorised NumPy multiply-adds.

This is the execution strategy the repo grew up with, extracted from
``core.executor._apply_update`` and ``kernels.reference``: gather the
centre and every (nonzero-weight) neighbour plane for the whole region,
evaluate the stencil as a sequence of vectorised multiply-adds in
canonical offset order, commit the result in one write.  It is the
reference point of the engine layer — every other engine must be
bit-identical to it — and the default of :class:`PipelineConfig`.

The padded-pair sweep walks the region in z-slabs of at most
:data:`SLAB_BYTES` (one plane when a plane is larger), accumulating
each slab into one preallocated buffer.  Whole-region temporaries fall
out of cache from about 64³ upward; slab-sized ones stay in L2 while
the source planes stream through — the paper's spatial-blocking point
(Sect. 1.1) in the only place it pays off for interpreted code.  The
per-cell operation sequence is the same for every slab height, so the
result is bit-identical to a single whole-region evaluation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import Engine, nonzero_terms

__all__ = ["NumpyEngine", "SLAB_BYTES"]

#: Byte budget of one z-slab of the padded sweep's accumulator.
SLAB_BYTES = 256 * 1024


class NumpyEngine(Engine):
    """Whole-region vectorised gather (the extracted historical default)."""

    name = "numpy"
    semantics = "vector-v1"

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        center = storage.read(region, level - 1)
        neighbors = [storage.gather(region, off, level - 1)
                     for off in stencil.offsets]
        storage.write(region, level, stencil.apply(center, neighbors))

    def apply_padded(self, stencil, src: np.ndarray, dst: np.ndarray,
                     lo: Sequence[int], hi: Sequence[int]) -> None:
        z0, y0, x0 = lo
        z1, y1, x1 = hi
        if z1 <= z0 or y1 <= y0 or x1 <= x0:
            return
        # Canonical order: one multiply-add per nonzero offset, centre last.
        terms = nonzero_terms(stencil)
        if stencil.center_weight != 0.0:
            terms.append(((0, 0, 0), stencil.center_weight))
        plane = (y1 - y0) * (x1 - x0) * src.itemsize
        dz = max(1, min(z1 - z0, SLAB_BYTES // plane))
        acc_buf = np.empty((dz, y1 - y0, x1 - x0), dtype=src.dtype)
        tmp_buf = np.empty_like(acc_buf)
        for za in range(z0, z1, dz):
            zb = min(za + dz, z1)
            acc, tmp = acc_buf[:zb - za], tmp_buf[:zb - za]
            acc.fill(0)
            for (oz, oy, ox), w in terms:
                np.multiply(src[1 + za + oz:1 + zb + oz,
                                1 + y0 + oy:1 + y1 + oy,
                                1 + x0 + ox:1 + x1 + ox], w, out=tmp)
                np.add(acc, tmp, out=acc)
            dst[1 + za:1 + zb, 1 + y0:1 + y1, 1 + x0:1 + x1] = acc
