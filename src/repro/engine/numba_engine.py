"""Optional parallel-JIT engine (registers only when numba imports).

The paper's C kernels reach the bandwidth limit with compiled,
OpenMP-parallel loops; this engine is the Python-world equivalent — a
``numba.njit(parallel=True)`` fused multiply-add loop over the update
region.  It is strictly optional: when :mod:`numba` is absent the
module still imports, :data:`HAVE_NUMBA` is ``False``, nothing
registers, and ``get_engine("numba")`` raises an error naming the
missing dependency.  CI runs the suite both ways so the clean
environment can never break (the numba test leg is skip-marked).

Bit-identity with the numpy engine holds because the compiled loop
replays the same per-cell term sequence — one multiply-add per nonzero
offset in canonical order, centre term last — in the field dtype, with
``fastmath`` left off so no reassociation or FMA contraction is
allowed.  The region gathers (with their Dirichlet patching and
storage validation) stay on the storage scheme; only the arithmetic is
compiled.

Each fused loop exists in two compiled flavours with the identical
per-cell operation sequence (so they are bit-identical to each other
and to numpy):

* ``parallel=True`` — numba's OpenMP-style ``prange``, used when the
  call comes from the **main** thread (the classic single-driver case);
* serial ``nogil=True`` — used when the call comes from any **other**
  thread, i.e. a ``backend="threads"`` stage.  Numba's default
  workqueue threading layer must not be entered concurrently from
  multiple Python threads, and nested parallelism would oversubscribe
  anyway — one pipeline stage per core is the paper's own placement.
  ``nogil`` releases the GIL for the whole compiled sweep, which is
  what lets the threaded rail overlap stages on stock CPython.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from .base import Engine, nonzero_terms

__all__ = ["HAVE_NUMBA", "NumbaEngine", "jit_cache_stats"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import prange

    HAVE_NUMBA = True
except ImportError:  # the supported default environment
    numba = None
    HAVE_NUMBA = False
    # The loop bodies below stay plain-Python functions either way:
    # numba compiles them when present; without numba the interpreted
    # bodies (``prange`` is ``range``) execute the identical per-cell
    # operation sequence, which is how the differential battery
    # certifies the compiled engines' traversal logic in numba-free
    # environments (the engines themselves stay unregistered there).
    prange = range


def _fused_padded_impl(src, dst, offsets, weights, cw, has_center,
                       z0, z1, y0, y1, x0, x1):
    """Padded-pair sweep: direct offset reads, no gather arrays."""
    K = offsets.shape[0]
    for i in prange(z1 - z0):
        z = z0 + i
        for y in range(y0, y1):
            for x in range(x0, x1):
                acc = dst[1 + z, 1 + y, 1 + x]  # pre-zeroed: typed
                for m in range(K):
                    acc = acc + weights[m] * src[
                        1 + z + offsets[m, 0],
                        1 + y + offsets[m, 1],
                        1 + x + offsets[m, 2]]
                if has_center:
                    acc = acc + cw * src[1 + z, 1 + y, 1 + x]
                dst[1 + z, 1 + y, 1 + x] = acc


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    def _fused_terms_impl(out, stacked, weights, center, cw, has_center):
        """out[c] = sum_k w[k]*stacked[k, c] (+ cw*center[c]), per cell.

        ``weights``/``cw`` are pre-cast to the field dtype so every
        operation rounds exactly like the numpy engine's vectorised
        multiply-adds.
        """
        nz, ny, nx = out.shape
        K = stacked.shape[0]
        for i in prange(nz):
            for j in range(ny):
                for k in range(nx):
                    acc = out[i, j, k]  # pre-zeroed: typed accumulator
                    for m in range(K):
                        acc = acc + weights[m] * stacked[m, i, j, k]
                    if has_center:
                        acc = acc + cw * center[i, j, k]
                    out[i, j, k] = acc

    # One source, two compilations: with parallel=False numba lowers
    # ``prange`` to a plain ``range``, so both flavours execute the
    # same per-cell operation sequence and remain bit-identical.
    # ``cache=True`` persists the compiled machine code next to this
    # module, so warm procmpi/spawn workers (which re-import the engine
    # package per process) load it from disk instead of re-JITting on
    # their first job — tests/test_engine_equivalence.py pins this with
    # a fresh-subprocess probe over :func:`jit_cache_stats`.
    _fused_terms = numba.njit(parallel=True, fastmath=False, cache=True)(
        _fused_terms_impl)
    _fused_terms_nogil = numba.njit(nogil=True, fastmath=False, cache=True)(
        _fused_terms_impl)
    _fused_padded = numba.njit(parallel=True, fastmath=False, cache=True)(
        _fused_padded_impl)
    _fused_padded_nogil = numba.njit(nogil=True, fastmath=False, cache=True)(
        _fused_padded_impl)
else:
    _fused_padded = _fused_padded_nogil = _fused_padded_impl


#: Every cached dispatcher this package compiled, for
#: :func:`jit_cache_stats`.  The deep engine appends its own.
_JIT_DISPATCHERS: list = []
if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    _JIT_DISPATCHERS.extend([_fused_terms, _fused_terms_nogil,
                             _fused_padded, _fused_padded_nogil])


def jit_cache_stats() -> dict:
    """Aggregate on-disk JIT-cache counters across every compiled flavour.

    ``hits`` counts compilations satisfied from the persisted cache
    (``cache=True``) instead of a fresh JIT; ``misses`` counts real
    compilations.  A warm worker process that re-imports this package
    must show only hits — that is the no-re-JIT-per-job pin.  Returns
    zeros when numba is absent (nothing ever compiles).
    """
    hits = misses = 0
    for disp in _JIT_DISPATCHERS:
        stats = getattr(disp, "stats", None)
        if stats is None:
            continue
        hits += sum(getattr(stats, "cache_hits", {}).values())
        misses += sum(getattr(stats, "cache_misses", {}).values())
    return {"hits": hits, "misses": misses}


def _on_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


class NumbaEngine(Engine):
    """Compiled parallel fused-multiply-add loops (optional dependency)."""

    name = "numba"
    semantics = "vector-v1"
    jit = True
    requires = "numba"

    def __init__(self) -> None:
        if not HAVE_NUMBA:  # defensive: registration is already gated
            raise RuntimeError("numba is not installed")

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        dtype = storage.grid.dtype
        terms = nonzero_terms(stencil)
        cw = stencil.center_weight
        center = storage.read(region, level - 1)
        if not terms and cw == 0.0:
            storage.write(region, level,
                          np.zeros(region.shape, dtype=dtype))
            return
        if terms:
            stacked = np.stack([np.asarray(
                storage.gather(region, off, level - 1)) for off, _ in terms])
        else:
            stacked = np.zeros((0,) + region.shape, dtype=dtype)
        weights = np.asarray([w for _, w in terms], dtype=dtype)
        out = np.zeros(region.shape, dtype=dtype)
        # Off the main thread (a backend="threads" stage) take the
        # serial nogil flavour: numba's workqueue threading layer is
        # not safe for concurrent entry, and the GIL-free sweep is
        # what overlaps the stages.
        fused = _fused_terms if _on_main_thread() else _fused_terms_nogil
        fused(out, stacked, weights,
              np.ascontiguousarray(center), dtype.type(cw),
              cw != 0.0)
        storage.write(region, level, out)

    def apply_padded(self, stencil, src: np.ndarray, dst: np.ndarray,
                     lo: Sequence[int], hi: Sequence[int]) -> None:
        z0, y0, x0 = lo
        z1, y1, x1 = hi
        if z1 <= z0 or y1 <= y0 or x1 <= x0:
            return
        dtype = dst.dtype
        terms = nonzero_terms(stencil)
        cw = stencil.center_weight
        if not terms and cw == 0.0:
            dst[1 + z0:1 + z1, 1 + y0:1 + y1, 1 + x0:1 + x1] = 0
            return
        offsets = np.asarray([off for off, _ in terms] or
                             np.zeros((0, 3)), dtype=np.int64).reshape(-1, 3)
        weights = np.asarray([w for _, w in terms], dtype=dtype)
        # Zero the target region first: the typed accumulator reads it.
        dst[1 + z0:1 + z1, 1 + y0:1 + y1, 1 + x0:1 + x1] = 0
        fused = _fused_padded if _on_main_thread() else _fused_padded_nogil
        fused(src, dst, offsets, weights, dtype.type(cw),
              cw != 0.0, z0, z1, y0, y1, x0, x1)
