"""The benchmark's own floors: a plain 7-point sweep and a STREAM-style copy.

Both are written here, against NumPy alone, so that a change to
``repro.kernels`` or ``repro.engine`` can speed up the solver without
also moving the denominator of ``speedup_vs_sweep`` or
``engine.frac_of_stream``.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: Bytes per lattice-site update of the 7-point Jacobi sweep (Eq. 2:
#: one 8-byte load and one 8-byte store per cell in the streaming limit).
BYTES_PER_LUP = 16

#: Size of each of the two STREAM copy arrays.  The machine's RAM is
#: shared with other tenants, so the two arrays stay far below four times
#: the last-level cache; the copy floor is therefore labelled
#: "LLC-sized" in the report, not "DRAM".
COPY_BYTES = 128 << 20


def padded(field: np.ndarray, boundary: float) -> np.ndarray:
    """``field`` inside a one-cell Dirichlet ring of value ``boundary``."""
    return np.pad(field, 1, mode="constant", constant_values=boundary)


def sweep(src: np.ndarray, dst: np.ndarray) -> None:
    """One Jacobi sweep: the interior of ``dst`` gets the 6-neighbour mean."""
    out = dst[1:-1, 1:-1, 1:-1]
    np.add(src[:-2, 1:-1, 1:-1], src[2:, 1:-1, 1:-1], out=out)
    out += src[1:-1, :-2, 1:-1]
    out += src[1:-1, 2:, 1:-1]
    out += src[1:-1, 1:-1, :-2]
    out += src[1:-1, 1:-1, 2:]
    out *= 1.0 / 6.0


class Sweeper:
    """Plain sweeps of one problem on ``cores`` threads at once.

    Each thread sweeps its own copy of the problem, so the floor needs no
    synchronisation between levels and runs on as many cores as the host
    gives the process at that moment.  A workload that computes on two
    cores is compared with this floor on two cores: both then slow down
    together when a co-tenant takes a core away.
    """

    def __init__(self, field: np.ndarray, boundary: float,
                 cores: int = 1) -> None:
        self.cores = cores
        self.cells = field.size
        self._start = padded(field, boundary)
        self._pairs = [(self._start.copy(), self._start.copy())
                       for _ in range(cores)]

    def run(self, levels: int) -> Tuple[np.ndarray, float]:
        """Advance every copy by ``levels`` sweeps.

        Returns a view of the first copy's final interior (valid until
        the next call) and the wall seconds from the first thread's
        start to the last thread's end; re-seeding is not timed.
        """
        for a, b in self._pairs:
            np.copyto(a, self._start)
            np.copyto(b, self._start)
        spans: List[Tuple[float, float]] = [(0.0, 0.0)] * self.cores
        finals: List[np.ndarray] = [self._start] * self.cores
        barrier = threading.Barrier(self.cores)

        def body(i: int) -> None:
            a, b = self._pairs[i]
            barrier.wait()
            t0 = time.perf_counter()
            for _ in range(levels):
                sweep(a, b)
                a, b = b, a
            spans[i] = (t0, time.perf_counter())
            finals[i] = a

        threads = [threading.Thread(target=body, args=(i,),
                                    name=f"perfbench-floor-{i}")
                   for i in range(self.cores)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = max(e for _, e in spans) - min(s for s, _ in spans)
        return finals[0][1:-1, 1:-1, 1:-1], wall

    def mlups(self, levels: int, wall: float) -> float:
        """Floor throughput of a run of ``levels`` sweeps that took ``wall``."""
        return self.cores * self.cells * levels / wall / 1e6


def stream_copy_gbs(repeats: int = 9) -> float:
    """Median copy bandwidth in GB/s, counting read plus write bytes."""
    n = COPY_BYTES // 8
    a = np.full(n, 1.5)
    b = np.zeros(n)
    np.copyto(b, a)
    walls: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(b, a)
        walls.append(time.perf_counter() - t0)
    return 2 * COPY_BYTES / float(np.median(walls)) / 1e9


def cache_sizes() -> Dict[str, int]:
    """Per-level cache sizes in bytes of CPU 0, from sysfs (empty if absent)."""
    out: Dict[str, int] = {}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(root.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        out[f"L{level}"] = int(size.rstrip("KMG")) * mult
    return out


def copy_label() -> Tuple[str, int]:
    """How the copy arrays compare with the last-level cache, and its size."""
    sizes = cache_sizes()
    llc = max(sizes.values()) if sizes else 0
    label = "DRAM" if llc and COPY_BYTES >= 4 * llc else "LLC-sized"
    return label, llc
