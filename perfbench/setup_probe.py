"""Set-up time from a fresh interpreter: ``import repro`` to a verified result.

Usage: ``python3 perfbench/setup_probe.py <workload> <problem.npz> <workdir>``.
Prints one JSON object ``{"setup_s": ..., "ok": ...}``.  The benchmark's
own imports and the input load happen before the clock starts; the
reference was computed by the parent.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from procs import stop_all  # noqa: E402
from workloads import WORKLOADS, Problem  # noqa: E402


def main(argv: list) -> int:
    workload = WORKLOADS[argv[0]]
    problem = Problem.load(Path(argv[1]))
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the program's own import)

    ok = workload.first_result(problem, Path(argv[2]))
    setup_s = time.perf_counter() - t0
    # The resource tracker procmpi started would outlive this process.
    stop_all()
    print(json.dumps({"setup_s": setup_s, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
