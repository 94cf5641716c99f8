"""E10 — host micro-benchmarks of the real NumPy kernels (sanity rail).

These time the actual vectorised Jacobi sweep and the functional
pipelined/distributed solvers on this container.  No paper figure
depends on host speed; the numbers contextualise the functional rail.

Thin wrappers over the ``kernel``/``solver`` perf scenarios
(``jacobi_sweep@<scale>``, ``solve_shared@<scale>``, ...): the JSON
records they persist carry the host throughputs as non-gated metrics
and the deterministic communication counters as gated ones.
"""

from __future__ import annotations

from repro.bench import banner, format_table


def test_host_stream(perf_bench, record_output):
    res = perf_bench("host_stream")
    text = banner("Host STREAM COPY (numpy copyto, 2-stream accounting)")
    text += f"\nbandwidth: {res.gbs():.1f} GB/s"
    text += (f"\nEq. 2 expectation for a perfect host Jacobi: "
             f"{res.bandwidth / 16 / 1e6:.0f} MLUP/s")
    record_output("host_stream", text)
    assert res.bandwidth > 1e8  # anything slower means the timer broke


def test_jacobi_sweep(perf_bench):
    perf_bench("jacobi_sweep", rounds=5)
    mlups = perf_bench.last_record.metrics["mlups"].value
    print(f"\nplain sweep: {mlups:.1f} MLUP/s on this host")
    assert mlups > 0


def _render_solver(record) -> str:
    rows = [[name, m.value, m.unit] for name, m in record.metrics.items()]
    return (banner(f"Functional solver — {record.scenario}") + "\n" +
            format_table(["metric", "value", "unit"], rows,
                         floatfmt="12.3f"))


def test_pipelined_executor_throughput(perf_bench):
    res = perf_bench("solve_shared", rounds=3)
    rec = perf_bench.last_record
    print(f"\nfunctional executor: {rec.metrics['mcups'].value:.2f} "
          "M cell-updates/s (validation off)")
    assert res.stats.cells_updated > 0
    # The shared backend exchanges nothing.
    assert res.bytes_exchanged == 0 and res.messages == 0


def test_validation_overhead(perf_bench):
    res = perf_bench("solve_shared_validated", rounds=3)
    rec = perf_bench.last_record
    print(f"\nvalidated executor: {rec.metrics['mcups'].value:.2f} "
          "M cell-updates/s (validation on)")
    assert res.stats.cells_updated > 0


def test_solve_simmpi(perf_bench, record_output):
    res = perf_bench("solve_simmpi")
    record_output("solve_simmpi", _render_solver(perf_bench.last_record))
    # The distributed backend really communicates, deterministically.
    assert res.n_ranks > 1
    assert res.bytes_exchanged > 0 and res.messages > 0
