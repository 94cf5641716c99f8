"""E4 — Fig. 5: theoretical multi-layer halo advantage vs subdomain size.

Regenerates the model curves for h ∈ {2,4,8,16,32} with the paper's
parameters (QDR-IB 3.2 GB/s / 1.8 µs, 2000 MLUP/s node) and the
computation/overall-time inset for h = 2 and h = 32.  Expected shape:
no influence at large L; degradation from extra halo work in the
20 ≲ L ≲ 100 range (relevant for large h); substantial gains from
message aggregation at L ≲ 20.

Thin wrapper over the scale-independent ``fig5`` perf scenario;
persists ``benchmarks/results/fig5.json`` alongside the ASCII series.
"""

from __future__ import annotations

from repro.bench import banner, format_series
from repro.bench.figures import fig5_series


def _render(data) -> str:
    expanded = fig5_series(expanded_messages=True)
    text = banner("Fig. 5 — multi-layer halo advantage "
                  "(paper accounting: unexpanded messages)")
    for h, series in data["advantage"].items():
        text += "\n" + format_series(f"h={h}", series, "L", "advantage")
    text += "\n\nInset: computation / overall time"
    for h, series in data["efficiency"].items():
        text += "\n" + format_series(f"h={h}", series, "L", "efficiency")
    text += "\n\nSelf-consistent variant (ghost-expansion message growth):"
    for h, series in expanded["advantage"].items():
        text += "\n" + format_series(f"h={h}", series, "L", "advantage")
    return text


def test_fig5(perf_bench):
    data = perf_bench("fig5", _render)

    adv = {h: dict(s) for h, s in data["advantage"].items()}
    # No influence at large subdomains for moderate h; our full trapezoid
    # accounting keeps a residual work overhead for very wide halos that
    # the paper's simplified model neglects (see EXPERIMENTS.md).
    assert 0.95 < adv[2][320] < 1.05
    assert 0.90 < adv[4][320] < 1.05
    for h in adv:
        assert 0.70 < adv[h][320] < 1.1, (h, adv[h][320])
    # Substantial gains at small L from message aggregation.
    assert max(adv[h][5] for h in adv) > 2.0
    # Extra halo work degrades the mid range, relevantly so for h >= 16.
    assert adv[16][50] < 0.95
    assert adv[32][50] < adv[8][50]
    # h=2 barely hurts anywhere in the mid range.
    assert adv[2][80] > 0.9
    # Inset: below L ~ 100 the algorithm is strongly comm-limited.
    eff = {h: dict(s) for h, s in data["efficiency"].items()}
    assert eff[2][20] < 0.5
    assert eff[2][320] > 0.8
