"""Benchmark harness: ASCII reporting helpers.

The per-figure data generators live in :mod:`repro.bench.figures`;
import them from there (they pull in the machine model and the DES).
"""

from .reporting import banner, format_series, format_table, ratio

__all__ = [
    "banner",
    "format_table",
    "format_series",
    "ratio",
]
