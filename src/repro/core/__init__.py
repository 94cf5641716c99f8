"""Core contribution: pipelined temporal blocking with relaxed sync.

Public surface:

* :class:`~repro.core.parameters.PipelineConfig` with
  :class:`~repro.core.parameters.BarrierSpec` /
  :class:`~repro.core.parameters.RelaxedSpec` — the parameter space of
  Sect. 1.3/1.5;
* :func:`~repro.core.pipeline.run_pipelined` — execute the scheme on real
  arrays (functional rail);
* :class:`~repro.core.executor.PipelineExecutor` — the underlying engine,
  for callers that need custom active regions (distributed trapezoids) or
  interleaving control;
* storage schemes (two-grid / compressed) in :mod:`~repro.core.storage`.

This package re-exports only the execution layer.  Two modules that
evaluate schedules on the machine model are imported from where they
live, so ``import repro.core`` never loads the model or the DES:

* :mod:`repro.core.autotune` — :func:`~repro.core.autotune.autotune`
  and :class:`~repro.core.autotune.TuneResult` (also ``repro.autotune``);
* :mod:`repro.core.wavefront` — the wavefront baseline of ref. [2].
"""

from .parameters import BarrierSpec, PipelineConfig, RelaxedSpec, SyncSpec
from .sync import BarrierPolicy, RelaxedPolicy, SyncPolicy, make_policy
from .storage import CompressedStorage, StorageError, TwoGridStorage, make_storage
from .schedule import ScheduleError, check_coverage, check_skew, make_decomposition
from .executor import ExecutionStats, ORDERS, PipelineExecutor, ScheduleDeadlock
from .pipeline import SolveResult, plan, run_pipelined

__all__ = [
    "BarrierSpec",
    "RelaxedSpec",
    "SyncSpec",
    "PipelineConfig",
    "BarrierPolicy",
    "RelaxedPolicy",
    "SyncPolicy",
    "make_policy",
    "TwoGridStorage",
    "CompressedStorage",
    "StorageError",
    "make_storage",
    "ScheduleError",
    "check_coverage",
    "check_skew",
    "make_decomposition",
    "PipelineExecutor",
    "ExecutionStats",
    "ScheduleDeadlock",
    "ORDERS",
    "SolveResult",
    "plan",
    "run_pipelined",
]
