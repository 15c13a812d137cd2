"""Performance instrumentation: views over one counter store.

The paper's results are virtual-time measurements; this package measures
the *simulator's* and the *kernels'* host behaviour — events per second,
matching probes per message, wall-seconds per simulated CPI, per-kernel
seconds and achieved flops/s against Table 1 — so that regressions in
speed are visible and the fast-path optimizations stay honest.

Counts and host times are stored in one place,
:data:`repro.obs.metrics.metrics_registry`; this package reads it:

* :class:`PerfReport` — one simulation run's counters, built from the
  ``des_*``/``mpi_*``/``net_*`` series :func:`record_pipeline_run
  <repro.obs.metrics.record_pipeline_run>` writes
  (``STAPPipeline(..., perf=True)``, ``repro-stap case --perf``);
* :data:`kernel_counters` — per-kernel :class:`KernelStats` read from the
  ``stap_kernel_*`` series, and :func:`achieved_vs_table1`;
* :data:`exec_counters` — the executor's always-on integers (points
  submitted, simulations run, cache hits), whose cache events also feed
  the ``exec_cache_*`` series while the registry is on;
* :func:`profile_run` — a cProfile harness.

The simulator's own counters (:attr:`repro.des.Simulator.events_processed`,
:attr:`repro.mpi.World.match_probes`, ...) are plain integer increments
maintained unconditionally on the hot path and flushed after the run.
"""

from repro.perf.counters import ExecCounters, PerfReport, exec_counters
from repro.perf.kernels import (
    KernelSeriesView,
    KernelStats,
    achieved_vs_table1,
    kernel_counters,
)
from repro.perf.profiling import profile_run

__all__ = [
    "ExecCounters",
    "PerfReport",
    "exec_counters",
    "KernelSeriesView",
    "KernelStats",
    "achieved_vs_table1",
    "kernel_counters",
    "profile_run",
]
