"""repro.obs — end-to-end observability for pipeline simulations.

The paper's entire evaluation is a timing decomposition: per-task
``T_recv`` / ``T_comp`` / ``T_send`` per CPI (Tables 2-10), throughput and
latency from equations (1)-(3).  This package makes those quantities
first-class at run time instead of aggregate-only:

* :class:`TraceSink` collects :class:`Span` trees (one iteration span per
  task rank per CPI with recv/comp/send children), per-message
  :class:`MessageRecord` lifecycles from the MPI matcher, and per-link
  :class:`LinkStats` utilization/contention-wait from the network;
* :func:`chrome_trace` / :func:`write_chrome_trace` export a
  Perfetto-loadable timeline (one track per rank, one per network
  resource);
* :func:`build_report` produces the Table-style bottleneck report.

Everything is **default-off and passive**: a run without a sink takes one
``is None`` check per iteration/message, and an attached sink only reads
timestamps the simulation already produced — modeled times are
bit-identical either way (enforced by the golden-fastpath tests).

Enable via ``STAPPipeline(..., trace=True)`` or the CLI's
``repro-stap case --trace-out timeline.json --report``.

Campaign-scale telemetry lives alongside the single-run trace layer:

* :mod:`repro.obs.metrics` — the process-wide :data:`metrics_registry`
  of :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments
  with snapshot/merge semantics across executor worker processes,
  JSON/Prometheus export (``--metrics-out`` / ``--metrics-format``);
* :mod:`repro.obs.dashboard` — :class:`SweepDashboard`, a live terminal
  progress callback for sweeps (points/s, cache hit rate, errors, ETA,
  per-stage latency histograms);
* :mod:`repro.obs.progress` — store-backed campaign progress: the same
  dashboard figures (pts/s, completion, ETA, stage histograms) read from
  a :class:`~repro.exec.campaign.CampaignStore` directory on disk, so
  ``repro-stap campaign status`` reports on a campaign this process did
  not start;
* :mod:`repro.obs.regress` — the benchmark/metrics regression gate
  (``python -m repro.obs.regress baseline.json current.json``).
"""

from repro.obs.spans import (
    ITERATION_PHASES,
    LinkStats,
    MessageRecord,
    Span,
    TraceSink,
    bucket_bounds,
    wait_bucket,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    metrics_registry,
    to_prometheus,
    write_snapshot,
)
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.progress import campaign_status, read_campaign_progress

#: Exports whose modules import ``repro.core`` (or run as ``python -m``)
#: load on first use.  The eager modules above import nothing from the
#: package, so the layers below ``repro.core`` — the STAP kernels, the
#: executor counters — can record into :data:`metrics_registry` without
#: an import cycle.
_LAZY = {
    "EdgeTraffic": "report",
    "PipelineObsReport": "report",
    "build_report": "report",
    "SweepDashboard": "dashboard",
    # Lazy also because ``python -m repro.obs.regress`` first imports this
    # package, and an eager import would trigger runpy's RuntimeWarning.
    "RegressionReport": "regress",
    "compare": "regress",
    "compare_files": "regress",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"repro.obs.{module}"), name)


__all__ = [
    "ITERATION_PHASES",
    "Span",
    "TraceSink",
    "MessageRecord",
    "LinkStats",
    "wait_bucket",
    "bucket_bounds",
    "chrome_trace",
    "write_chrome_trace",
    "build_report",
    "PipelineObsReport",
    "EdgeTraffic",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "metrics_registry",
    "to_prometheus",
    "write_snapshot",
    "SweepDashboard",
    "campaign_status",
    "read_campaign_progress",
    "RegressionReport",
    "compare",
    "compare_files",
]
