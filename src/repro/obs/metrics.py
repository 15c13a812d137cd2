"""Campaign-scale metrics: registry, instruments, snapshot/merge, export.

:mod:`repro.obs` tracing (spans, message lifecycles, link stats) covers a
*single run* in depth; this module covers *campaigns* — the thousands of
independent runs behind Monte-Carlo sweeps and mapping searches — in
aggregate.  Three instrument kinds, Prometheus-shaped:

* :class:`Counter` — a monotonically increasing total (events processed,
  cache hits, points simulated);
* :class:`Gauge` — a last-written level, merged as a high-water mark
  (peak event-heap depth);
* :class:`Histogram` — fixed, preregistered buckets (per-stage latency,
  per-point wall time), so histograms from different processes merge by
  plain bucket-wise addition.

Everything hangs off a process-wide :class:`MetricsRegistry`
(:data:`metrics_registry`), **default-off**: instruments only record when
the registry is enabled, and the instrumented layers guard their calls
with one ``enabled`` check, mirroring the trace layer's ``is None``
convention.

The registry is the one store for counts and host time; the other
counter objects are views of it.  Three producers write into it:

* the seven STAP kernels call :func:`record_kernel` (the
  ``stap_kernel_*`` series) wherever the registry is on — serial chains,
  functional simulations, ``repro.rt`` workers;
* :func:`record_pipeline_run` flushes the counters a simulation already
  maintained *after* ``sim.run()`` (``des_*``, ``mpi_*``, ``net_*``,
  stage histograms), so enabling metrics can never change a simulated
  timestamp.  :class:`~repro.perf.PerfReport` is read back from the same
  series;
* :meth:`repro.perf.ExecCounters.inc` mirrors the result-cache events
  into the ``exec_cache_*`` series.

:data:`repro.perf.kernel_counters` is the per-kernel view of the
``stap_kernel_*`` series.

Cross-process story: :meth:`MetricsRegistry.snapshot` freezes the
registry into a plain-dict :class:`MetricsSnapshot`; worker processes of
:func:`repro.exec.run_points` ship one snapshot per point back on the
:class:`~repro.exec.executor.PointOutcome`, and the parent
:meth:`~MetricsRegistry.merge`\\ s them, so a ``jobs=8`` sweep ends with
the same campaign-wide registry a serial sweep would (counters sum,
gauges max, histogram buckets add — enforced by ``tests/obs/test_metrics.py``).

Exports: :func:`to_prometheus` renders the Prometheus text exposition
format; :func:`write_snapshot` writes JSON or ``prom`` files (the CLI's
``--metrics-out`` / ``--metrics-format``).
"""

from __future__ import annotations

import json
import math
import os
import threading
from bisect import bisect_left
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Tuple

#: Snapshot schema identifier (bump on incompatible layout changes).
SNAPSHOT_SCHEMA = "repro.metrics/1"

#: Default histogram buckets for simulated/host *seconds*: half-decade
#: steps from 100 µs to 100 s.  Pipeline stage times (~10 ms – 1 s) and
#: per-point wall times (~0.1 – 30 s) both land mid-range.
SECONDS_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_name(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """Canonical ``name{k="v",...}`` series identifier (stable JSON key)."""
    key = _label_key(labels)
    if not key:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared shape of all three instrument kinds.

    ``_registry`` is the owning registry — recording is a no-op while it
    is disabled, so handles can be created once and called unconditionally
    from instrumented code (the single ``enabled`` attribute read is the
    default-off cost).
    """

    __slots__ = ("name", "labels", "help", "_registry")

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: _LabelKey, help: str):
        self._registry = registry
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def series(self) -> str:
        return series_name(self.name, dict(self.labels))


class Counter(_Instrument):
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, registry, name, labels, help):
        super().__init__(registry, name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._registry._lock:
            self.value += amount


class Gauge(_Instrument):
    """A level: set freely, merged across processes as the maximum."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, registry, name, labels, help):
        super().__init__(registry, name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self.value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if higher (high-water mark)."""
        if not self._registry.enabled:
            return
        with self._registry._lock:
            if value > self.value:
                self.value = float(value)


class Histogram(_Instrument):
    """Fixed-bucket distribution: counts per bucket plus sum and count.

    ``bounds`` are inclusive upper bounds; an implicit ``+inf`` bucket
    catches the overflow.  Fixed buckets are the whole point: two
    histograms of the same metric — from two worker processes, or two
    campaigns — merge by adding counts element-wise, with no rebinning.
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, registry, name, labels, help,
                 buckets: Iterable[float] = SECONDS_BUCKETS):
        super().__init__(registry, name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name} buckets must be sorted and unique")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        if math.isnan(value):
            return
        with self._registry._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsSnapshot:
    """Frozen, plain-dict view of a registry — the merge/transport unit.

    The payload is JSON-ready (what :meth:`to_dict` returns), so snapshots
    pickle cheaply across the executor's process boundary and serialize
    directly to ``--metrics-out`` files.
    """

    def __init__(self, data: dict):
        self.data = data

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        schema = data.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unknown metrics snapshot schema {schema!r} "
                f"(expected {SNAPSHOT_SCHEMA!r})"
            )
        return cls(data)

    def to_dict(self) -> dict:
        return self.data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True)

    # -- queries ----------------------------------------------------------------
    def value(self, name: str, labels: Optional[Mapping[str, str]] = None) -> float:
        """Counter or gauge value of one series (0.0 when absent)."""
        series = series_name(name, labels)
        for kind in ("counters", "gauges"):
            entry = self.data[kind].get(series)
            if entry is not None:
                return entry["value"]
        return 0.0

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None) -> Optional[dict]:
        return self.data["histograms"].get(series_name(name, labels))

    def series(self) -> list[str]:
        """All series identifiers, sorted."""
        return sorted(
            list(self.data["counters"])
            + list(self.data["gauges"])
            + list(self.data["histograms"])
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, MetricsSnapshot) and self.data == other.data

    def __repr__(self) -> str:
        return (
            f"MetricsSnapshot({len(self.data['counters'])} counters, "
            f"{len(self.data['gauges'])} gauges, "
            f"{len(self.data['histograms'])} histograms)"
        )


class MetricsRegistry:
    """Process-wide instrument registry with snapshot/merge semantics.

    Default-off: :attr:`enabled` starts False and every instrument's
    record method returns immediately while it stays so.  All mutation —
    recording, registration, merging — happens under one lock, so
    completion callbacks and helper threads can record concurrently
    (instrument registration is idempotent: asking for an existing
    (name, labels) series returns the live instrument).
    """

    def __init__(self):
        self.enabled = False
        self._lock = threading.RLock()
        self._instruments: Dict[Tuple[str, _LabelKey], _Instrument] = {}

    # -- lifecycle --------------------------------------------------------------
    def enable(self, reset: bool = True) -> None:
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every instrument (a fresh campaign)."""
        with self._lock:
            self._instruments.clear()

    @contextmanager
    def collect(self, reset: bool = True):
        """Enable for a ``with`` block; restores the prior enabled state."""
        was_enabled = self.enabled
        self.enable(reset=reset)
        try:
            yield self
        finally:
            self.enabled = was_enabled

    # -- registration -----------------------------------------------------------
    def _register(self, cls, name: str, labels, help: str, **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(self, name, key[1], help, **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {instrument.kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._register(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._register(Gauge, name, labels, help)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Iterable[float] = SECONDS_BUCKETS) -> Histogram:
        instrument = self._register(Histogram, name, labels, help, buckets=buckets)
        if tuple(float(b) for b in buckets) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return instrument

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return sorted(self._instruments.values(), key=lambda i: i.series)

    # -- snapshot / merge --------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state into a transportable snapshot."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        with self._lock:
            for instrument in self._instruments.values():
                series = instrument.series
                meta = {
                    "name": instrument.name,
                    "labels": dict(instrument.labels),
                    "help": instrument.help,
                }
                if isinstance(instrument, Counter):
                    counters[series] = {**meta, "value": instrument.value}
                elif isinstance(instrument, Gauge):
                    gauges[series] = {**meta, "value": instrument.value}
                else:
                    histograms[series] = {
                        **meta,
                        "bounds": list(instrument.bounds),
                        "counts": list(instrument.counts),
                        "sum": instrument.sum,
                        "count": instrument.count,
                    }
        return MetricsSnapshot({
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        })

    def merge(self, snapshot: MetricsSnapshot | dict) -> None:
        """Fold a snapshot into the live registry.

        Counters add, gauges keep the maximum (high-water semantics),
        histograms add bucket-wise (bounds must match — fixed buckets are
        the contract that makes cross-process merging exact).  Merging
        ignores the ``enabled`` flag deliberately: the parent of a sweep
        may keep its own recording off while still aggregating workers.
        """
        if isinstance(snapshot, dict):
            snapshot = MetricsSnapshot.from_dict(snapshot)
        data = snapshot.data
        with self._lock:
            for entry in data["counters"].values():
                c = self._register(Counter, entry["name"], entry["labels"],
                                   entry.get("help", ""))
                c.value += entry["value"]
            for entry in data["gauges"].values():
                g = self._register(Gauge, entry["name"], entry["labels"],
                                   entry.get("help", ""))
                if entry["value"] > g.value:
                    g.value = entry["value"]
            for entry in data["histograms"].values():
                h = self._register(
                    Histogram, entry["name"], entry["labels"],
                    entry.get("help", ""), buckets=entry["bounds"],
                )
                if list(h.bounds) != list(entry["bounds"]):
                    raise ValueError(
                        f"cannot merge histogram {entry['name']!r}: "
                        "bucket bounds differ"
                    )
                for i, n in enumerate(entry["counts"]):
                    h.counts[i] += n
                h.sum += entry["sum"]
                h.count += entry["count"]


#: The process-wide registry every instrumented layer reports into.
metrics_registry = MetricsRegistry()


# -- producers ---------------------------------------------------------------------
def record_kernel(kernel: str, seconds: float, flops: float) -> None:
    """Credit one call of an instrumented STAP kernel.

    The kernels time themselves only while ``metrics_registry.enabled`` is
    set (one attribute read when it is not), so this is called with the
    registry on.  ``flops`` is the call's share of the paper's analytic
    Table 1 count, not a count of machine instructions.
    """
    labels = {"kernel": kernel}
    metrics_registry.counter("stap_kernel_calls_total",
                             "instrumented kernel invocations",
                             labels=labels).inc()
    metrics_registry.counter("stap_kernel_seconds_total",
                             "host seconds inside instrumented kernels",
                             labels=labels).inc(seconds)
    metrics_registry.counter("stap_kernel_flops_total",
                             "modeled useful flops performed",
                             labels=labels).inc(flops)


def record_pipeline_run(
    pipeline, sim, world, metrics, makespan: float,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Flush one completed pipeline run into the registry.

    Pull-based by design: everything recorded here is a counter or
    timestamp the simulation *already produced* (the always-on integers
    of :class:`~repro.des.Simulator` and :class:`~repro.mpi.World`), so
    the run's virtual-time behaviour is bit-identical with metrics on or
    off.  The simulator and world are fresh per run, so their totals are
    this run's deltas; :class:`~repro.perf.PerfReport` reads them back
    from the same series.
    """
    reg = metrics_registry if registry is None else registry
    if not reg.enabled:
        return
    backend = {"backend": world.backend}

    # DES engine.
    reg.counter("des_events_total",
                "events processed by the simulator core",
                labels=backend).inc(sim.events_processed)
    reg.gauge("des_heap_depth_peak",
              "peak event-heap depth observed at schedule time").set_max(
        sim.heap_peak)
    if world.engine_plan is not None:
        reg.counter("des_plan_build_seconds_total",
                    "host seconds spent lowering EnginePlan tables",
                    labels=backend).inc(world.engine_plan.build_seconds)

    # SimMPI matcher.
    reg.counter("mpi_match_probes_total",
                "queue entries examined while matching").inc(world.match_probes)
    reg.counter("mpi_sends_total", "point-to-point sends posted").inc(
        world.sends_posted)
    reg.counter("mpi_recvs_total", "point-to-point receives posted").inc(
        world.recvs_posted)
    reg.counter("mpi_wildcard_recvs_total",
                "receives posted with a wildcard source or tag").inc(
        world.wildcard_recvs)
    reg.counter("mpi_wildcard_hits_total",
                "matches that involved a wildcard receive").inc(
        world.wildcard_hits)

    # Network.
    network = world.network
    reg.counter("net_messages_total", "messages sent on the interconnect").inc(
        network.messages_sent)
    reg.counter("net_bytes_total", "bytes sent on the interconnect").inc(
        network.bytes_sent)
    sink = pipeline.trace_sink
    if sink is not None and sink.link_stats:
        busy = sum(s.busy_seconds for s in sink.link_stats.values())
        wait = sum(s.wait_seconds for s in sink.link_stats.values())
        held = sum(s.messages for s in sink.link_stats.values())
        reg.counter("net_link_busy_seconds_total",
                    "simulated seconds interconnect resources were held").inc(busy)
        reg.counter("net_link_wait_seconds_total",
                    "simulated seconds transfers queued for resources").inc(wait)
        reg.counter("net_link_holds_total",
                    "resource holds recorded by the trace sink").inc(held)

    # Pipeline stages (the paper's per-task recv/comp/send decomposition).
    reg.counter("pipeline_runs_total", "completed pipeline simulations").inc()
    reg.histogram("pipeline_makespan_seconds",
                  "simulated makespan per run").observe(makespan)
    if metrics is not None:
        if not math.isnan(metrics.measured_latency):
            reg.histogram("pipeline_latency_seconds",
                          "measured end-to-end latency per run").observe(
                metrics.measured_latency)
        if not math.isnan(metrics.measured_throughput):
            reg.histogram(
                "pipeline_throughput_cpis_per_second",
                "measured steady-state throughput per run",
                buckets=(0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256),
            ).observe(metrics.measured_throughput)
        for task, tm in metrics.tasks.items():
            labels = {"task": task}
            for phase, value in (("recv", tm.recv), ("comp", tm.comp),
                                 ("send", tm.send)):
                reg.histogram(
                    f"stage_{phase}_seconds",
                    f"steady-state {phase} seconds per CPI, per run",
                    labels=labels,
                ).observe(value)


# -- export ------------------------------------------------------------------------
def to_prometheus(snapshot: MetricsSnapshot | dict) -> str:
    """Prometheus text exposition format (version 0.0.4) of a snapshot."""
    if isinstance(snapshot, dict):
        snapshot = MetricsSnapshot.from_dict(snapshot)
    data = snapshot.data
    lines: list[str] = []
    seen_types: set[str] = set()

    def _head(name: str, kind: str, help: str) -> None:
        if name in seen_types:
            return
        seen_types.add(name)
        if help:
            lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} {kind}")

    def _fmt(value: float) -> str:
        return repr(float(value)) if value % 1 else str(int(value))

    for kind_key, kind in (("counters", "counter"), ("gauges", "gauge")):
        for series in sorted(data[kind_key]):
            entry = data[kind_key][series]
            _head(entry["name"], kind, entry.get("help", ""))
            lines.append(f"{series} {_fmt(entry['value'])}")
    for series in sorted(data["histograms"]):
        entry = data["histograms"][series]
        name = entry["name"]
        _head(name, "histogram", entry.get("help", ""))
        labels = entry.get("labels", {})
        cumulative = 0
        for bound, count in zip(entry["bounds"], entry["counts"]):
            cumulative += count
            lines.append(
                f"{series_name(name + '_bucket', {**labels, 'le': repr(bound)})}"
                f" {cumulative}"
            )
        lines.append(
            f"{series_name(name + '_bucket', {**labels, 'le': '+Inf'})}"
            f" {entry['count']}"
        )
        lines.append(f"{series_name(name + '_sum', labels)} {entry['sum']!r}")
        lines.append(f"{series_name(name + '_count', labels)} {entry['count']}")
    return "\n".join(lines) + "\n"


def write_snapshot(snapshot: MetricsSnapshot | dict, path,
                   format: str = "json") -> Path:
    """Write a snapshot to ``path`` as ``json`` or ``prom`` text.

    Parent directories are created on demand (``--metrics-out`` may point
    into a fresh results tree) and the write is atomic — rendered to a
    sibling temp file, then renamed — so a scrape never reads a torn
    snapshot."""
    if isinstance(snapshot, dict):
        snapshot = MetricsSnapshot.from_dict(snapshot)
    path = Path(path)
    if format == "json":
        text = snapshot.to_json() + "\n"
    elif format == "prom":
        text = to_prometheus(snapshot)
    else:
        raise ValueError(f"unknown metrics format {format!r} (json or prom)")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path
