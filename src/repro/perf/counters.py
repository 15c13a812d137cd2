"""Executor counters and the simulation-speed report.

Both read and write through :data:`repro.obs.metrics.metrics_registry`
where it matters: :meth:`ExecCounters.inc` mirrors the result-cache
events into the ``exec_cache_*`` series, and :class:`PerfReport` is built
from one run's :func:`~repro.obs.metrics.record_pipeline_run` snapshot.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, fields

from repro.obs.metrics import MetricsSnapshot, metrics_registry

#: Executor counters that are also registry series (while the registry is
#: on): counter -> (series, help, labels).
_REGISTRY_SERIES = {
    "cache_hits_memory": ("exec_cache_hits_total", "result-cache hits",
                          {"layer": "memory"}),
    "cache_hits_disk": ("exec_cache_hits_total", "result-cache hits",
                        {"layer": "disk"}),
    "cache_misses": ("exec_cache_misses_total",
                     "result-cache lookups that missed", None),
    "cache_stores": ("exec_cache_stores_total",
                     "results written into the cache", None),
    "cache_corrupt": ("exec_cache_corrupt_total",
                      "disk entries that existed but failed to load", None),
}


@dataclass
class ExecCounters:
    """Process-wide counters for the batch executor and result cache.

    Plain integer counters, always on (like the simulator's own
    counters); :mod:`repro.exec` maintains them as work flows through the
    executor and cache so tests and reports can verify, for example, that
    a repeated sweep performed *zero* new simulations.  Parallel workers
    report through their outcomes, so the parent's counters stay coherent
    regardless of ``jobs``.

    Mutation goes through :meth:`inc`, which serializes under a lock:
    the executor's ``note()`` runs from completion callbacks, and those
    may fire on helper threads, where a bare ``+=`` read-modify-write can
    drop increments.  Reads stay plain attribute access (a torn read of
    an int is impossible under CPython).
    """

    #: Points handed to :func:`repro.exec.run_points` (cached or not).
    points_submitted: int = 0
    #: Full pipeline simulations actually executed (cache misses).
    simulations_run: int = 0
    #: Points whose simulation raised (captured, not propagated).
    point_errors: int = 0
    #: Progress callbacks that raised (contained, not propagated).
    progress_errors: int = 0
    #: Result-cache hits served from the in-process LRU layer.
    cache_hits_memory: int = 0
    #: Result-cache hits served from the on-disk store.
    cache_hits_disk: int = 0
    #: Result-cache lookups that found nothing.
    cache_misses: int = 0
    #: Results written into the cache.
    cache_stores: int = 0
    #: On-disk entries that existed but failed to load (treated as misses).
    cache_corrupt: int = 0
    #: ``run_measured`` probe phases answered from the result cache.
    probe_cache_hits: int = 0

    def __post_init__(self):
        # Not a dataclass field: locks must stay out of snapshots/compares.
        self._lock = threading.Lock()
        self._names = tuple(f.name for f in fields(self))

    def inc(self, name: str, amount: int = 1) -> None:
        """Thread-safely add ``amount`` to the named counter.

        A result-cache counter also adds to its ``exec_cache_*`` registry
        series while the registry is enabled.
        """
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)
        series = _REGISTRY_SERIES.get(name)
        if series is not None and metrics_registry.enabled:
            metrics_registry.counter(*series).inc(amount)

    def snapshot(self) -> dict:
        """Copy of the current values (for before/after deltas)."""
        with self._lock:
            return {name: getattr(self, name) for name in self._names}

    def delta_since(self, before: dict) -> dict:
        """Per-counter increase since a :meth:`snapshot`."""
        now = self.snapshot()
        return {key: now[key] - before.get(key, 0) for key in now}

    def reset(self) -> None:
        with self._lock:
            for name in self._names:
                setattr(self, name, 0)


#: The module singleton the executor and cache increment.
exec_counters = ExecCounters()


@dataclass
class PerfReport:
    """Wall-clock cost of one simulation run.

    ``wall_seconds`` is host time; ``sim_seconds`` is the virtual makespan.
    The derived properties are the quantities tracked across PRs:
    events/second (engine throughput), probes/message (matching
    efficiency — the indexed queues aim at ~1), and wall-seconds per
    simulated CPI (the end-to-end figure of merit).
    """

    wall_seconds: float
    sim_seconds: float
    num_cpis: int
    events_processed: int
    match_probes: int = 0
    sends_posted: int = 0
    recvs_posted: int = 0
    wildcard_recvs: int = 0
    wildcard_hits: int = 0
    network_messages: int = 0
    network_bytes: int = 0
    #: Which simulator core ran (``python`` / ``lowered``).
    backend: str = ""
    #: Wall seconds spent building the backend's :class:`EnginePlan`
    #: tables before the run (zero for the reference engine).
    plan_build_seconds: float = 0.0
    #: Optional label (case name, mode) carried into serialized output.
    label: str = ""

    # -- derived ----------------------------------------------------------------
    @property
    def events_per_second(self) -> float:
        """Engine throughput in events per wall-clock second."""
        return self.events_processed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def probes_per_message(self) -> float:
        """Queue entries examined per point-to-point operation posted."""
        ops = self.sends_posted + self.recvs_posted
        return self.match_probes / ops if ops else 0.0

    @property
    def wall_seconds_per_cpi(self) -> float:
        """Host seconds spent per simulated CPI."""
        return self.wall_seconds / self.num_cpis if self.num_cpis else 0.0

    # -- construction -----------------------------------------------------------
    #: Report field -> counter series :func:`record_pipeline_run` writes
    #: (``des_*`` series carry the engine's ``backend`` label).
    _SERIES = {
        "events_processed": "des_events_total",
        "match_probes": "mpi_match_probes_total",
        "sends_posted": "mpi_sends_total",
        "recvs_posted": "mpi_recvs_total",
        "wildcard_recvs": "mpi_wildcard_recvs_total",
        "wildcard_hits": "mpi_wildcard_hits_total",
        "network_messages": "net_messages_total",
        "network_bytes": "net_bytes_total",
    }

    @classmethod
    def from_snapshot(
        cls,
        snapshot: MetricsSnapshot,
        backend: str,
        wall_seconds: float,
        sim_seconds: float,
        num_cpis: int,
        label: str = "",
    ) -> "PerfReport":
        """Build a report from one run's registry snapshot."""
        engine = {"backend": backend}
        counts = {}
        for field, series in cls._SERIES.items():
            labels = engine if series.startswith("des_") else None
            counts[field] = int(snapshot.value(series, labels))
        return cls(
            wall_seconds=wall_seconds,
            sim_seconds=sim_seconds,
            num_cpis=num_cpis,
            backend=backend,
            plan_build_seconds=snapshot.value("des_plan_build_seconds_total", engine),
            label=label,
            **counts,
        )

    # -- output -----------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable view (raw counters plus derived rates)."""
        return {
            "label": self.label,
            **asdict(self),
            "events_per_second": self.events_per_second,
            "probes_per_message": self.probes_per_message,
            "wall_seconds_per_cpi": self.wall_seconds_per_cpi,
        }

    def summary(self) -> str:
        """Human-readable block for CLI output."""
        lines = [
            f"--- simulation perf {('(' + self.label + ')') if self.label else ''}".rstrip(),
            f"wall time          {self.wall_seconds:10.3f} s"
            f"   ({self.wall_seconds_per_cpi * 1e3:8.1f} ms / simulated CPI)",
            f"virtual makespan   {self.sim_seconds:10.3f} s",
            f"events processed   {self.events_processed:10d}"
            f"   ({self.events_per_second:10.0f} events/s)",
        ]
        if self.backend:
            lines.append(
                f"engine backend     {self.backend:>10s}"
                f"   ({self.plan_build_seconds * 1e3:10.1f} ms plan build)"
            )
        # Zero-valued counters are printed, not omitted: a silent omission
        # makes a before/after diff read as "unchanged" when the counter
        # actually collapsed to zero.
        ops = self.sends_posted + self.recvs_posted
        lines.append(
            f"p2p ops posted     {ops:10d}"
            f"   ({self.probes_per_message:10.2f} match probes/op)"
        )
        lines.append(
            f"network messages   {self.network_messages:10d}"
            f"   ({self.network_bytes / 2**20:10.1f} MiB on the wire)"
        )
        return "\n".join(lines)
