"""Simulation-speed counters and the report that aggregates them."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Optional


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
        """Thread-safely add ``amount`` to the named counter."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

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


#: Snapshot keys that identify the run rather than count it; they ride
#: along in snapshots but are carried through (not differenced) by
#: :meth:`PerfReport.from_snapshots`.
_META_KEYS = ("backend", "plan_build_seconds")


def snapshot_counters(sim, world=None) -> dict:
    """Raw counter values of a simulator (and optionally its MPI world).

    Taken before and after a run, the difference is what the run cost.
    Besides counters, the snapshot records which simulator backend ran
    and how long its :class:`~repro.des.backends.plan.EnginePlan` took to
    build (zero for the reference engine, which lowers nothing).
    """
    counters = {
        "events_processed": sim.events_processed,
        "match_probes": 0,
        "sends_posted": 0,
        "recvs_posted": 0,
        "wildcard_recvs": 0,
        "wildcard_hits": 0,
        "network_messages": 0,
        "network_bytes": 0,
        "backend": getattr(sim, "backend", "python"),
        "plan_build_seconds": 0.0,
    }
    if world is not None:
        plan = getattr(world, "engine_plan", None)
        counters.update(
            match_probes=world.match_probes,
            sends_posted=world.sends_posted,
            recvs_posted=world.recvs_posted,
            wildcard_recvs=world.wildcard_recvs,
            wildcard_hits=world.wildcard_hits,
            network_messages=world.network.messages_sent,
            network_bytes=world.network.bytes_sent,
            backend=getattr(world, "backend", counters["backend"]),
            plan_build_seconds=plan.build_seconds if plan is not None else 0.0,
        )
    return counters


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
    extras: dict = field(default_factory=dict)

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
    @classmethod
    def from_snapshots(
        cls,
        before: dict,
        after: dict,
        wall_seconds: float,
        sim_seconds: float,
        num_cpis: int,
        label: str = "",
    ) -> "PerfReport":
        """Build a report from :func:`snapshot_counters` pairs."""
        delta = {
            key: after[key] - before[key]
            for key in before
            if key not in _META_KEYS
        }
        return cls(
            wall_seconds=wall_seconds,
            sim_seconds=sim_seconds,
            num_cpis=num_cpis,
            label=label,
            backend=str(after.get("backend", before.get("backend", ""))),
            plan_build_seconds=float(
                after.get(
                    "plan_build_seconds", before.get("plan_build_seconds", 0.0)
                )
            ),
            **delta,
        )

    #: ``to_dict`` keys computed from other fields; ``from_dict`` drops
    #: them rather than storing stale copies.
    _DERIVED_KEYS = ("events_per_second", "probes_per_message", "wall_seconds_per_cpi")

    @classmethod
    def from_dict(cls, doc: dict) -> "PerfReport":
        """Rebuild a report from :meth:`to_dict` output (round-trip safe).

        Derived rates are recomputed, not read back; keys that are not
        report fields land in ``extras`` so foreign annotations survive
        the round trip (``from_dict(r.to_dict()).to_dict() == r.to_dict()``
        holds whenever extras don't shadow field names).
        """
        doc = dict(doc)
        for key in cls._DERIVED_KEYS:
            doc.pop(key, None)
        known = {f.name for f in fields(cls)} - {"extras"}
        kwargs = {key: doc.pop(key) for key in list(doc) if key in known}
        return cls(extras=doc, **kwargs)

    # -- output -----------------------------------------------------------------
    def counters_dict(self) -> dict:
        """Raw registered counters only (no derived rates, no label).

        Every registered counter is present even when zero, so programmatic
        before/after diffs see the full key set — a counter that silently
        vanishes from the output reads as "unchanged" when it actually
        dropped to zero.
        """
        return {
            "events_processed": self.events_processed,
            "match_probes": self.match_probes,
            "sends_posted": self.sends_posted,
            "recvs_posted": self.recvs_posted,
            "wildcard_recvs": self.wildcard_recvs,
            "wildcard_hits": self.wildcard_hits,
            "network_messages": self.network_messages,
            "network_bytes": self.network_bytes,
        }

    def to_dict(self) -> dict:
        """JSON-serializable view (raw counters plus derived rates)."""
        return {
            "label": self.label,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "num_cpis": self.num_cpis,
            "events_processed": self.events_processed,
            "match_probes": self.match_probes,
            "sends_posted": self.sends_posted,
            "recvs_posted": self.recvs_posted,
            "wildcard_recvs": self.wildcard_recvs,
            "wildcard_hits": self.wildcard_hits,
            "network_messages": self.network_messages,
            "network_bytes": self.network_bytes,
            "backend": self.backend,
            "plan_build_seconds": self.plan_build_seconds,
            "events_per_second": self.events_per_second,
            "probes_per_message": self.probes_per_message,
            "wall_seconds_per_cpi": self.wall_seconds_per_cpi,
            **self.extras,
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
