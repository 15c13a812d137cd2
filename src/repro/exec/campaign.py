"""Durable experiment campaigns: a shared store plus a pull-based queue.

The paper's evaluation is a grid of machine/assignment points (Tables
7–10, Figure 11); the Monte-Carlo and mapping-search directions multiply
that grid by orders of magnitude.  A multi-hour sweep must therefore
survive interruption, be shareable between processes, and report progress
from disk — none of which a per-process :class:`~repro.exec.cache.ResultCache`
plus a one-shot :func:`~repro.exec.run_points` call can do.  This module
turns :mod:`repro.exec` into a campaign subsystem:

* :class:`CampaignStore` generalizes the result cache into a shared
  on-disk store: content-addressed results under ``<dir>/results/`` plus
  a versioned ``manifest.json`` of declared points, everything published
  atomically (tmp + ``os.replace``), every corrupt or stale entry a clean
  miss;
* :class:`Campaign` is the **pull-based two-state work queue** over that
  store, in the style of the dashcam-processor task model: a point is
  *pending* while its key is absent from the store and *complete* once a
  result is published under it.  There is deliberately no claimed or
  leased state — points are idempotent (simulations are deterministic),
  so any worker process may pull a pending point, run it, and publish;
  the worst concurrent outcome is one duplicated simulation whose
  byte-identical result wins the last atomic write.  Crash recovery is
  therefore trivial: restart the campaign against the same store and it
  resumes exactly where the store says, serving completed points as
  cache hits and simulating only what is missing.

A manifest records enough of each point (:func:`point_spec`) to rebuild
the full :class:`~repro.exec.point.SimPoint` from disk alone, so
:func:`load_campaign` can resume — or a second terminal can report on —
a campaign its process did not start.  Results remain plain
content-addressed entries shared *across* campaigns: two campaigns
declaring the same point share one simulation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.core.assignment import Assignment
from repro.errors import ConfigurationError, ExecutionError
from repro.exec.cache import (
    CACHE_SCHEMA,
    MANIFEST_SCHEMA,
    ResultCache,
    cache_key,
)
from repro.exec.point import SimPoint
from repro.machine import Machine
from repro.machine.cost_model import NetworkCostModel, PackingCostModel
from repro.machine.mesh import Mesh2D
from repro.machine.node import ComputeRateTable, NodeModel
from repro.machine.paragon import SpeedRegion
from repro.radar.parameters import STAPParams
from repro.version import __version__

#: File names inside a campaign directory.
MANIFEST_NAME = "manifest.json"
RESULTS_DIR = "results"


# -- point (de)serialization ---------------------------------------------------------
def _encode(value):
    """JSON-ready form of one spec value; floats round-trip exactly."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # float.hex round-trips every bit pattern; a plain JSON float
        # would be close but the cache keys on exact bits.
        return {"float": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise ConfigurationError(
        f"cannot serialize campaign spec value {value!r} "
        f"({type(value).__name__})"
    )


def _decode(value):
    if isinstance(value, dict):
        return float.fromhex(value["float"])
    if isinstance(value, list):
        return tuple(_decode(v) for v in value)
    return value


def _machine_spec(machine: Optional[Machine]) -> Optional[dict]:
    """A JSON document from which a :class:`Machine` can be rebuilt.

    ``None`` (the default machine) stays ``None``.  Floats go through
    :func:`_encode` so the rebuilt machine's cache fingerprint is
    bit-identical to the original's.
    """
    if machine is None:
        return None
    return {
        "mesh": [machine.mesh.width, machine.mesh.height],
        "node": {
            "rates": {
                kernel: _encode(rate)
                for kernel, rate in sorted(machine.node.rates.rates.items())
            },
            "processors_per_node": machine.node.processors_per_node,
            "memory_bytes": machine.node.memory_bytes,
            "smp_efficiency": _encode(machine.node.smp_efficiency),
        },
        "network_cost": {
            "startup_s": _encode(machine.network_cost.startup_s),
            "per_byte_s": _encode(machine.network_cost.per_byte_s),
            "per_hop_s": _encode(machine.network_cost.per_hop_s),
        },
        "packing_cost": {
            "contiguous_per_byte_s": _encode(
                machine.packing_cost.contiguous_per_byte_s
            ),
            "strided_per_byte_s": _encode(machine.packing_cost.strided_per_byte_s),
        },
        "name": machine.name,
        "speed_regions": [
            [region.start, region.stop, _encode(region.factor)]
            for region in machine.speed_regions
        ],
    }


def _machine_from_spec(spec: Optional[dict]) -> Optional[Machine]:
    if spec is None:
        return None
    return Machine(
        mesh=Mesh2D(*spec["mesh"]),
        node=NodeModel(
            rates=ComputeRateTable(
                {k: _decode(v) for k, v in spec["node"]["rates"].items()}
            ),
            processors_per_node=spec["node"]["processors_per_node"],
            memory_bytes=spec["node"]["memory_bytes"],
            smp_efficiency=_decode(spec["node"]["smp_efficiency"]),
        ),
        network_cost=NetworkCostModel(
            startup_s=_decode(spec["network_cost"]["startup_s"]),
            per_byte_s=_decode(spec["network_cost"]["per_byte_s"]),
            per_hop_s=_decode(spec["network_cost"]["per_hop_s"]),
        ),
        packing_cost=PackingCostModel(
            contiguous_per_byte_s=_decode(
                spec["packing_cost"]["contiguous_per_byte_s"]
            ),
            strided_per_byte_s=_decode(spec["packing_cost"]["strided_per_byte_s"]),
        ),
        name=spec["name"],
        speed_regions=tuple(
            SpeedRegion(start, stop, _decode(factor))
            for start, stop, factor in spec["speed_regions"]
        ),
    )


def point_spec(point: SimPoint) -> dict:
    """A JSON document from which ``point`` can be rebuilt exactly.

    Covers every durable-campaign point: ``modeled`` mode on the default
    machine or any explicit :class:`~repro.machine.Machine` (the tuner's
    heterogeneous scenarios included).  rt points time real hardware (not
    content-addressable), so they are rejected — campaigns over such
    points still run in-process, they just cannot be resumed from the
    manifest alone.
    """
    if not point.cacheable:
        raise ConfigurationError(
            f"point {point.display_label!r} is not content-addressable "
            f"(mode={point.mode!r}); only modeled points have campaign specs"
        )
    return {
        "machine": _machine_spec(point.machine),
        "params": {
            f.name: _encode(getattr(point.params, f.name))
            for f in dataclasses.fields(point.params)
        },
        "assignment": {
            "counts": list(point.assignment.counts()),
            "name": point.assignment.name,
        },
        "num_cpis": point.num_cpis,
        "mode": point.mode,
        "input_rate": _encode(point.input_rate),
        "contention": str(point.contention),
        "azimuth_cycle": point.azimuth_cycle,
        "double_buffering": point.double_buffering,
        "collect_training": point.collect_training,
        "measured": point.measured,
        "backend": point.backend,
        "label": point.label,
    }


def point_from_spec(spec: dict) -> SimPoint:
    """Rebuild a :class:`SimPoint` from its manifest spec."""
    params = STAPParams(
        **{name: _decode(value) for name, value in spec["params"].items()}
    )
    assignment = Assignment(
        *spec["assignment"]["counts"], name=spec["assignment"]["name"]
    )
    return SimPoint(
        params,
        assignment,
        machine=_machine_from_spec(spec.get("machine")),
        num_cpis=spec["num_cpis"],
        mode=spec["mode"],
        input_rate=_decode(spec["input_rate"]),
        contention=spec["contention"],
        azimuth_cycle=spec["azimuth_cycle"],
        double_buffering=spec["double_buffering"],
        collect_training=spec["collect_training"],
        measured=spec["measured"],
        # Entries written while ``None`` meant the reference engine.
        backend=spec["backend"] or "python",
        label=spec["label"],
    )


# -- progress ------------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignProgress:
    """A campaign's state as read from its store — no live process needed."""

    name: str
    total: int
    complete: int
    #: task -> comp-seconds of each completed point whose result loaded
    #: (empty when results were not loaded, or for a manifest-less store).
    stage_comp: dict = field(default_factory=dict)
    #: Seconds spanned by the completed results' publish mtimes (0.0 with
    #: fewer than two results on disk, so :attr:`rate` reads unknown).
    span_seconds: float = 0.0

    @property
    def pending(self) -> int:
        return self.total - self.complete

    @property
    def fraction(self) -> float:
        return self.complete / self.total if self.total else 0.0

    @property
    def rate(self) -> float:
        """Historical points/s over the publish-time span (NaN if unknown)."""
        if self.span_seconds > 0 and self.complete > 1:
            return self.complete / self.span_seconds
        return float("nan")

    @property
    def eta_seconds(self) -> float:
        rate = self.rate
        if rate != rate or rate <= 0:
            return float("nan")
        return self.pending / rate


# -- the store -----------------------------------------------------------------------
class CampaignStore(ResultCache):
    """Shared on-disk campaign store: content-addressed results + manifest.

    Layout under ``directory``::

        manifest.json        # versioned list of declared points
        results/<key>.pkl    # one atomic content-addressed entry per point

    The results layer *is* a :class:`ResultCache` (this class plugs
    directly into ``run_points(cache=...)``); the manifest is what makes
    a campaign more than a cache: the declared point set is durable, so
    progress, pending work, and full resumption can all be derived from
    the directory alone.  ``directory=None`` builds an **ephemeral**
    store (in-memory results, in-memory manifest) — the degenerate
    campaign a plain ``run_points`` call runs over.

    Staleness is never an error: a manifest written under a different
    :data:`~repro.exec.cache.MANIFEST_SCHEMA`, :data:`~repro.exec.cache.CACHE_SCHEMA`,
    or package version loads as *empty* (every point cleanly pending),
    mirroring how old-schema result entries simply miss because the
    schema is part of every key.
    """

    def __init__(self, directory=None, name: str = "campaign",
                 maxsize: int = 256):
        self.root = Path(directory) if directory is not None else None
        super().__init__(
            maxsize=maxsize,
            directory=self.root / RESULTS_DIR if self.root else None,
        )
        self.name = name
        #: key -> {"label": str, "spec": dict | None}, in declaration order.
        self._points: OrderedDict[str, dict] = OrderedDict()
        #: True when an on-disk manifest existed but belonged to an older
        #: schema/version era and was therefore ignored.
        self.stale_manifest = False
        if self.root is not None:
            loaded, stale = self._read_manifest()
            self._points.update(loaded)
            self.stale_manifest = stale

    # -- manifest ----------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _read_manifest(self) -> tuple[OrderedDict, bool]:
        """The on-disk manifest's points, or empty — never an error.

        Returns ``(points, stale)`` where ``stale`` marks a manifest that
        existed but was unreadable or from another schema/version era.
        """
        empty: OrderedDict[str, dict] = OrderedDict()
        try:
            document = json.loads(self._manifest_path().read_text())
        except FileNotFoundError:
            return empty, False
        except (OSError, ValueError):
            return empty, True
        if not isinstance(document, dict):
            return empty, True
        if (
            document.get("schema") != MANIFEST_SCHEMA
            or document.get("cache_schema") != CACHE_SCHEMA
            or document.get("version") != __version__
        ):
            return empty, True
        name = document.get("name")
        if isinstance(name, str) and name:
            self.name = name
        points: OrderedDict[str, dict] = OrderedDict()
        for entry in document.get("points") or []:
            if not isinstance(entry, dict):
                continue
            key = entry.get("key")
            if isinstance(key, str) and key:
                points[key] = {
                    "label": entry.get("label", ""),
                    "spec": entry.get("spec"),
                }
        return points, False

    def _write_manifest(self) -> None:
        """Atomically publish the manifest (tmp + ``os.replace``)."""
        if self.root is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": MANIFEST_SCHEMA,
            "cache_schema": CACHE_SCHEMA,
            "version": __version__,
            "name": self.name,
            "points": [
                {"key": key, "label": entry["label"], "spec": entry["spec"]}
                for key, entry in self._points.items()
            ],
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".manifest-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1)
            os.replace(tmp_name, self._manifest_path())
        except BaseException as error:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            if not isinstance(error, OSError):
                raise

    def declare(self, points: Sequence[SimPoint]) -> list[str]:
        """Record ``points`` in the manifest; their keys, in input order.

        Idempotent — re-declaring known keys changes nothing, which is
        what makes resumption safe to repeat.  Before writing, the
        on-disk manifest is re-read and merged, so two processes
        declaring different point sets into one store converge (plain
        last-writer-wins on the file, but each writer carries the other's
        points forward).  Points that cannot be content-addressed
        (``rt`` mode) are rejected: a campaign *is* its content-addressed
        result set.
        """
        keys = []
        fresh = False
        for point in points:
            if not point.cacheable:
                raise ConfigurationError(
                    f"point {point.display_label!r} (mode={point.mode!r}) is "
                    "not content-addressable and cannot join a campaign"
                )
            key = cache_key(point)
            keys.append(key)
            if key not in self._points:
                try:
                    spec = point_spec(point)
                except ConfigurationError:
                    # Custom machine: tracked and cached, but only the
                    # declaring script can rebuild it (points() raises).
                    spec = None
                self._points[key] = {
                    "label": point.display_label, "spec": spec,
                }
                fresh = True
        if fresh and self.root is not None:
            on_disk, _ = self._read_manifest()
            for key, entry in on_disk.items():
                self._points.setdefault(key, entry)
            self._write_manifest()
        return keys

    # -- queue views -------------------------------------------------------------
    def declared_keys(self) -> list[str]:
        """Keys of every declared point, in declaration order."""
        return list(self._points)

    def entry(self, key: str) -> Optional[dict]:
        """The manifest entry (label/spec) for ``key``, if declared."""
        found = self._points.get(key)
        return dict(found) if found is not None else None

    def state(self, key: str) -> str:
        """The two-state queue test: ``complete`` iff a result exists."""
        return "complete" if self.contains(key) else "pending"

    def pending_keys(self) -> list[str]:
        return [k for k in self._points if not self.contains(k)]

    def complete_keys(self) -> list[str]:
        return [k for k in self._points if self.contains(k)]

    def points(self) -> list[SimPoint]:
        """Every declared point, rebuilt from its manifest spec.

        This is the resume path: a process that did not create the
        campaign reconstructs the exact point set from disk.
        """
        rebuilt = []
        for key, entry in self._points.items():
            spec = entry.get("spec")
            if spec is None:
                raise ExecutionError(
                    f"campaign point {entry.get('label')!r} ({key[:12]}…) "
                    "has no stored spec (custom machine); resume it from "
                    "the script that declared it"
                )
            rebuilt.append(point_from_spec(spec))
        return rebuilt

    # -- progress ----------------------------------------------------------------
    def progress(self, load_results: bool = True) -> CampaignProgress:
        """Campaign progress derived from the store alone.

        ``load_results`` additionally unpickles each completed result for
        the per-stage comp-seconds breakdown — linear in completed
        points, so a status probe against a huge campaign can pass
        ``False`` to stay O(directory listing).  Reads go through
        :meth:`~ResultCache.peek`, so probing never perturbs the
        hit/miss counters a live run is accumulating.
        """
        complete = 0
        mtimes = []
        stage_comp: dict[str, list[float]] = {}
        for key in self._points:
            if not self.contains(key):
                continue
            complete += 1
            if self.directory is not None:
                try:
                    mtimes.append(self._disk_path(key).stat().st_mtime)
                except OSError:
                    pass
            if load_results:
                result = self.peek(key)
                metrics = getattr(result, "metrics", None)
                if metrics is None:
                    continue
                for task, tm in metrics.tasks.items():
                    stage_comp.setdefault(task, []).append(tm.comp)
        span = max(mtimes) - min(mtimes) if len(mtimes) > 1 else 0.0
        return CampaignProgress(
            name=self.name,
            total=len(self._points),
            complete=complete,
            stage_comp=stage_comp,
            span_seconds=span,
        )


# -- the campaign --------------------------------------------------------------------
class Campaign:
    """A point set bound to a store: the pull-based two-state work queue.

    ``store`` may be a :class:`CampaignStore` (declared durably at
    construction), a plain :class:`ResultCache` (an ephemeral campaign —
    exactly what :func:`~repro.exec.run_points` wraps every batch in), or
    ``None`` (no store: every point always pending, nothing published).

    Execution *is* the queue discipline: :meth:`run` pulls each point,
    serves it from the store when its key is already complete, simulates
    and atomically publishes otherwise.  Because points are idempotent
    there is no claimed state to clean up — kill the process at any
    instant and a rerun resumes from exactly the published set.
    """

    def __init__(self, points: Sequence[SimPoint], store=None,
                 name: Optional[str] = None):
        self.points = list(points)
        self.store = store
        if isinstance(store, CampaignStore):
            if name:
                store.name = name
            self.keys: Optional[list[str]] = store.declare(self.points)
        else:
            self.keys = None

    # -- queue views -------------------------------------------------------------
    def _key(self, index: int) -> Optional[str]:
        point = self.points[index]
        if not point.cacheable:
            return None
        if self.keys is not None:
            return self.keys[index]
        return cache_key(point)

    def state(self, index: int) -> str:
        """Two-state test for one point: complete iff published."""
        if self.store is None:
            return "pending"
        key = self._key(index)
        if key is None:
            return "pending"
        return "complete" if self.store.contains(key) else "pending"

    def pending(self) -> list[SimPoint]:
        """Points with no published result, in input order."""
        return [p for i, p in enumerate(self.points)
                if self.state(i) == "pending"]

    def progress(self) -> CampaignProgress:
        """Progress over this campaign's own point set."""
        if isinstance(self.store, CampaignStore):
            return self.store.progress()
        complete = sum(
            1 for i in range(len(self.points)) if self.state(i) == "complete"
        )
        return CampaignProgress(
            name="campaign", total=len(self.points), complete=complete,
        )

    # -- execution ---------------------------------------------------------------
    def run(self, jobs: int = 1, progress=None, limit: Optional[int] = None):
        """Drain the queue; one :class:`~repro.exec.executor.PointOutcome`
        per processed point, in input order.

        ``limit`` bounds how many *pending* points this call may
        simulate: complete points are still served from the store, the
        first ``limit`` pending points run, and the rest are left
        untouched for a later call (the cooperative form of
        interruption; outcomes then cover only the processed subset).
        """
        from repro.exec.executor import _execute

        if jobs < 1:
            raise ExecutionError(f"jobs must be >= 1, got {jobs}")
        points = self.points
        if limit is not None:
            budget = max(limit, 0)
            chosen = []
            for index, point in enumerate(points):
                if self.state(index) == "complete":
                    chosen.append(point)
                elif budget > 0:
                    chosen.append(point)
                    budget -= 1
            points = chosen
        return _execute(points, jobs=jobs, store=self.store,
                        progress=progress)


def load_campaign(directory, name: Optional[str] = None) -> Campaign:
    """Rebuild a campaign purely from its on-disk store.

    The resume entry point: any process pointed at the directory gets
    the declared point set back (manifest specs) bound to the shared
    store, and :meth:`Campaign.run` finishes whatever is still pending.
    """
    store = CampaignStore(directory, name=name or "campaign")
    if not store.declared_keys():
        detail = (" (its manifest was written by an older schema/version "
                  "and reads as empty)" if store.stale_manifest else "")
        raise ExecutionError(
            f"no campaign manifest at {directory}{detail}"
        )
    return Campaign(store.points(), store=store)
