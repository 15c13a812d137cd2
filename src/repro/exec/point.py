"""One batch-executable simulation point and its (cacheable) result.

A :class:`SimPoint` is the *description* of one full-pipeline simulation —
everything :class:`~repro.core.pipeline.STAPPipeline` needs, as a frozen,
picklable value object, so points can be content-hashed for the result
cache and shipped to worker processes.  A :class:`PointResult` is the part
of a run worth keeping: the metrics and run-level counters, without the
raw per-rank collector or trace sink (which would dominate IPC and disk
cost without being used by any sweep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.assignment import Assignment
from repro.core.metrics import PipelineMetrics, TaskMetrics
from repro.des.backends import resolve_backend
from repro.errors import ConfigurationError
from repro.machine import Machine
from repro.radar.parameters import STAPParams
from repro.radar.scenario import RadarScenario


@dataclass(frozen=True)
class SimPoint:
    """One independent experiment point of a sweep.

    ``machine=None`` means the default AFRL Paragon, resolved inside
    :meth:`run` so the point itself stays light to pickle.  ``measured``
    selects the two-phase :meth:`~repro.core.pipeline.STAPPipeline.run_measured`
    measurement instead of a plain run.

    Two modes run through the executor:

    * ``modeled`` — the discrete-event simulator.  Deterministic and
      content-addressable, so results go through the cache.
    * ``rt`` — the real process-parallel runtime (:mod:`repro.rt`) on the
      point's ``scenario`` (default: the standard evaluation scenario)
      with ``rt_workers`` worker processes.  Wall-clock measurements are
      machine- and load-dependent, so rt points are **never cached**
      (:attr:`cacheable` is false).
    """

    #: Modes the executor accepts.
    MODES = ("modeled", "rt")

    params: STAPParams
    assignment: Assignment
    machine: Optional[Machine] = None
    num_cpis: int = 25
    mode: str = "modeled"
    input_rate: Optional[float] = None
    contention: str = "endpoint"
    azimuth_cycle: int = 1
    double_buffering: bool = True
    collect_training: bool = True
    measured: bool = False
    #: Simulator backend (``None`` = reference engine, or one of
    #: ``python`` / ``lowered`` / ``auto``).  The *resolved*
    #: identity goes into the cache key, so an ``auto`` point hashes to
    #: whichever core it actually runs on.
    backend: Optional[str] = None
    #: Display name for progress output; defaults to the assignment's name.
    label: str = ""
    #: Radar environment for ``rt`` points (``None`` = the standard
    #: scenario).  Ignored by modeled points.
    scenario: Optional[RadarScenario] = None
    #: Worker-process budget for ``rt`` points (``None`` = one per stage).
    rt_workers: Optional[int] = None

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ConfigurationError(
                f"the executor supports modes {self.MODES}, got {self.mode!r}"
            )
        resolve_backend(self.backend)  # ConfigurationError on unknown names
        if self.mode == "rt" and self.measured:
            raise ConfigurationError(
                "rt points are always measured for real; drop measured=True"
            )

    @property
    def cacheable(self) -> bool:
        """Whether the result is a pure function of the point's content.

        Modeled points are; rt points time real processes on whatever
        machine runs them, so their results must never be replayed from
        the cache."""
        return self.mode == "modeled"

    @property
    def display_label(self) -> str:
        return self.label or self.assignment.name or f"{self.assignment.counts()}"

    # -- execution ---------------------------------------------------------------
    def build_pipeline(self, trace: bool = False):
        from repro.core.pipeline import STAPPipeline

        return STAPPipeline(
            self.params,
            self.assignment,
            machine=self.machine,
            mode=self.mode,
            num_cpis=self.num_cpis,
            contention=self.contention,
            azimuth_cycle=self.azimuth_cycle,
            input_rate=self.input_rate,
            double_buffering=self.double_buffering,
            collect_training=self.collect_training,
            trace=trace,
            backend=self.backend,
        )

    def run(self) -> "PointResult":
        """Simulate (or really execute) this point; see the executor for
        caching."""
        if self.mode == "rt":
            return self._run_rt()
        pipeline = self.build_pipeline()
        result = pipeline.run_measured() if self.measured else pipeline.run()
        return PointResult.from_pipeline_result(result)

    def _run_rt(self) -> "PointResult":
        from repro.radar.datacube import CPIStream
        from repro.rt import ParallelSTAP

        stream = CPIStream(
            self.params, self.scenario, azimuth_cycle=self.azimuth_cycle
        )
        rt = ParallelSTAP(
            self.params,
            stream,
            num_cpis=self.num_cpis,
            azimuth_cycle=self.azimuth_cycle,
            assignment=self.assignment,
            workers=self.rt_workers,
        )
        return PointResult.from_rt_result(rt.run(), self.assignment)


@dataclass
class PointResult:
    """The cacheable outcome of one simulated point."""

    metrics: PipelineMetrics
    makespan: float
    network_messages: int
    network_bytes: int
    num_cpis: int
    assignment: Assignment

    @classmethod
    def from_pipeline_result(cls, result) -> "PointResult":
        return cls(
            metrics=result.metrics,
            makespan=result.makespan,
            network_messages=result.network_messages,
            network_bytes=result.network_bytes,
            num_cpis=result.num_cpis,
            assignment=result.assignment,
        )

    @classmethod
    def from_rt_result(cls, rt_result, assignment: Assignment) -> "PointResult":
        """Wrap an :class:`repro.rt.RtResult` as a point result.

        Only the *measured* fields are meaningful: the runtime times real
        processes, so there are no modeled per-phase timings.  The task
        table records each stage's replica count with zero phase times —
        enough for occupancy accounting, but the equation properties
        (which divide by task totals) are not defined for rt results.
        """
        tasks = {
            stage: TaskMetrics(
                task=stage, num_nodes=replicas, recv=0.0, comp=0.0, send=0.0
            )
            for stage, replicas in rt_result.plan.as_dict().items()
        }
        metrics = PipelineMetrics(
            tasks=tasks,
            measured_throughput=rt_result.steady_throughput,
            measured_latency=rt_result.latency,
        )
        return cls(
            metrics=metrics,
            makespan=rt_result.elapsed_seconds,
            network_messages=0,
            network_bytes=0,
            num_cpis=rt_result.num_cpis,
            assignment=assignment,
        )


def probe_throughput(pipeline) -> Optional[float]:
    """Cached throughput for ``run_measured``'s probe phase, if cacheable.

    The probe is an ordinary unpaced run of the pipeline's own
    configuration; identical configurations probe to identical
    throughputs, so the probe routes through the result cache.  Returns
    ``None`` when the configuration is not content-addressable (functional
    mode, or a non-default steering matrix) and the caller must run the
    probe itself.
    """
    from repro.exec.cache import cache_key, get_default_cache
    from repro.perf import exec_counters

    if pipeline.mode != "modeled" or not getattr(
        pipeline, "_default_steering", False
    ):
        return None
    point = SimPoint(
        pipeline.params,
        pipeline.assignment,
        machine=pipeline.machine,
        num_cpis=pipeline.num_cpis,
        input_rate=pipeline.input_rate,
        contention=str(pipeline.contention),
        azimuth_cycle=pipeline.azimuth_cycle,
        double_buffering=pipeline.double_buffering,
        collect_training=pipeline.collect_training,
        measured=False,
        backend=pipeline.requested_backend,
    )
    cache = get_default_cache()
    key = cache_key(point)
    hit = cache.get(key)
    if hit is not None:
        exec_counters.inc("probe_cache_hits")
        return hit.metrics.measured_throughput
    result = point.run()
    exec_counters.inc("simulations_run")
    cache.put(key, result)
    return result.metrics.measured_throughput
