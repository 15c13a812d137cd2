"""The four benchmark workloads.

Each workload has three phases, all driven by ``run.py``:

* ``setup()`` — imports, construction and warm-up, up to the first timed
  call (``setup_s`` times exactly this, in fresh processes);
* ``measure(seconds, tally)`` — untraced operations for ``seconds``; returns
  the end-to-end metrics;
* ``trace(seconds, tally)`` — untraced and traced operations plus the
  extra instrumented passes; returns the per-layer metrics the workload
  exercises (``run.py`` reports every other layer as 0).

Keys starting with ``_`` in the returned dicts are notes: printed, not
reported as metrics.

Layers are measured from outside: by timing calls into public functions
of :mod:`repro` and by reading counters its packages already expose.
Every operation's output is checked against ``expected.json`` (recorded
from the program by ``record.py``) or against the serial chain.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import pstats
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from perfbench.harness import (
    BenchError,
    InstrumentMissing,
    Tally,
    median,
    read_instrument,
    tail,
)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Detection digests are recorded for this many scenario seeds; ``--seed``
#: selects ``seed % SCENARIO_SEEDS``, so every seed has a recorded answer.
SCENARIO_SEEDS = 32
#: Seeds recorded for later claims: one to develop on, one held out.
DEFAULT_SEED = 0
HELD_OUT_SEED = 17

#: Set-up probes per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Host-seconds limit of one rt run before it counts as a timeout.
RT_TIMEOUT_S = 60.0

KERNELS = ("doppler", "easy_weight", "hard_weight", "easy_beamform",
           "hard_beamform", "pulse_compression", "cfar")
#: cProfile self time is grouped by these ``repro`` packages.
PROFILED_PACKAGES = ("des", "mpi", "machine", "core")


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one benchmark scale (``paper`` is the benchmark;
    ``tiny`` exists so the tests can run every workload in seconds)."""

    name: str
    params: str
    sim_counts: Tuple[int, ...]
    sim_cpis: int
    sweep_budgets: Tuple[int, ...]
    sweep_cpis: int
    stream_cpis: int
    rt_warmup_cpis: int

    def make_params(self):
        from repro import STAPParams

        return getattr(STAPParams, self.params)()

    def sim_assignment(self):
        from repro import Assignment

        return Assignment(*self.sim_counts, name=f"{self.name} sim")

    def make_scenario(self, seed: int):
        """The standard scenario (strong clutter, two targets) for the
        scenario seed; its targets moved into range at reduced sizes."""
        from dataclasses import replace

        from repro import RadarScenario

        scenario = RadarScenario.standard(seed=seed)
        ranges = self.make_params().num_ranges
        return scenario.with_targets(
            [replace(t, range_cell=t.range_cell % ranges)
             for t in scenario.targets])


SCALES = {
    "paper": Scale(
        name="paper", params="paper",
        sim_counts=(32, 16, 112, 16, 28, 16, 16),  # Table 7 case 1
        sim_cpis=25,
        sweep_budgets=(60, 80, 100, 120, 140, 160), sweep_cpis=15,
        stream_cpis=16, rt_warmup_cpis=4,
    ),
    "tiny": Scale(
        name="tiny", params="tiny",
        sim_counts=(3, 2, 2, 2, 2, 2, 2), sim_cpis=5,
        sweep_budgets=(10, 12, 14), sweep_cpis=5,
        stream_cpis=8, rt_warmup_cpis=3,
    ),
}


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def timed_loop(seconds: float, op: Callable[[int], None]) -> int:
    """Run ``op(i)`` until ``seconds`` have passed (at least once)."""
    start = perf_counter()
    count = 0
    while count == 0 or perf_counter() - start < seconds:
        op(count)
        count += 1
    return count


def cpi_digest(report) -> str:
    """Digest of one CPI's detections: cells exactly, powers to 6 digits.

    Rounding keeps the recorded digests valid across BLAS builds whose
    last bits differ; bit identity is checked where both sides run on the
    same host (rt against the serial chain).
    """
    digest = hashlib.sha256()
    for d in sorted(report.detections,
                    key=lambda d: (d.doppler_bin, d.beam, d.range_cell)):
        digest.update(
            f"{d.doppler_bin},{d.beam},{d.range_cell},"
            f"{float(d.power):.6e},{float(d.threshold):.6e};".encode())
    return digest.hexdigest()[:16]


def _e2e(wall: Sequence[float], throughput: Sequence[float],
         cpi_ms: Sequence[float], latency: float) -> Dict[str, float]:
    cpi_tail = tail(cpi_ms)
    return {
        "wall_s": median(wall),
        "throughput_cpis_s": median(throughput),
        "cpi_p50_ms": median(cpi_ms),
        "cpi_tail_ms": cpi_tail.value,
        "latency_s": latency,
        "_cpi_tail": cpi_tail,  # a note, printed beside the metrics
    }


class Workload:
    """Shared state: scale, seed, CPU budget, scratch directory."""

    name = ""

    def __init__(self, scale: Scale, seed: int, cpus: int, workdir: Path,
                 expected: dict):
        self.scale = scale
        self.seed = seed
        self.cpus = cpus
        self.workdir = workdir
        self.expected = expected.get(self.name, {}).get(scale.name)
        if self.expected is None:
            raise BenchError(f"no recorded values for {self.name} at "
                             f"scale {scale.name}")

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tally: Tally) -> Dict[str, float]:
        raise NotImplementedError

    def trace(self, seconds: float, tally: Tally) -> Dict[str, float]:
        raise NotImplementedError


# -- sim-case1 ----------------------------------------------------------------------
class SimCase1(Workload):
    """Table 7 case 1, modeled, on the default simulator engine."""

    name = "sim-case1"

    def setup(self) -> None:
        from repro import STAPPipeline

        self._pipeline_cls = STAPPipeline
        self.params = self.scale.make_params()
        self.assignment = self.scale.sim_assignment()
        start = perf_counter()
        self._build()  # fills the layout and plan caches
        #: The cold constructor call, the part of set-up ``repro.core`` owns.
        self.cold_build_s = perf_counter() - start

    def _build(self, **kwargs):
        return self._pipeline_cls(self.params, self.assignment,
                                  num_cpis=self.scale.sim_cpis, **kwargs)

    def _check(self, op, result) -> None:
        exp = self.expected
        m = result.metrics
        op.expect(m.measured_throughput.hex() == exp["throughput"],
                  f"throughput {m.measured_throughput!r}")
        op.expect(m.measured_latency.hex() == exp["latency"],
                  f"latency {m.measured_latency!r}")
        op.expect(result.network_messages == exp["messages"],
                  f"messages {result.network_messages}")
        op.expect(result.network_bytes == exp["bytes"],
                  f"bytes {result.network_bytes}")

    def _simulate(self, tally: Tally, what: str, **kwargs):
        """One checked simulation: (wall, build seconds, result or None).

        Garbage is collected first, outside the timing: the engine runs
        with the collector off, so a simulation's cyclic garbage would
        otherwise outlive it by a varying number of runs, and with it the
        peak RSS and the next run's collection pauses.
        """
        gc.collect()
        result = None
        with tally.attempt(what) as op:
            start = perf_counter()
            pipeline = self._build(**kwargs)
            built = perf_counter()
            result = pipeline.run()
            wall = perf_counter() - start
            self._check(op, result)
            return wall, built - start, result
        return None, None, result

    def measure(self, seconds: float, tally: Tally) -> Dict[str, float]:
        walls: List[float] = []

        def op(i):
            wall, _, _ = self._simulate(tally, f"simulation {i}")
            if wall is not None:
                walls.append(wall)

        timed_loop(seconds, op)
        cpis = self.scale.sim_cpis
        return _e2e(walls, [cpis / w for w in walls],
                    [w / cpis * 1e3 for w in walls], median(walls))

    def trace(self, seconds: float, tally: Tally) -> Dict[str, float]:
        from repro.des.backends import available_backends, resolve_backend

        untraced, _, _ = self._simulate(tally, "untraced simulation")
        wall, build, result = self._simulate(tally, "traced simulation",
                                             perf=True)
        if wall is None or untraced is None:
            return {}
        perf = read_instrument(result, "perf", "PipelineResult.perf")
        if perf is None:
            raise InstrumentMissing("PipelineResult.perf",
                                    "perf=True returned no PerfReport")
        def field(attr):
            return read_instrument(perf, attr, f"PerfReport.{attr}")

        drain = field("wall_seconds")
        default_plan = field("plan_build_seconds")
        out = {
            "core.build_s": self.cold_build_s,
            "des.drain_s": drain,
            "des.events": field("events_processed"),
            "des.events_per_s": field("events_per_second"),
            "mpi.sends_posted": field("sends_posted"),
            "mpi.match_probes": field("match_probes"),
            "mpi.probes_per_msg": field("probes_per_message"),
            "machine.messages": field("network_messages"),
            "machine.bytes": field("network_bytes"),
            "trace.overhead_ratio": wall / untraced,
            "trace.unattributed_frac":
                (wall - build - default_plan - drain) / wall,
        }
        default = resolve_backend(None)
        for engine in available_backends():
            if engine == default:
                engine_perf = perf
            else:
                _, _, engine_result = self._simulate(
                    tally, f"{engine} engine simulation", perf=True,
                    backend=engine)
                engine_perf = engine_result.perf if engine_result else None
            if engine_perf is None:
                continue
            # The metric list is fixed; an engine outside it (the compiled
            # one, when built) is reported as a note.
            prefix = "" if engine in ("python", "lowered") else "_"
            out[f"{prefix}des.drain_s.{engine}"] = engine_perf.wall_seconds
            if engine == "lowered":
                # The reference engine lowers nothing; the plan-build cost
                # is measured where it is paid.
                out["des.plan_build_s"] = engine_perf.plan_build_seconds
        out.update(self._profile(tally))
        return out

    def _profile(self, tally: Tally) -> Dict[str, float]:
        """cProfile self-time shares of one simulation, by package."""
        profiler = cProfile.Profile()
        gc.collect()
        with tally.attempt("profiled simulation") as op:
            profiler.enable()
            try:
                result = self._build().run()
            finally:
                profiler.disable()
            self._check(op, result)
        stats = pstats.Stats(profiler).stats
        shares = {pkg: 0.0 for pkg in PROFILED_PACKAGES}
        total = other = 0.0
        for (filename, _, _), (_, _, tottime, _, _) in stats.items():
            total += tottime
            package = _repro_package(filename)
            if package in shares:
                shares[package] += tottime
            else:
                other += tottime
        if total <= 0.0:
            raise InstrumentMissing("cProfile", "profile recorded no time")
        out = {f"prof.{pkg}_frac": t / total for pkg, t in shares.items()}
        out["prof.other_frac"] = other / total
        return out


def _repro_package(filename: str) -> str:
    """``des`` for ``.../src/repro/des/engine.py``; '' outside ``repro``."""
    parts = Path(filename).parts
    for i in range(len(parts) - 2):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return parts[i + 2]
    return ""


# -- sweep --------------------------------------------------------------------------
class Sweep(Workload):
    """A measured scalability sweep into a fresh campaign, then its resume."""

    name = "sweep"

    def setup(self) -> None:
        from repro.experiments import sweeps

        self.sweeps = sweeps
        self.params = self.scale.make_params()
        # Runs the optimizer once (cheap), importing everything it needs.
        self.sweeps.scalability_points(
            self.scale.sweep_budgets, num_cpis=self.scale.sweep_cpis,
            params=self.params)
        self._runs = 0

    def _curve(self, directory: Path, progress=None):
        return self.sweeps.scalability_curve(
            self.scale.sweep_budgets, num_cpis=self.scale.sweep_cpis,
            params=self.params, measured=True, jobs=self.cpus,
            campaign_dir=directory, progress=progress)

    def _check(self, op, points, reference=None) -> None:
        exp = self.expected
        got = [{"budget": p.budget, "counts": list(p.assignment.counts()),
                "throughput": p.throughput.hex(), "latency": p.latency.hex()}
               for p in points]
        op.expect(got == exp, f"points {got} differ from the recorded ones")
        if reference is not None:
            op.expect(points == reference, "resumed points differ from cold")

    def _cold_and_resume(self, tally: Tally, label: str):
        """(cold wall, per-point seconds, resume wall); walls are None
        when that call failed."""
        directory = self.workdir / f"campaign-{self._runs}"
        self._runs += 1
        shutil.rmtree(directory, ignore_errors=True)
        n = len(self.scale.sweep_budgets)
        elapsed: List[float] = []
        cold = resume = None
        points = None
        with tally.attempt(f"{label} cold sweep", count=n) as op:
            start = perf_counter()
            points = self._curve(
                directory, progress=lambda done, total, o:
                elapsed.append(o.elapsed))
            cold = perf_counter() - start
            self._check(op, points)
        with tally.attempt(f"{label} resumed sweep", count=n) as op:
            start = perf_counter()
            resumed = self._curve(directory)
            resume = perf_counter() - start
            self._check(op, resumed, reference=points)
        shutil.rmtree(directory, ignore_errors=True)
        return cold, elapsed, resume

    def measure(self, seconds: float, tally: Tally) -> Dict[str, float]:
        walls: List[float] = []
        point_s: List[float] = []

        def op(i):
            cold, elapsed, _ = self._cold_and_resume(tally, f"sweep {i}")
            if cold is not None:
                walls.append(cold)
                point_s.extend(elapsed)

        timed_loop(seconds, op)
        cpis = len(self.scale.sweep_budgets) * self.scale.sweep_cpis
        return _e2e(walls, [cpis / w for w in walls],
                    [s / self.scale.sweep_cpis * 1e3 for s in point_s],
                    median(point_s))

    def trace(self, seconds: float, tally: Tally) -> Dict[str, float]:
        from repro.obs.metrics import metrics_registry
        from repro.perf import exec_counters

        untraced, _, _ = self._cold_and_resume(tally, "untraced")
        timers = {"scalability_points": 0.0, "run_points": 0.0}
        originals = {name: getattr(self.sweeps, name) for name in timers}

        def timing(name):
            inner = originals[name]

            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return inner(*args, **kwargs)
                finally:
                    timers[name] += perf_counter() - start
            return wrapper

        counters = exec_counters.snapshot()
        for name in timers:
            setattr(self.sweeps, name, timing(name))
        metrics_registry.enable(reset=True)
        directory = self.workdir / "campaign-traced"
        shutil.rmtree(directory, ignore_errors=True)
        elapsed: List[float] = []
        n = len(self.scale.sweep_budgets)
        wall = resume = None
        try:
            with tally.attempt("traced cold sweep", count=n) as op:
                start = perf_counter()
                points = self._curve(
                    directory, progress=lambda done, total, o:
                    elapsed.append(o.elapsed))
                wall = perf_counter() - start
                self._check(op, points)
            cold_timers = dict(timers)
            snapshot = metrics_registry.snapshot()
            cold = exec_counters.delta_since(counters)
            before_resume = exec_counters.snapshot()
            with tally.attempt("traced resumed sweep", count=n) as op:
                start = perf_counter()
                resumed = self._curve(directory)
                resume = perf_counter() - start
                self._check(op, resumed, reference=points)
            warm = exec_counters.delta_since(before_resume)
        finally:
            metrics_registry.disable()
            for name, inner in originals.items():
                setattr(self.sweeps, name, inner)
            shutil.rmtree(directory, ignore_errors=True)
        if None in (untraced, wall, resume):
            return {}

        def hits(delta):
            return delta["cache_hits_memory"] + delta["cache_hits_disk"]

        def total(series_name):
            values = [entry["value"] for entry in
                      snapshot.to_dict()["counters"].values()
                      if entry["name"] == series_name]
            if not values:
                raise InstrumentMissing(series_name,
                                        "no worker snapshot carried it")
            return sum(values)

        sends = total("mpi_sends_total")
        recvs = total("mpi_recvs_total")
        probes = total("mpi_match_probes_total")
        return {
            "scheduling.optimize_s": cold_timers["scalability_points"],
            "exec.run_s": cold_timers["run_points"],
            "exec.sims_run": cold["simulations_run"],
            "exec.cache_hits": hits(cold) + hits(warm),
            "exec.cache_misses": cold["cache_misses"] + warm["cache_misses"],
            "exec.pool_util": sum(elapsed) / (wall * self.cpus),
            "exec.resume_s": resume,
            "exec.resume_hit_frac": hits(warm) / warm["points_submitted"],
            "des.events": total("des_events_total"),
            "mpi.sends_posted": sends,
            "mpi.match_probes": probes,
            "mpi.probes_per_msg": probes / (sends + recvs),
            "machine.messages": total("net_messages_total"),
            "machine.bytes": total("net_bytes_total"),
            "trace.overhead_ratio": wall / untraced,
            "trace.unattributed_frac":
                (wall - sum(cold_timers.values())) / wall,
        }


# -- detect and rt: the functional chain on one seeded stream ----------------------
class _Stream(Workload):
    def _stream_setup(self) -> None:
        from repro import CPIStream, SequentialSTAP
        from repro.stap.plan import default_plan

        self.params = self.scale.make_params()
        self.scenario = self.scale.make_scenario(self.seed % SCENARIO_SEEDS)
        self.kernel_plan = default_plan(self.params)
        self._stream_cls = CPIStream
        self._serial_cls = SequentialSTAP
        self.digests = self.expected[str(self.seed % SCENARIO_SEEDS)]

    def stream(self):
        return self._stream_cls(self.params, self.scenario)

    def serial_pass(self, tally: Tally, label: str, on_cpi=None):
        """One checked serial pass: (reports, per-CPI seconds, wall).

        ``on_cpi(cube_seconds, process_seconds)`` sees each CPI's split.
        """
        stream = self.stream()
        stap = self._serial_cls(self.params, plan=self.kernel_plan)
        reports, samples = [], []
        start = perf_counter()
        for i in range(self.scale.stream_cpis):
            with tally.attempt(f"{label} CPI {i}") as op:
                t0 = perf_counter()
                cube = stream.cube(i)
                t1 = perf_counter()
                report = stap.process(cube)
                t2 = perf_counter()
                samples.append(t2 - t0)
                reports.append(report)
                if on_cpi is not None:
                    on_cpi(t1 - t0, t2 - t1)
                digest = cpi_digest(report)
                op.expect(digest == self.digests[i],
                          f"detection digest {digest} != recorded "
                          f"{self.digests[i]}")
        return reports, samples, perf_counter() - start


class Detect(_Stream):
    """The sequential chain over a seeded paper-scale stream."""

    name = "detect"

    def setup(self) -> None:
        self._stream_setup()
        stap = self._serial_cls(self.params, plan=self.kernel_plan)
        stap.process(self.stream().cube(0))  # warms FFT and LAPACK paths

    def measure(self, seconds: float, tally: Tally) -> Dict[str, float]:
        passes: List[float] = []
        samples: List[float] = []

        def op(i):
            _, cpi_s, _ = self.serial_pass(tally, f"pass {i}")
            samples.extend(cpi_s)
            passes.append(sum(cpi_s))

        timed_loop(seconds, op)
        n = len(samples)
        return _e2e(passes, [n / sum(samples)],
                    [s * 1e3 for s in samples], sum(samples) / n)

    def trace(self, seconds: float, tally: Tally) -> Dict[str, float]:
        """Alternate untraced and traced passes for ``seconds``."""
        from repro.perf import kernel_counters

        plain: List[float] = []
        traced: List[float] = []
        cube_s: List[float] = []
        process_s: List[float] = []
        kernel_s = {k: 0.0 for k in KERNELS}
        kernel_flops = {k: 0.0 for k in KERNELS}

        def pair(i):
            plain.append(self.serial_pass(tally, f"untraced pass {i}")[2])
            with kernel_counters.collect():
                _, _, wall = self.serial_pass(
                    tally, f"traced pass {i}",
                    on_cpi=lambda c, p: (cube_s.append(c),
                                         process_s.append(p)))
                stats = dict(kernel_counters.stats())
            missing = [k for k in KERNELS if k not in stats]
            if missing:
                raise InstrumentMissing(
                    "repro.perf.kernel_counters",
                    f"no timings for kernels {missing} after a traced pass")
            traced.append(wall)
            for k in KERNELS:
                kernel_s[k] += stats[k].seconds
                kernel_flops[k] += stats[k].flops

        timed_loop(seconds, pair)
        n = len(process_s)
        out = {
            "radar.cube_ms": sum(cube_s) / n * 1e3,
            "stap.process_ms": sum(process_s) / n * 1e3,
        }
        for k in KERNELS:
            out[f"stap.{k}_ms"] = kernel_s[k] / n * 1e3
            out[f"stap.{k}_gflops"] = kernel_flops[k] / kernel_s[k] / 1e9
        in_kernels = sum(kernel_s.values())
        out["stap.outside_kernels_ms"] = (sum(process_s) - in_kernels) / n * 1e3
        out["trace.overhead_ratio"] = median(traced) / median(plain)
        out["trace.unattributed_frac"] = (
            (sum(traced) - sum(cube_s) - in_kernels) / sum(traced))
        return out


class Rt(_Stream):
    """The same stream through the process-parallel runtime."""

    name = "rt"

    def setup(self) -> None:
        self._stream_setup()
        from repro import ParallelSTAP

        self._rt_cls = ParallelSTAP
        self._rt_run(self.scale.rt_warmup_cpis)  # first run forks slower

    def _rt_run(self, num_cpis: int):
        runtime = self._rt_cls(self.params, self.stream(), num_cpis=num_cpis,
                               workers=self.cpus, kernel_plan=self.kernel_plan)
        return runtime.run(timeout=RT_TIMEOUT_S)

    def _timed_run(self, tally: Tally, label: str, runs: list):
        with tally.attempt(label):
            start = perf_counter()
            result = self._rt_run(self.scale.stream_cpis)
            runs.append((perf_counter() - start, result))

    def _check_runs(self, tally: Tally, runs, label: str) -> list:
        """Compare every run's detections with the serial chain's, bit for
        bit, outside the timed region.  Returns the serial per-CPI seconds.

        The serial pass's own CPIs are operations too (checked against the
        recorded digests); a mismatching rt run counts as one failure.
        """
        serial, samples, _ = self.serial_pass(tally, f"{label} serial check")
        expected = [r.detections for r in serial]
        for i, (_, result) in enumerate(runs):
            got = [r.detections for r in result.reports]
            if got != expected:
                tally.fail_counted(f"{label} rt run {i}",
                                   "detections differ from the serial chain")
        return samples

    def measure(self, seconds: float, tally: Tally) -> Dict[str, float]:
        from repro.core.metrics import steady_state_slice

        runs: list = []
        timed_loop(seconds, lambda i: self._timed_run(tally, f"rt run {i}",
                                                      runs))
        self._check_runs(tally, runs, "measure")
        lo, hi = steady_state_slice(self.scale.stream_cpis)
        gaps = []
        for _, result in runs:
            done = [r.completed_at for r in result.reports[lo:hi]]
            gaps.extend(b - a for a, b in zip(done, done[1:]))
        return _e2e([wall for wall, _ in runs],
                    [r.steady_throughput for _, r in runs],
                    [g * 1e3 for g in gaps],
                    median([r.latency for _, r in runs]))

    def trace(self, seconds: float, tally: Tally) -> Dict[str, float]:
        """Alternate untraced and metered runs for ``seconds``."""
        from repro.core.assignment import TASK_NAMES
        from repro.obs.metrics import metrics_registry

        plain: list = []
        metered: list = []

        def pair(i):
            self._timed_run(tally, f"untraced rt run {i}", plain)
            metrics_registry.enable(reset=True)
            try:
                self._timed_run(tally, f"metered rt run {i}", metered)
            finally:
                metrics_registry.disable()

        timed_loop(seconds, pair)
        serial_s = self._check_runs(tally, plain + metered, "trace")
        if not plain or not metered:
            return {}
        out = {}
        covered = 0.0
        for wall, result in metered:
            snapshot = read_instrument(result, "metrics", "RtResult.metrics")
            if snapshot is None:
                raise InstrumentMissing("RtResult.metrics",
                                        "a metered run returned no snapshot")
            for stage in TASK_NAMES:
                for key, series in (
                        ("comp_s", "rt_comp_seconds"),
                        ("wait_s", "rt_queue_wait_seconds"),
                        ("backpressure_s", "rt_backpressure_seconds")):
                    hist = snapshot.histogram(series, {"stage": stage})
                    if hist is None:
                        raise InstrumentMissing(f"{series}{{stage={stage}}}")
                    name = f"rt.{stage}.{key}"
                    out[name] = out.get(name, 0.0) + hist["sum"] / len(metered)
                    covered += hist["sum"]
        workers = metered[0][1].workers
        walls = [wall for wall, _ in metered]
        serial_tp = len(serial_s) / sum(serial_s)
        out.update({
            "rt.first_report_s":
                median([r.reports[0].completed_at for _, r in metered]),
            "rt.workers": workers,
            "rt.speedup_vs_serial":
                median([r.steady_throughput for _, r in plain]) / serial_tp,
            "trace.overhead_ratio":
                median(walls) / median([wall for wall, _ in plain]),
            "trace.unattributed_frac": 1.0 - covered / (workers * sum(walls)),
        })
        return out


WORKLOADS = {cls.name: cls for cls in (SimCase1, Sweep, Detect, Rt)}
