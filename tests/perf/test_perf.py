"""The repro.perf package: counters, reports, profiling harness."""

from __future__ import annotations

import pytest

from repro import Assignment, CPIStream, RadarScenario, STAPParams, STAPPipeline
from repro.des import Simulator
from repro.des.backends import BACKEND_NAMES
from repro.machine import afrl_paragon
from repro.mpi import World
from repro.obs.metrics import metrics_registry, series_name
from repro.perf import PerfReport, kernel_counters, profile_run

TINY_ASSIGNMENT = Assignment(3, 2, 2, 2, 2, 2, 2, name="perf-test")


def run_tiny(perf: bool):
    return STAPPipeline(
        STAPParams.tiny(), TINY_ASSIGNMENT, num_cpis=3, perf=perf
    ).run()


class TestCounters:
    def test_simulator_counts_processed_events(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)

        sim.process(proc())
        sim.run()
        # Start event + two timeouts at minimum; exact count is an engine
        # detail, monotonicity and non-zero are the contract.
        assert sim.events_processed >= 3

    def test_world_counts_operations_and_probes(self):
        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=2, contention="none")

        def sender(ctx):
            yield ctx.isend(b"x", dest=1, tag=7, nbytes=64)

        def receiver(ctx):
            yield ctx.irecv(source=0, tag=7)

        world.spawn(0, sender)
        world.spawn(1, receiver)
        sim.run()
        assert world.sends_posted == 1
        assert world.recvs_posted == 1
        # Indexed matching: at most one probe per side of the match.
        assert 0 <= world.match_probes <= 2

class TestPerfReport:
    def test_derived_rates(self):
        report = PerfReport(
            wall_seconds=2.0,
            sim_seconds=10.0,
            num_cpis=4,
            events_processed=1000,
            match_probes=30,
            sends_posted=10,
            recvs_posted=10,
            network_messages=10,
            network_bytes=1 << 20,
        )
        assert report.events_per_second == pytest.approx(500.0)
        assert report.probes_per_message == pytest.approx(1.5)
        assert report.wall_seconds_per_cpi == pytest.approx(0.5)

    def test_zero_denominators_do_not_raise(self):
        report = PerfReport(
            wall_seconds=0.0, sim_seconds=0.0, num_cpis=0, events_processed=0
        )
        assert report.events_per_second == 0.0
        assert report.probes_per_message == 0.0
        assert report.wall_seconds_per_cpi == 0.0

    def test_to_dict_and_summary(self):
        report = PerfReport(
            wall_seconds=1.0,
            sim_seconds=2.0,
            num_cpis=5,
            events_processed=100,
            sends_posted=4,
            recvs_posted=4,
            match_probes=4,
            network_messages=4,
            network_bytes=4096,
            label="unit",
        )
        data = report.to_dict()
        assert data["label"] == "unit"
        assert data["events_per_second"] == pytest.approx(100.0)
        text = report.summary()
        assert "events/s" in text
        assert "probes/op" in text

    def test_summary_prints_zero_counters(self):
        report = PerfReport(
            wall_seconds=1.0, sim_seconds=2.0, num_cpis=5, events_processed=100
        )
        text = report.summary()
        assert "p2p ops posted" in text
        assert "network messages" in text

class TestExecCounters:
    def test_inc_is_thread_safe(self):
        """Concurrent inc() calls must not drop increments."""
        import threading

        from repro.perf.counters import ExecCounters

        counters = ExecCounters()
        per_thread, num_threads = 2000, 8

        def hammer():
            for _ in range(per_thread):
                counters.inc("points_submitted")

        threads = [threading.Thread(target=hammer) for _ in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counters.points_submitted == per_thread * num_threads

    def test_snapshot_reset_and_delta(self):
        from repro.perf.counters import ExecCounters

        counters = ExecCounters()
        counters.inc("cache_corrupt", 3)
        counters.inc("progress_errors")
        snap = counters.snapshot()
        assert snap["cache_corrupt"] == 3
        assert snap["progress_errors"] == 1
        # The lock is an implementation detail, not a counter.
        assert "_lock" not in snap and "_names" not in snap
        counters.inc("cache_corrupt", 2)
        assert counters.delta_since(snap)["cache_corrupt"] == 2
        counters.reset()
        assert all(v == 0 for v in counters.snapshot().values())


class TestPipelineWiring:
    def test_perf_off_by_default(self):
        result = run_tiny(perf=False)
        assert result.perf is None

    def test_perf_report_attached_and_consistent(self):
        result = run_tiny(perf=True)
        perf = result.perf
        assert perf is not None
        assert perf.wall_seconds > 0.0
        assert perf.sim_seconds == pytest.approx(result.makespan)
        assert perf.num_cpis == 3
        assert perf.events_processed > 0
        assert perf.sends_posted == perf.recvs_posted > 0
        assert perf.network_messages == result.network_messages
        assert perf.network_bytes == result.network_bytes
        # The indexed matcher's target: ~1 probe per posted operation.
        assert perf.probes_per_message < 2.0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_perf_counters_match_registry(self, backend):
        """The perf report and the kernel view read the one registry."""
        params = STAPParams.tiny()
        metrics_registry.enable(reset=True)
        try:
            result = STAPPipeline(
                params, TINY_ASSIGNMENT, mode="functional",
                stream=CPIStream(params, RadarScenario(seed=3)),
                num_cpis=3, perf=True, backend=backend,
            ).run()
            snap = metrics_registry.snapshot()
            kernels = kernel_counters.stats()
        finally:
            metrics_registry.disable()
            metrics_registry.reset()
        perf = result.perf
        assert perf.backend == backend
        engine = {"backend": backend}
        assert perf.events_processed == snap.value("des_events_total", engine) > 0
        assert perf.plan_build_seconds == snap.value(
            "des_plan_build_seconds_total", engine)
        for field, series in (
            ("match_probes", "mpi_match_probes_total"),
            ("sends_posted", "mpi_sends_total"),
            ("recvs_posted", "mpi_recvs_total"),
            ("network_messages", "net_messages_total"),
            ("network_bytes", "net_bytes_total"),
        ):
            assert getattr(perf, field) == snap.value(series), field
            assert type(getattr(perf, field)) is int, field
        assert perf.network_bytes == result.network_bytes > 0
        kernel_series = {
            name: entry["value"]
            for name, entry in snap.data["counters"].items()
            if name.startswith("stap_kernel_")
        }
        assert kernels and len(kernel_series) == 3 * len(kernels)
        for kernel, stats in kernels.items():
            labels = {"kernel": kernel}
            assert stats.calls == kernel_series[
                series_name("stap_kernel_calls_total", labels)] > 0
            assert stats.seconds == kernel_series[
                series_name("stap_kernel_seconds_total", labels)]
            assert stats.flops == kernel_series[
                series_name("stap_kernel_flops_total", labels)]

    def test_perf_run_results_identical_to_plain_run(self):
        """Instrumentation must not perturb the simulation."""
        plain = run_tiny(perf=False)
        instrumented = run_tiny(perf=True)
        assert repr(plain.makespan) == repr(instrumented.makespan)
        assert plain.network_messages == instrumented.network_messages


class TestProfileRun:
    def test_returns_result_and_stats(self):
        result, stats = profile_run(run_tiny, False, limit=5)
        assert result.perf is None
        assert result.makespan > 0.0
        assert "function calls" in stats

    def test_propagates_exceptions(self):
        def boom():
            raise ValueError("no")

        with pytest.raises(ValueError):
            profile_run(boom)
