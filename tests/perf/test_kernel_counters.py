"""Kernel counters: the per-kernel view of the registry's stap_kernel_* series."""

import pytest

from repro.obs.metrics import metrics_registry, record_kernel
from repro.perf import achieved_vs_table1, kernel_counters
from repro.radar import CPIStream, RadarScenario, STAPParams
from repro.stap.doppler import doppler_filter
from repro.stap.flops import PAPER_TABLE1, doppler_flops
from repro.stap.reference import SequentialSTAP


def cubes(params, count):
    return CPIStream(params, RadarScenario(seed=7)).take(count)


@pytest.fixture(autouse=True)
def restore_singleton():
    yield
    metrics_registry.disable()
    metrics_registry.reset()


class TestCounterMechanics:
    def test_disabled_by_default_records_nothing(self):
        params = STAPParams.tiny()
        assert not metrics_registry.enabled
        doppler_filter(cubes(params, 1)[0])
        assert kernel_counters.stats() == {}

    def test_record_accumulates(self):
        with kernel_counters.collect():
            record_kernel("doppler", 0.5, 100.0)
            record_kernel("doppler", 0.5, 300.0)
        stats = kernel_counters.stats()["doppler"]
        assert stats.calls == 2
        assert stats.seconds == pytest.approx(1.0)
        assert stats.flops == pytest.approx(400.0)
        assert stats.flops_per_second == pytest.approx(400.0)

    def test_collect_restores_prior_state(self):
        with kernel_counters.collect():
            assert metrics_registry.enabled
            record_kernel("cfar", 1.0, 10.0)
        assert not metrics_registry.enabled
        # Stats survive past the block for post-hoc reporting.
        assert kernel_counters.stats()["cfar"].flops == pytest.approx(10.0)

    def test_collect_nested_keeps_outer_enabled(self):
        metrics_registry.enable()
        with kernel_counters.collect():
            pass
        assert metrics_registry.enabled

    def test_summary_lists_kernels(self):
        with kernel_counters.collect():
            record_kernel("doppler", 0.25, 1e6)
        text = kernel_counters.summary()
        assert "doppler" in text
        assert "total" in text


class TestInstrumentedKernels:
    def test_reference_run_populates_all_kernels(self):
        params = STAPParams.tiny()
        ref = SequentialSTAP(params)
        with kernel_counters.collect():
            for cube in cubes(params, 2):
                ref.process(cube)
        stats = kernel_counters.stats()
        for kernel in ("doppler", "easy_weight", "hard_weight",
                       "easy_beamform", "hard_beamform", "pulse_compression",
                       "cfar"):
            assert kernel in stats, f"kernel {kernel!r} never recorded"
            assert stats[kernel].seconds > 0.0
            assert stats[kernel].flops > 0.0

    def test_doppler_flops_credit_matches_table(self):
        params = STAPParams.tiny()
        ref = SequentialSTAP(params)
        with kernel_counters.collect():
            ref.process(cubes(params, 1)[0])
        stats = kernel_counters.stats()
        # One full CPI: the doppler kernel is credited exactly the analytic
        # per-CPI count (all range rows processed once).
        assert stats["doppler"].flops == pytest.approx(doppler_flops(params))

    def test_disabled_run_records_nothing(self):
        params = STAPParams.tiny()
        metrics_registry.reset()
        SequentialSTAP(params).process(cubes(params, 1)[0])
        assert kernel_counters.stats() == {}


class TestAchievedVsTable1:
    def test_paper_fraction_fields(self):
        params = STAPParams.tiny()
        ref = SequentialSTAP(params)
        with kernel_counters.collect():
            for cube in cubes(params, 3):
                ref.process(cube)
        table = achieved_vs_table1(kernel_counters, num_cpis=3)
        for kernel, row in table.items():
            assert row["calls"] >= 1
            assert row["flops_per_second"] > 0.0
            if kernel in PAPER_TABLE1:
                assert row["paper_flops_per_cpi"] == PAPER_TABLE1[kernel]
                assert row["paper_fraction"] == pytest.approx(
                    row["flops"] / (3 * PAPER_TABLE1[kernel])
                )

    def test_uses_singleton_by_default(self):
        with kernel_counters.collect():
            record_kernel("doppler", 1.0, 2e6)
        table = achieved_vs_table1(num_cpis=1)
        assert table["doppler"]["flops"] == pytest.approx(2e6)
