"""Runtime observability: worker metrics merge into the campaign registry.

Workers run in separate processes, so their metric increments cannot land
in the parent's registry directly; each worker snapshots its own (forked)
registry and ships it home in its final message.  After a metered run the
merged totals must look exactly as if one process had recorded every
stage — per-stage item counts equal to the CPI count, wait/backpressure
histograms present, and the run-level rollups flushed by the parent.
"""

import pytest

from repro import CPIStream, ParallelSTAP
from repro.obs.metrics import metrics_registry, series_name
from tests.core.test_golden_functional import golden_scenario

pytestmark = [pytest.mark.rt, pytest.mark.metrics]

NUM_CPIS = 4


@pytest.fixture
def metered_registry():
    metrics_registry.enable(reset=True)
    try:
        yield metrics_registry
    finally:
        metrics_registry.disable()


@pytest.fixture
def metered_result(tiny_params, metered_registry):
    stream = CPIStream(tiny_params, golden_scenario())
    rt = ParallelSTAP(tiny_params, stream, num_cpis=NUM_CPIS)
    return rt.run(timeout=120.0), metered_registry.snapshot().to_dict()


def test_result_carries_a_merged_snapshot(metered_result):
    result, _ = metered_result
    assert result.metrics is not None
    counters = result.metrics.to_dict()["counters"]
    for stage in ("doppler", "cfar", "easy_weight", "pulse_compression"):
        series = series_name("rt_items_total", {"stage": stage})
        assert counters[series]["value"] == NUM_CPIS, series


def test_every_stage_counts_its_quota(metered_result):
    """Summed across replicas, every stage processed every CPI once."""
    from repro.core.assignment import TASK_NAMES

    _, snapshot = metered_result
    counters = snapshot["counters"]
    for stage in TASK_NAMES:
        series = series_name("rt_items_total", {"stage": stage})
        assert counters[series]["value"] == NUM_CPIS, series


def test_wait_histograms_present_per_stage(metered_result):
    """Every consuming stage recorded queue waits; every producing stage
    recorded backpressure (possibly all-zero, but the series exists)."""
    _, snapshot = metered_result
    histograms = snapshot["histograms"]
    # cfar consumes (waits); doppler produces (feels backpressure).
    assert series_name("rt_queue_wait_seconds", {"stage": "cfar"}) in histograms
    assert (series_name("rt_backpressure_seconds", {"stage": "doppler"})
            in histograms)
    comp = histograms[series_name("rt_comp_seconds", {"stage": "doppler"})]
    assert comp["count"] == NUM_CPIS


def test_parent_flushes_run_rollups(metered_result):
    _, snapshot = metered_result
    counters = snapshot["counters"]
    assert counters[series_name("rt_runs_total")]["value"] == 1
    assert counters[series_name("rt_reports_total")]["value"] == NUM_CPIS
    gauges = snapshot["gauges"]
    assert gauges[series_name("rt_workers")]["value"] >= 7
    assert (series_name("rt_throughput_cpis_per_second")
            in snapshot["histograms"])


def test_unmetered_run_records_nothing(tiny_params):
    """Default-off discipline: with the registry disabled the run must not
    allocate a snapshot or pay for timing."""
    assert not metrics_registry.enabled
    stream = CPIStream(tiny_params, golden_scenario())
    result = ParallelSTAP(tiny_params, stream, num_cpis=2).run(timeout=120.0)
    assert result.metrics is None


def test_worker_kernels_record_into_the_merged_snapshot(metered_result):
    """Kernels in stage workers record through the same registry path as a
    serial chain, so the merged snapshot times all seven of them."""
    from repro.core.assignment import TASK_NAMES

    _, snapshot = metered_result
    counters = snapshot["counters"]
    for kernel in TASK_NAMES:
        series = series_name("stap_kernel_seconds_total", {"kernel": kernel})
        assert counters[series]["value"] > 0, series
