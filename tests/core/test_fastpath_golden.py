"""Determinism regression against golden outputs captured from the seed.

The simulation fast path (indexed MPI matching, callback-driven network
transfers, pooled timeouts, plan caching) is required to change *nothing*
about the simulated behaviour: not one timestamp, not one detection.
``tests/data/golden_fastpath.json`` was captured from the implementation
*before* any of those optimizations landed; these tests replay the same
two configurations and compare against it with ``repr``-exact floats, on
every engine in :data:`~repro.des.backends.BACKEND_NAMES` — the default
``lowered`` one and the ``python`` reference oracle alike.

If an intentional semantic change ever invalidates the golden file,
recapture it with the snippet in the JSON's ``_meta`` notes — but treat
any diff here as a bug until proven otherwise: the entire value of the
fast path rests on bit-identical results.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import (
    Assignment,
    CPIStream,
    RadarScenario,
    STAPParams,
    STAPPipeline,
    TargetTruth,
)
from repro.core.assignment import CASE3
from repro.des.backends import BACKEND_NAMES

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_fastpath.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _timing_rows(result) -> list[list]:
    """Every (task, cpi, rank) timing as repr-exact strings, sorted."""
    rows = []
    for task, timings in sorted(result.collector.timings.items()):
        for t in timings:
            rows.append(
                [task, t.cpi_index, t.rank, repr(t.t0), repr(t.t1), repr(t.t2), repr(t.t3)]
            )
    rows.sort()
    return rows


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_functional_run_bit_identical(golden, backend):
    """Tiny functional run: detections, reports and timings match the seed."""
    scenario = RadarScenario(
        clutter_to_noise_db=40.0,
        targets=(
            TargetTruth(
                range_cell=20, normalized_doppler=0.25, angle_deg=0.0, snr_db=5.0
            ),
            TargetTruth(
                range_cell=30, normalized_doppler=0.05, angle_deg=-10.0, snr_db=10.0
            ),
        ),
        seed=11,
    )
    params = STAPParams.tiny()
    result = STAPPipeline(
        params,
        Assignment(3, 2, 2, 2, 2, 2, 2, name="golden"),
        mode="functional",
        stream=CPIStream(params, scenario),
        num_cpis=5,
        perf=True,
        backend=backend,
    ).run()
    assert result.perf.backend == backend

    expected = golden["functional"]
    assert repr(result.makespan) == expected["makespan"]
    got_reports = [
        {
            "cpi": r.cpi_index,
            "completed_at": repr(r.completed_at),
            "detections": [
                list(map(repr, d)) if isinstance(d, tuple) else repr(d)
                for d in r.detections
            ],
        }
        for r in result.reports
    ]
    assert got_reports == expected["reports"]
    assert _timing_rows(result) == [list(row) for row in expected["timings"]]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_modeled_case3_bit_identical(golden, backend):
    """Paper-scale modeled run (case 3, 5 CPIs): every timestamp matches."""
    result = STAPPipeline(
        STAPParams.paper(), CASE3, num_cpis=5, perf=True, backend=backend
    ).run()
    assert result.perf.backend == backend

    expected = golden["modeled_case3"]
    assert repr(result.makespan) == expected["makespan"]
    assert result.network_messages == expected["network_messages"]
    assert result.network_bytes == expected["network_bytes"]
    assert _timing_rows(result) == [list(row) for row in expected["timings"]]
