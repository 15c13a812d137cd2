"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, run, workloads
from perfbench.harness import InstrumentMissing, NoSamples, Tally, tail

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = ROOT / "perfbench" / "run.py"
SPEC = harness.load_spec()


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- tail percentile --------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(50, 0, -1))  # 50 samples, unsorted
    t = tail(values)
    assert t.value == 40
    assert t.percentile == pytest.approx(80.0)
    assert (t.samples, t.beyond) == (50, 10)
    assert sum(v > t.value for v in values) == 10


def test_tail_at_smallest_sample_count_lies_above_median():
    t = tail(list(range(21)))
    assert t.value == 10 and t.beyond == 10
    assert t.percentile == pytest.approx(100 * 11 / 21)


def test_tail_of_few_samples_is_the_maximum():
    t = tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.samples, t.beyond) == (3.0, 100.0, 3, 0)
    t = tail(list(range(20)))
    assert (t.value, t.percentile, t.beyond) == (19, 100.0, 0)


def test_tail_of_nothing_raises():
    with pytest.raises(NoSamples):
        tail([])


# -- accounting -------------------------------------------------------------------
def test_tally_counts_errors_and_mismatches_once_per_operation():
    tally = Tally()
    with tally.attempt("ok"):
        pass
    with tally.attempt("raises"):
        raise ValueError("boom")
    with tally.attempt("mismatch", count=3) as op:
        op.expect(False, "first")
        op.expect(False, "second")
    assert (tally.attempted, tally.failed) == (5, 4)
    assert tally.failed_frac == pytest.approx(0.8)
    assert any("boom" in p for p in tally.problems)


def test_tally_lets_missing_instruments_through():
    with pytest.raises(InstrumentMissing):
        with Tally().attempt("traced"):
            raise InstrumentMissing("x")


# -- BENCHMARK.json ---------------------------------------------------------------
def test_metric_and_workload_names_are_valid():
    assert harness.check_names(SPEC) == []
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_check_names_rejects_bad_and_repeated_names():
    spec = {"workloads": [{"name": "a"}],
            "end_to_end": [{"name": "a", "unit": "s"},
                           {"name": "-bad", "unit": "s"},
                           {"name": "ok", "unit": "m s"}],
            "per_layer": []}
    problems = harness.check_names(spec)
    assert any("used twice" in p for p in problems)
    assert any("bad name '-bad'" in p for p in problems)
    assert any("bad unit 'm s'" in p for p in problems)


def test_package_metrics_requires_exactly_the_schema_names():
    units = {"a_s": "s"}
    with pytest.raises(harness.BenchError):
        harness.package_metrics({"a_s": 1.0, "b_s": 2.0}, units, Tally())
    with pytest.raises(harness.BenchError):
        harness.package_metrics({}, units, Tally())
    tally = Tally()
    out = harness.package_metrics({"a_s": float("nan")}, units, tally)
    assert out == {"a_s": {"value": 0.0, "unit": "s"}}
    assert tally.failed == 1


# -- failures reach the result and the exit code ---------------------------------
def test_wrong_digest_counts_as_failure_and_exit_is_nonzero(monkeypatch,
                                                           capsys):
    expected = workloads.load_expected()
    seed = 5
    digests = expected["detect"]["tiny"][str(seed)]
    digests[2] = "0" * 16
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    code = run.main(["--workload", "detect", "--seed", str(seed),
                     "--seconds", "0.01", "--scale", "tiny"])
    result = _result(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] >= result["failed"]


def test_missing_instrument_is_a_named_error(monkeypatch, tmp_path):
    from repro.perf import kernel_counters

    detect = workloads.Detect(workloads.SCALES["tiny"], 0, 1, tmp_path,
                              workloads.load_expected())
    detect.setup()
    monkeypatch.setattr(kernel_counters, "stats", lambda: {})
    with pytest.raises(InstrumentMissing, match="kernel_counters"):
        detect.trace(0.01, Tally())


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "program is missing" in proc.stderr


_LEAVE_NO_CHILD = """
import os, sys
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
from perfbench import harness
shm = shared_memory.SharedMemory(create=True, size=64)
shm.close()
shm.unlink()
tracker = resource_tracker._resource_tracker._pid
harness.stop_child_processes()
assert harness._child_pids() == [], harness._child_pids()
try:
    os.kill(tracker, 0)
except ProcessLookupError:
    print("stopped")
"""


def test_shared_memory_tracker_is_stopped_and_reaped():
    proc = subprocess.run([sys.executable, "-c", _LEAVE_NO_CHILD, str(ROOT)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "stopped"


# -- every workload end to end at tiny size ----------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])
