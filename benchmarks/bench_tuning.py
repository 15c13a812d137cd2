"""Pareto auto-tuner vs the paper's equations-(1)-(3) assignments.

Section 4.1.2 assigns processors by closed-form analysis and Table 7
evaluates one hand-picked assignment per budget.  This benchmark runs the
simulation-in-the-loop tuner (:mod:`repro.scheduling.tuner`) at the
paper's three budgets and records:

* **paragon** — on the homogeneous AFRL Paragon, the tuned Pareto front
  per Table 7 budget (236 / 118 / 59 nodes), with the paper's case
  simulated at the same CPI count and validated to sit *on or behind*
  the front (``covers``), plus the tuned best-throughput point next to
  the equations' greedy pick;
* **heterogeneous** — the same search on two machine scenarios the
  closed forms cannot see (``legacy_front``: the first 16 nodes at
  0.25x; ``gpu_nodes``: the first 32 at 8x), recording
  ``tuned_vs_equations_speedup`` — the acceptance bar is >= 1.10x on at
  least one scenario.

Every simulation flows through the shared result store
(:func:`benchmarks.common.bench_store` semantics apply: set
``$REPRO_CAMPAIGN_DIR`` to make the whole benchmark a durable, resumable
campaign), so re-running a tune against a warm store simulates nothing.

The smoke test tunes a tiny heterogeneous configuration in seconds and
merges under its own top-level key, leaving the committed full-scale
``tuning`` section untouched.

Run::

    pytest benchmarks/bench_tuning.py -m bench_smoke   # fast guard
    python benchmarks/bench_tuning.py                  # full run + JSON
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import CASE1, CASE2, CASE3, STAPParams
from repro.exec import SimPoint, execute_point
from repro.machine import SpeedRegion, afrl_paragon, machine_scenario
from repro.scheduling import TunerConfig, tune

#: Where the script/smoke modes drop their results.
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_tuning.json"

#: CPIs per refinement simulation: the steady-state window needs >= 8;
#: ten keeps the 236-node budget's sims under two seconds each.
NUM_CPIS = 10

#: Table 7 budgets with the paper's evaluated case for each.
PAPER_BUDGETS = ((59, CASE3), (118, CASE2), (236, CASE1))

#: Heterogeneous scenarios the closed forms cannot model.
HET_SCENARIOS = ("legacy_front", "gpu_nodes")


def _merge_results(updates: dict) -> None:
    try:
        from benchmarks.common import merge_results
    except ImportError:  # script mode: benchmarks/ itself is sys.path[0]
        from common import merge_results

    merge_results(RESULTS_PATH, updates)


def _jobs() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus - 1))


def _campaign_dir():
    try:
        from benchmarks.common import CAMPAIGN_DIR_ENV
    except ImportError:  # pragma: no cover - script mode
        from common import CAMPAIGN_DIR_ENV

    return os.environ.get(CAMPAIGN_DIR_ENV) or None


def _config(**overrides) -> TunerConfig:
    base = dict(
        num_cpis=NUM_CPIS, sim_candidates=8, sim_rounds=2, jobs=_jobs()
    )
    base.update(overrides)
    return TunerConfig(**base)


def _point_record(point) -> dict:
    return {
        "counts": list(point.counts),
        "throughput_cpis_per_s": point.throughput,
        "latency_seconds": point.latency,
        "predicted_throughput": point.predicted_throughput,
        "predicted_latency": point.predicted_latency,
    }


# -- measurements ----------------------------------------------------------------
def measure_paragon_budget(budget: int, case) -> dict:
    """Tune one Table 7 budget on the homogeneous Paragon.

    The paper's case rides along as a seed (so it is always simulated)
    and is then checked against the tuned front: it must be on or behind
    it — the tuner may never *lose* to the hand pick it subsumes.
    """
    params = STAPParams.paper()
    result = tune(
        params,
        budget,
        config=_config(),
        seeds=[case],
        campaign_dir=_campaign_dir(),
    )
    case_metrics = execute_point(
        SimPoint(params, case, num_cpis=NUM_CPIS, label=f"bench {case.name}")
    ).metrics
    case_throughput = case_metrics.measured_throughput
    case_latency = case_metrics.measured_latency
    baseline_throughput = result.baseline["simulated_throughput"]
    return {
        "budget": budget,
        "case": case.name,
        "case_simulated": {
            "throughput_cpis_per_s": case_throughput,
            "latency_seconds": case_latency,
        },
        "covers_case": result.front.covers(case_throughput, case_latency),
        "baseline_counts": result.baseline["counts"],
        "baseline_throughput_cpis_per_s": baseline_throughput,
        "best_throughput": _point_record(result.best_throughput),
        "best_latency": _point_record(result.best_latency),
        "tuned_vs_equations_speedup": (
            result.best_throughput.throughput / baseline_throughput
        ),
        "tuned_vs_case_speedup": (
            result.best_throughput.throughput / case_throughput
        ),
        "candidates_evaluated": result.candidates_evaluated,
        "points_simulated": result.points_simulated,
        "front": [_point_record(p) for p in result.front.points],
    }


def measure_heterogeneous(scenario: str, budget: int = 59) -> dict:
    """Tune one heterogeneous scenario at the case 3 budget."""
    result = tune(
        STAPParams.paper(),
        budget,
        machine=machine_scenario(scenario),
        config=_config(),
        campaign_dir=_campaign_dir(),
    )
    return {
        "scenario": scenario,
        "budget": budget,
        "baseline_counts": result.baseline["counts"],
        "baseline_throughput_cpis_per_s": result.baseline[
            "simulated_throughput"
        ],
        "best_throughput": _point_record(result.best_throughput),
        "tuned_vs_equations_speedup": result.throughput_gain,
        "candidates_evaluated": result.candidates_evaluated,
        "points_simulated": result.points_simulated,
        "front": [_point_record(p) for p in result.front.points],
    }


def measure_all() -> dict:
    return {
        "num_cpis": NUM_CPIS,
        "paragon": [
            measure_paragon_budget(budget, case)
            for budget, case in PAPER_BUDGETS
        ],
        "heterogeneous": [
            measure_heterogeneous(scenario) for scenario in HET_SCENARIOS
        ],
    }


def _print_summary(results: dict) -> None:
    for record in results["paragon"]:
        print(f"  {record['case']:>18} budget {record['budget']:>3}: "
              f"case {record['case_simulated']['throughput_cpis_per_s']:7.3f} "
              f"CPIs/s, tuned "
              f"{record['best_throughput']['throughput_cpis_per_s']:7.3f} "
              f"({record['tuned_vs_case_speedup']:.2f}x), "
              f"covers case: {record['covers_case']}")
    for record in results["heterogeneous"]:
        print(f"  {record['scenario']:>18} budget {record['budget']:>3}: "
              f"equations "
              f"{record['baseline_throughput_cpis_per_s']:7.3f} CPIs/s, "
              f"tuned "
              f"{record['best_throughput']['throughput_cpis_per_s']:7.3f} "
              f"({record['tuned_vs_equations_speedup']:.2f}x)")


def _assert_acceptance(results: dict) -> None:
    for record in results["paragon"]:
        assert record["covers_case"], (
            f"Table 7 {record['case']} beats the tuned front at budget "
            f"{record['budget']} — the tuner lost to its own seed"
        )
        assert record["tuned_vs_case_speedup"] >= 0.999
    gains = {
        record["scenario"]: record["tuned_vs_equations_speedup"]
        for record in results["heterogeneous"]
    }
    assert max(gains.values()) >= 1.10, (
        f"no heterogeneous scenario gained >= 10% over the equations "
        f"pick: {gains}"
    )


# -- pytest entry points ---------------------------------------------------------
@pytest.mark.bench_smoke
def test_tuning_smoke():
    """Seconds-scale guard: a tiny heterogeneous tune must beat the
    equations pick by >= 10% simulated and keep its seeds behind the
    front.  Merges under its own key so the committed full-scale
    ``tuning`` section is never clobbered by a smoke run."""
    machine = replace(
        afrl_paragon(), speed_regions=(SpeedRegion(0, 4, 0.25),)
    )
    result = tune(
        STAPParams.tiny(),
        12,
        machine=machine,
        config=TunerConfig(num_cpis=8, sim_candidates=6, sim_rounds=2),
    )
    record = {
        "budget": 12,
        "num_cpis": 8,
        "scenario": "tiny legacy-front (nodes 0-3 at 0.25x)",
        "baseline_counts": result.baseline["counts"],
        "baseline_throughput_cpis_per_s": result.baseline[
            "simulated_throughput"
        ],
        "best_throughput": _point_record(result.best_throughput),
        "tuned_vs_equations_speedup": result.throughput_gain,
        "points_simulated": result.points_simulated,
    }
    print()
    print(f"  tiny tune: equations "
          f"{record['baseline_throughput_cpis_per_s']:7.3f} CPIs/s, tuned "
          f"{record['best_throughput']['throughput_cpis_per_s']:7.3f} "
          f"({record['tuned_vs_equations_speedup']:.2f}x), "
          f"{record['points_simulated']} simulated")
    _merge_results({"tuning_smoke": record})

    assert result.points_simulated > 0
    assert result.throughput_gain >= 1.10
    assert all(p.total_nodes <= 12 for p in result.front.points)


# -- script entry point ----------------------------------------------------------
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print(f"usage: {Path(__file__).name} (no arguments)", file=sys.stderr)
        return 2
    results = measure_all()
    _print_summary(results)
    _assert_acceptance(results)
    _merge_results({"tuning": results})
    return 0


if __name__ == "__main__":
    sys.exit(main())
