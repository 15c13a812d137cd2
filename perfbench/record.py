"""Record the reference outputs the benchmark checks against.

Run from the repository root after a change that is meant to alter the
program's outputs (never to make a failing check pass)::

    python3 perfbench/record.py [--scale paper|tiny]

It writes ``perfbench/expected.json``: the case-1 simulation's throughput,
latency and network totals (as exact float hex), the sweep's points, and
per-CPI detection digests of the serial chain for every scenario seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.workloads import (  # noqa: E402
    EXPECTED_PATH,
    SCALES,
    SCENARIO_SEEDS,
    cpi_digest,
)


def record_sim(scale) -> dict:
    from repro import STAPPipeline

    result = STAPPipeline(scale.make_params(), scale.sim_assignment(),
                          num_cpis=scale.sim_cpis).run()
    return {
        "throughput": result.metrics.measured_throughput.hex(),
        "latency": result.metrics.measured_latency.hex(),
        "messages": result.network_messages,
        "bytes": result.network_bytes,
    }


def record_sweep(scale) -> list:
    from repro.experiments.sweeps import scalability_curve

    directory = ROOT / "perfbench" / ".work" / "record-sweep"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        points = scalability_curve(
            scale.sweep_budgets, num_cpis=scale.sweep_cpis,
            params=scale.make_params(), measured=True, jobs=1,
            campaign_dir=directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return [{"budget": p.budget, "counts": list(p.assignment.counts()),
             "throughput": p.throughput.hex(), "latency": p.latency.hex()}
            for p in points]


def record_detect(scale) -> dict:
    from repro import CPIStream, SequentialSTAP

    params = scale.make_params()
    digests = {}
    for seed in range(SCENARIO_SEEDS):
        stream = CPIStream(params, scale.make_scenario(seed))
        stap = SequentialSTAP(params)
        digests[str(seed)] = [cpi_digest(stap.process(stream.cube(i)))
                              for i in range(scale.stream_cpis)]
        print(f"  detect seed {seed}: {digests[str(seed)][:2]}...",
              flush=True)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), action="append",
                        help="scales to record (default: all)")
    args = parser.parse_args(argv)
    expected = {}
    if EXPECTED_PATH.exists():
        expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    for name in args.scale or sorted(SCALES):
        scale = SCALES[name]
        print(f"recording scale {name}", flush=True)
        for workload, recorder in (("sim-case1", record_sim),
                                   ("sweep", record_sweep),
                                   ("detect", record_detect)):
            expected.setdefault(workload, {})[name] = recorder(scale)
    # rt is checked against the serial chain live, and against the same
    # per-seed digests through the serial check pass.
    expected["rt"] = expected["detect"]
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
