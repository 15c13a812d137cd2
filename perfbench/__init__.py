"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sim-case1 --seed 0 --seconds 20 --trace 0

``BENCHMARK.json`` at the root names the workloads and metrics; ``NOTES.md``
next to this file maps each layer's metrics onto the end-to-end metric they
should move.
"""
