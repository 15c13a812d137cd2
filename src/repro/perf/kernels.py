"""Per-kernel wall-time and achieved-flops view of the STAP kernels.

Complements :class:`repro.perf.PerfReport` (which measures the
*simulator*): this module reports on the *numerical kernels themselves* —
how many host seconds each batched NumPy kernel spends, and what fraction
of the paper's analytic operation counts (Table 1, :mod:`repro.stap.flops`)
it sustains.  The before/after evidence for the batched-kernel work lives
in ``benchmarks/bench_kernels.py``, which reads this view.

The counts themselves live in the metrics registry: every instrumented
kernel checks ``metrics_registry.enabled`` (one attribute read when off)
and, when on, calls :func:`repro.obs.metrics.record_kernel`, which adds
to the ``stap_kernel_{calls,seconds,flops}_total{kernel=...}`` series.
:data:`kernel_counters` reads those series back per kernel::

    from repro.perf import kernel_counters

    with kernel_counters.collect():
        SequentialSTAP(params).process_stream(stream.take(8))
    print(kernel_counters.summary())

The kernel names match the pipeline task kernels (``doppler``,
``easy_weight``, ``hard_weight``, ``easy_beamform``, ``hard_beamform``,
``pulse_compression``, ``cfar``), so per-kernel achieved flops/s line up
row-for-row with Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.metrics import metrics_registry

#: Registry counter -> :class:`KernelStats` field it fills.
_SERIES = {
    "stap_kernel_calls_total": "calls",
    "stap_kernel_seconds_total": "seconds",
    "stap_kernel_flops_total": "flops",
}

#: Pipeline-task order, used to list kernels in :meth:`summary`.
_ORDER = (
    "doppler",
    "easy_weight",
    "hard_weight",
    "easy_beamform",
    "hard_beamform",
    "pulse_compression",
    "cfar",
)


@dataclass
class KernelStats:
    """Accumulated cost of one kernel: calls, host seconds, modeled flops.

    ``flops`` uses the analytic per-task counts of :mod:`repro.stap.flops`
    scaled by each call's share of the cube (the instrumented kernels know
    their block sizes) — i.e. *useful* operations, so ``flops_per_second``
    is achieved throughput against the paper's own accounting, not a count
    of machine instructions.
    """

    calls: int = 0
    seconds: float = 0.0
    flops: float = 0.0

    @property
    def flops_per_second(self) -> float:
        """Achieved throughput in modeled flops per host second."""
        return self.flops / self.seconds if self.seconds > 0.0 else 0.0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "flops": self.flops,
            "flops_per_second": self.flops_per_second,
        }


class KernelSeriesView:
    """Per-kernel view of the registry's ``stap_kernel_*`` series."""

    def collect(self, reset: bool = True):
        """Enable the metrics registry for a ``with`` block
        (:meth:`~repro.obs.metrics.MetricsRegistry.collect`); the series
        stay readable after the block."""
        return metrics_registry.collect(reset=reset)

    def stats(self) -> Dict[str, KernelStats]:
        """``{kernel: KernelStats}`` built from the registry series."""
        out: Dict[str, KernelStats] = {}
        for instrument in metrics_registry.instruments():
            field = _SERIES.get(instrument.name)
            if field is None:
                continue
            kernel = dict(instrument.labels)["kernel"]
            stats = out.setdefault(kernel, KernelStats())
            value = instrument.value
            setattr(stats, field, int(value) if field == "calls" else value)
        return out

    def summary(self, title: str = "kernel counters") -> str:
        """Printable per-kernel table, pipeline-task order first."""
        stats = self.stats()
        names = [k for k in _ORDER if k in stats]
        names += [k for k in sorted(stats) if k not in _ORDER]
        lines = [
            f"--- {title}",
            f"{'kernel':<20} {'calls':>7} {'seconds':>10} {'Mflops/s':>10}",
        ]
        total = KernelStats()
        for name in names:
            row = stats[name]
            total.calls += row.calls
            total.seconds += row.seconds
            total.flops += row.flops
            lines.append(
                f"{name:<20} {row.calls:>7d} {row.seconds:>10.4f}"
                f" {row.flops_per_second / 1e6:>10.1f}"
            )
        lines.append(
            f"{'total':<20} {total.calls:>7d} {total.seconds:>10.4f}"
            f" {total.flops_per_second / 1e6:>10.1f}"
        )
        return "\n".join(lines)


#: The view :mod:`benchmarks` and ``perfbench`` read kernel timings from.
kernel_counters = KernelSeriesView()


def achieved_vs_table1(
    counters: Optional[KernelSeriesView] = None,
    num_cpis: int = 1,
) -> dict:
    """Per-kernel achieved flops/s against the paper's Table 1 counts.

    Returns ``{kernel: {seconds, flops, flops_per_second, paper_flops_per_cpi,
    paper_fraction}}`` where ``paper_fraction`` is the measured modeled
    flops divided by ``num_cpis`` times the Table 1 entry — 1.0 means the
    run performed exactly the paper's per-CPI operation count for that
    kernel (partial cubes and cold-start CPIs push it below 1).
    """
    from repro.stap.flops import PAPER_TABLE1

    counters = kernel_counters if counters is None else counters
    comparison = {}
    for name, stats in counters.stats().items():
        paper = PAPER_TABLE1.get(name)
        entry = stats.to_dict()
        entry["paper_flops_per_cpi"] = paper
        entry["paper_fraction"] = (
            stats.flops / (paper * num_cpis) if paper and num_cpis else None
        )
        comparison[name] = entry
    return comparison
