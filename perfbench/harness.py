"""Accounting, statistics, metric schema and host facts for the benchmark.

Nothing here imports :mod:`repro` at module level: it is imported lazily,
so that the set-up probes time the program's imports as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

#: The checkout root: the directory holding ``BENCHMARK.json`` and ``src``.
ROOT = Path(__file__).resolve().parent.parent

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Thread-count variables that decide how many threads BLAS/FFT use.  The
#: benchmark records them and never sets them: pinning threads per worker
#: is a program change that must show up as a measured difference.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run (program missing, bad arguments)."""


class InstrumentMissing(BenchError):
    """A counter or timer the traced run reads is gone from the program.

    Raised instead of reporting zeros, so a renamed or folded instrument
    fails loudly and names what disappeared.
    """

    def __init__(self, instrument: str, detail: str = ""):
        self.instrument = instrument
        message = f"instrument {instrument!r} is missing"
        super().__init__(f"{message}: {detail}" if detail else message)


class NoSamples(BenchError):
    """Every operation a metric needed failed, so there is nothing to report."""


class BenchTimeout(Exception):
    """The run passed its hard deadline."""


def read_instrument(obj, attr: str, instrument: str):
    """``getattr`` that names the instrument when the attribute is gone."""
    try:
        return getattr(obj, attr)
    except AttributeError as exc:
        raise InstrumentMissing(instrument, str(exc)) from None


# -- accounting -------------------------------------------------------------------
@dataclass
class Op:
    """One attempted operation: fails on an exception or any mismatch."""

    what: str
    problems: List[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class Tally:
    """Attempted and failed operations of one run.

    An operation is a simulation, a sweep point, a CPI or an rt run.  A
    failure is a raised error, a timeout or an output mismatch; each
    failed operation counts once, with every reason kept for the log.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @contextmanager
    def attempt(self, what: str, count: int = 1):
        """Count ``count`` operations; all fail together if the body raises
        or records a mismatch (for calls that run several at once)."""
        op = Op(what)
        self.attempted += count
        try:
            yield op
        except (InstrumentMissing, KeyboardInterrupt):
            raise
        except BenchTimeout:
            self._fail(op, count, "timed out")
            raise
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            self._fail(op, count, f"{type(exc).__name__}: {exc}")
        else:
            if op.problems:
                self._fail(op, count, "; ".join(op.problems))

    def _fail(self, op: Op, count: int, reason: str) -> None:
        self.fail_counted(op.what, reason, count)

    def fail_counted(self, what: str, reason: str, count: int = 1) -> None:
        """Fail ``count`` operations that were already counted as attempted
        (for checks that run after the timed region)."""
        self.failed += count
        self.problems.append(f"{what}: {reason}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- statistics -------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    if not values:
        raise NoSamples("no samples to take a median of")
    return statistics.median(values)


@dataclass(frozen=True)
class Tail:
    """A tail percentile with the facts needed to read it."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values: Sequence[float], beyond: int = 10) -> Tail:
    """The highest percentile with at least ``beyond`` samples above it.

    With ``n`` sorted samples that is the value at index ``n - beyond - 1``,
    the ``100 * (n - beyond) / n``-th percentile.  When that would not lie
    above the median (fewer than ``2 * beyond + 1`` samples) the tail is
    the maximum instead, reported as the 100th percentile with no samples
    beyond it.
    """
    if not values:
        raise NoSamples("no samples to take a tail of")
    ordered = sorted(values)
    n = len(ordered)
    if n >= 2 * beyond + 1:
        index = n - beyond - 1
        return Tail(ordered[index], 100.0 * (index + 1) / n, n, beyond)
    return Tail(ordered[-1], 100.0, n, 0)


def peak_rss_mib() -> float:
    """Larger of this process's peak RSS and that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def _child_pids() -> List[int]:
    pids = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(pid) for pid in children.read_text().split())
        except OSError:
            pass
    return pids


def stop_child_processes() -> None:
    """Stop every process this one started and wait for each to end.

    ``multiprocessing`` starts a resource tracker for shared memory that
    would otherwise outlive this process.  Call this last: unlinking
    shared memory afterwards would start a new tracker.  Any other child
    still running is killed and reaped.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- metric schema ----------------------------------------------------------------
def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: dict, kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_names(spec: dict) -> List[str]:
    """Problems with the metric and workload names of ``spec`` (empty = ok)."""
    problems = []
    seen = set()
    entries = [(w["name"], None) for w in spec["workloads"]]
    entries += [(m["name"], m["unit"]) for kind in ("end_to_end", "per_layer")
                for m in spec[kind]]
    for name, unit in entries:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
        if name in seen:
            problems.append(f"name {name!r} used twice")
        seen.add(name)
        if unit is not None and not UNIT_RE.match(unit):
            problems.append(f"bad unit {unit!r} of {name!r}")
    return problems


def package_metrics(values: Dict[str, float], units: Dict[str, str],
                    tally: Tally) -> Dict[str, dict]:
    """Attach units; the names must be exactly those of the schema.

    A non-finite value cannot be written as JSON and means a measurement
    went wrong: it is reported as 0 and counted as a failure.
    """
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"unexpected {extra}")
    out = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            with tally.attempt(f"metric {name}") as op:
                op.expect(False, f"value is {value}")
            value = 0.0
        out[name] = {"value": value, "unit": unit}
    return out


# -- host facts -------------------------------------------------------------------
def _blas() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as exc:  # noqa: BLE001 - old numpy: record why not
        return {"name": None, "error": f"{type(exc).__name__}: {exc}"}


def _commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository (git
    is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_digest(root: Path = ROOT / "src") -> str:
    """SHA-256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts() -> dict:
    """The facts that decide a measurement on this host."""
    import numpy
    import scipy

    from repro.des.backends import available_backends, compiled_available

    return {
        "usable_cpus": usable_cpus(),
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "despeed_built": compiled_available(),
        "engines": list(available_backends()),
        "commit": _commit(),
        "source_digest": source_digest(),
        "machine": platform.machine(),
        "executable": Path(sys.executable).name,
    }
