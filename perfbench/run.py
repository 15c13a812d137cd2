"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {sim-case1,sweep,detect,rt} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` from
untraced operations; ``--trace 1`` reports its per-layer metrics from a
separate traced run.  Every operation's output is checked.  Earlier lines
of standard output carry the host facts and a readable table; the last
line is the JSON result.  The exit code is 0 only when every operation
succeeded and every output matched.

The program is imported from ``src/`` of the checkout holding this file;
without it the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402 - the clock above starts set-up timing
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402
from perfbench.harness import (  # noqa: E402
    BenchError,
    BenchTimeout,
    NoSamples,
    Tally,
    median,
)
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    SCALES,
    SETUP_PROBES,
    WORKLOADS,
    load_expected,
)

#: Seconds after which a run stops and reports a timeout (the contract
#: allows 180).
DEADLINE_S = 165
#: Where sweep campaigns are written; removed at exit.
WORK_DIR = ROOT / "perfbench" / ".work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper",
                        help="problem size (tiny is for the tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from there, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"the program is missing: no {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"repro imported from {origin}, not from {src}")


def make_workload(args, workdir: Path):
    return WORKLOADS[args.workload](
        SCALES[args.scale], args.seed, harness.usable_cpus(), workdir,
        load_expected())


def probe_setup(args) -> list:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes: from launch
    through imports, construction and warm-up to where the first timed
    call would start."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


def _on_alarm(signum, frame):
    raise BenchTimeout(f"run exceeded {DEADLINE_S} s")


def _table(metrics: dict) -> list:
    return [f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}"
            for name, entry in metrics.items()]


def run(args) -> int:
    spec = harness.load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = harness.metric_units(spec, kind)
    tally = Tally()
    workdir = WORK_DIR / f"{args.workload}-{args.seed}"
    notes = {}
    try:
        import_program()
        print("# host " + json.dumps(harness.host_facts(), sort_keys=True))
        workload = make_workload(args, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        workload.setup()
        notes["own_setup_s"] = perf_counter() - _STARTED
        if args.trace:
            values = {name: 0.0 for name in units}
            values.update(workload.trace(args.seconds, tally))
        else:
            values = workload.measure(args.seconds, tally)
            probes = probe_setup(args)
            notes["setup_probes_s"] = probes
            values["setup_s"] = median(probes)
            values["peak_rss_mib"] = harness.peak_rss_mib()
        for key in [k for k in values if k.startswith("_")]:
            notes[key[1:]] = values.pop(key)
    except BenchTimeout as exc:
        tally.fail_counted("run", str(exc))
        values = {}
    except NoSamples:
        if not tally.failed:
            raise
        values = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tally.failed or not values:
        for problem in tally.problems:
            print(f"# FAILED {problem}")
        if not values:
            print(f"# no metrics: {tally.failed} of {tally.attempted} "
                  "operations failed before measuring finished",
                  file=sys.stderr)
            values = {name: 0.0 for name in units}
    metrics = harness.package_metrics(values, units, tally)
    notes["failed_frac"] = tally.failed_frac
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print("\n".join(_table(metrics)))
    for key, value in notes.items():
        print(f"# {key}: {value}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def setup_probe(args) -> int:
    import_program()
    make_workload(args, WORK_DIR / f"probe-{args.workload}").setup()
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            return setup_probe(args)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(DEADLINE_S)
        try:
            return run(args)
        finally:
            signal.alarm(0)
    except BenchError as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        harness.stop_child_processes()


if __name__ == "__main__":
    sys.exit(main())
