"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mc-front --seed 1 \
        --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs each unit of work twice, untraced and with the
layer spans of ``bench_trace`` on, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; earlier lines starting with
``#`` carry the environment record (and, traced, the span table).
``--record FILE`` also appends the whole record to a JSON-lines file
for ``compare.py``.

The program is imported from ``src/`` of the checkout this file sits
in, never from an installed copy; without it the run fails before
measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (cache directories, trace events); removed
#: at exit.
WORK_ROOT = ROOT / ".perfbench-work"
#: BLAS threads per process: the service workload runs a client and a
#: job thread on a 2-CPU host, so an unpinned OpenBLAS (built for up
#: to 64 threads) would oversubscribe.
BLAS_THREADS = 1
#: Fresh processes timed from spawn to the end of set-up; the median is
#: ``setup_s``.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
#: Host-speed calibration window, taken before the warm-up and after
#: every repeat, and the kernel's median rate on the host the bounds
#: were set on (2-CPU x86_64 VM, numpy 2.4.6, OpenBLAS 0.3.31).
CALIBRATION_S = 0.25
REFERENCE_RATE = 55.0


def pin_environment() -> None:
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = str(BLAS_THREADS)
    # Ambient program settings would change what is measured.
    os.environ.pop("REPRO_EXEC_BACKEND", None)
    os.environ.pop("REPRO_TELEMETRY", None)


def import_program() -> None:
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no program source at {package}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, "
                 f"not from {package}")


def blas_info() -> dict:
    """OpenBLAS version and the thread count it actually runs with."""
    import ctypes

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
        for path in paths:
            library = ctypes.CDLL(path)
            for symbol in ("openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_"):
                if hasattr(library, symbol):
                    threads = int(getattr(library, symbol)())
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_pinned": BLAS_THREADS, "threads_reported": threads}


def git_info() -> dict:
    """Commit and dirty flag; both ``None`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def environment(args, workload) -> dict:
    import numpy as np
    from bench_workloads import input_set
    return {"workload": args.workload, "seed": args.seed,
            "input_set": input_set(args.seed), "seconds": args.seconds,
            "trace": args.trace, "workers": workload.workers,
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "git": git_info()}


class HostSpeed:
    """How fast the host runs a fixed kernel now, relative to the
    reference host.

    On a shared machine other tenants slow every process by up to a
    third, changing every second or so, with slower drift on top.  The
    kernel -- batched complex solves at MC-chunk and at GA-batch size,
    and an interpreter loop -- uses no program code, so the program's
    own speed never moves it.  One sample is too short to stand for
    the repeat next to it; the mean of all samples of a run stands for
    the run, and the run's times, multiplied by it, read in
    reference-host seconds.
    """

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        shape = (2000, 15, 15)
        self.large = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                      + 6.0 * np.eye(15))
        self.large_rhs = rng.normal(size=(2000, 15, 1)) + 0j
        self.small = self.large[:64].copy()
        self.small_rhs = self.large_rhs[:64].copy()
        self.solve = np.linalg.solve

    def sample(self) -> float:
        rounds = 0
        start = time.perf_counter()
        while time.perf_counter() - start < CALIBRATION_S:
            self.solve(self.large, self.large_rhs)
            for _ in range(20):
                self.solve(self.small, self.small_rhs)
            total = 0
            for value in range(20000):
                total += value * value
            rounds += 1
        return rounds / (time.perf_counter() - start) / REFERENCE_RATE


def _plain(position):
    return position, contextlib.nullcontext()


def timed_phase(workload, seconds: float, host: HostSpeed, plan=_plain,
                group: int = 1):
    """Repeat the workload's unit of work for about ``seconds``.

    A warm-up repeat of unit 0 comes first and is checked but left out
    of the returned repeats.  ``plan(position)`` gives the unit index
    and the context manager of the ``position``-th timed repeat.
    Repeats come in whole groups of ``group``, at least one; no group
    starts that the median repeat so far says would end after
    ``seconds``.  Host speed is sampled before the warm-up and after
    every repeat.  Returns the timed repeats, the run's mean host speed
    and the summed ``(attempted, failed, wrong)`` of all checks, which
    run outside each repeat's timing.
    """
    start = time.perf_counter()
    repeats, lengths, speeds, totals = [], [], [host.sample()], [0, 0, 0]

    def run(index, scope):
        begun = time.perf_counter()
        with scope:
            repeat = workload.run_once(index)
        speeds.append(host.sample())
        lengths.append(time.perf_counter() - begun)
        for position, value in enumerate(workload.check(repeat)):
            totals[position] += value
        return repeat

    run(0, contextlib.nullcontext())
    while (not repeats or len(repeats) % group
           or time.perf_counter() - start
           + group * statistics.median(lengths) < seconds):
        repeats.append(run(*plan(len(repeats))))
    return repeats, statistics.mean(speeds), totals


def percentile(values, fraction: float, cap: float) -> float:
    """Percentile, linear between the two nearest ranks (numpy's
    default).  Failed operations rank as infinite; a percentile that
    touches one reads as ``cap``."""
    ranked = sorted(values)
    position = fraction * (len(ranked) - 1)
    low, high = ranked[math.floor(position)], ranked[math.ceil(position)]
    if math.isinf(high):
        return cap
    return low + (high - low) * (position - math.floor(position))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_probe(args) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    spawned = time.time()
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe", repr(spawned)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        check=False)
    if completed.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{completed.stderr}")
    return float(json.loads(completed.stdout.splitlines()[-1])["setup_s"])


def end_to_end(repeats, setup_samples, rss_mb, speed: float,
               latency_speed: float) -> dict:
    """End-to-end metrics; job latencies are multiplied by
    ``latency_speed``, every other time by ``speed``."""
    walls = [repeat.wall * speed for repeat in repeats]
    total = sum(walls)
    latencies = [latency * latency_speed for repeat in repeats
                 for latency in repeat.latencies_ms]
    # A percentile landing on a failed job is a miss: it reads as the
    # whole timed phase.
    cap = 1e3 * total
    return {
        "setup_s": (speed * statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "sims_per_s": (sum(r.sims for r in repeats) / total, "1/s"),
        "jobs_per_s": (sum(r.jobs for r in repeats) / total, "1/s"),
        "job_p50_ms": (percentile(latencies, 0.50, cap), "ms"),
        "job_p90_ms": (percentile(latencies, 0.90, cap), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append the full record to this JSONL file")
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_environment()
    import_program()
    from bench_workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        if args.setup_probe is not None:
            print(json.dumps({"setup_s": time.time() - args.setup_probe}))
            return 0
        record = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    print("# env " + json.dumps(record["env"], sort_keys=True))
    if "spans" in record:
        print("# spans " + json.dumps(record["spans"], sort_keys=True))
    if args.record is not None:
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record["result"], allow_nan=False))
    return 0


def measure(args, workload, workdir: Path) -> dict:
    env = environment(args, workload)
    host = HostSpeed()
    if args.trace:
        import bench_trace
        from repro import telemetry
        events_path = workdir / "events.jsonl"

        @contextlib.contextmanager
        def traced():
            with bench_trace.instrumented(events_path), \
                    telemetry.span(bench_trace.REPEAT_SPAN):
                yield

        def pairs(position):
            # Each unit runs plain and traced, the order alternating
            # between units, so the overhead compares the same work at
            # nearly the same host speed.
            unit, second = divmod(position, 2)
            if second == unit % 2:
                return unit, traced()
            return unit, contextlib.nullcontext()

        repeats, speed, (attempted, failed, wrong) = timed_phase(
            workload, args.seconds, host, pairs, group=2)
        pair_units = range(len(repeats) // 2)
        traced_repeats = [repeats[2 * unit + unit % 2] for unit in pair_units]
        plain = [repeats[2 * unit + 1 - unit % 2] for unit in pair_units]
        events = telemetry.load_events(events_path)
        overhead = statistics.median(
            b.wall / a.wall for a, b in zip(plain, traced_repeats)) - 1.0
        values = bench_trace.layer_metrics(
            events, traced_repeats, overhead_ratio=overhead,
            attempted=attempted, failed=failed)
        units = dict(bench_trace.LAYER_METRICS)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
        extra = {"spans": bench_trace.span_table(events)}
    else:
        repeats, speed, (attempted, failed, wrong) = timed_phase(
            workload, args.seconds, host)
        rss = peak_rss_mb()
        setup_samples = [setup_probe(args) for _ in range(SETUP_PROBES)]
        latency_speed = speed if workload.latency_follows_host else 1.0
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit)
                   in end_to_end(repeats, setup_samples, rss, speed,
                                 latency_speed).items()}
        extra = {"setup_samples": setup_samples,
                 "raw_metrics": end_to_end(repeats, setup_samples, rss,
                                           1.0, 1.0)}
    extra["host_speed"] = speed
    extra["repeat_wall_s"] = [repeat.wall for repeat in repeats]
    extra["repeat_latencies_ms"] = [repeat.latencies_ms for repeat in repeats]
    result = {"correct": wrong == 0, "attempted": int(attempted),
              "failed": int(failed), "metrics": metrics}
    return {"env": env, "result": result, **extra}


if __name__ == "__main__":
    sys.exit(main())
