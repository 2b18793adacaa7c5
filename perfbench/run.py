"""bchkit benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload evolve-drive --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it).  A single caller runs
jobs back to back, each starting when the previous one finished, until they
have taken ``--seconds`` seconds (and, untraced, at least 100 have run),
checks every output, and prints a metric table, a provenance line and, last,
one JSON result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it runs the workload untraced and traced for 30%
of the time each (the ratio is the tracing overhead), then gives the other
three workloads a short traced run, because every layer is measured on the
workload that exercises it (its "home"; see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
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

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

SETUP_REPS = 11  # fresh interpreters per run; setup_s is their median
PROBE_KERNELS = 5  # speed-kernel runs in each probe, before and after the timed part
OWN_SHARE = 0.3  # trace mode: untraced and traced share of --seconds each
MIN_JOBS = 100  # end-to-end runs: at least 10 latency samples beyond p90
MIN_TRACED_JOBS = 8  # enough to reach every job kind when run smallest first
WALL_CAP = 2.0  # a pass ends after this many times --seconds of wall time

# A fresh interpreter times importing bchkit and building the inputs, and
# the speed kernel around them (speed.py imports only a few small modules).
SETUP_PROBE = """\
import sys
import time
sys.path[:0] = [sys.argv[2], sys.argv[1]]
import speed
kernel_s = speed.kernel_seconds(int(sys.argv[5]))
t0 = time.perf_counter()
import inputs
inputs.build(sys.argv[3], int(sys.argv[4]))
seconds = time.perf_counter() - t0
kernel_s += speed.kernel_seconds(int(sys.argv[5]))
print(repr(seconds), repr(speed.median(kernel_s)))
"""


class Stats:
    """Latencies, items, failures and the worst accuracy gap of one pass."""

    def __init__(self, slots: int):
        self.slots = slots
        self.jobs: list[tuple] = []  # (slot, start, seconds)
        self.slot_items = [0] * slots
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.max_gap = 0.0
        self.failures: list[str] = []
        self.clock = speed.SpeedClock()

    def record(self, job, start: float, seconds: float) -> None:
        self.attempted += 1
        self.items += job.items
        self.jobs.append((job.slot, start, seconds))
        self.slot_items[job.slot] = job.items

    def fail(self, job, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{job.kind} (slot {job.slot}): {message}")

    def latencies(self, scaled: bool = True) -> list:
        """Job times in seconds, at the reference host speed unless ``scaled`` is false."""
        if not scaled:
            return [seconds for _, _, seconds in self.jobs]
        factor = self.clock.factor
        return [seconds * factor(start, start + seconds) for _, start, seconds in self.jobs]

    def ran_slots(self) -> set:
        return {slot for slot, _, _ in self.jobs}

    def items_per_s(self, scaled: bool = True, slots=None) -> float:
        """Items per second at the workload's fixed slot mix.

        Each slot's time is its mean over the rounds it ran: every second
        spent counts, and a partial last round does not tilt the mix.
        ``slots`` restricts the mix to those slots.
        """
        by_slot = [[] for _ in range(self.slots)]
        for (slot, _, _), seconds in zip(self.jobs, self.latencies(scaled)):
            by_slot[slot].append(seconds)
        ran = [i for i, times in enumerate(by_slot) if times and (slots is None or i in slots)]
        return sum(self.slot_items[i] for i in ran) / sum(statistics.fmean(by_slot[i]) for i in ran)

    def percentile_ms(self, q: float, scaled: bool = True) -> float:
        """Nearest-rank percentile of the job latencies, in milliseconds."""
        ordered = sorted(self.latencies(scaled))
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3


def _jobs(rounds, smallest_first: bool):
    for jobs in itertools.cycle(rounds):
        yield from sorted(jobs, key=lambda job: job.items) if smallest_first else jobs


def drive(runner, inputs, seconds: float, jobs_mod, tracer=None, min_jobs: int = 1) -> Stats:
    """Closed loop: run jobs back to back until they have taken ``seconds``.

    The clock counts job time only, so output checks between jobs do not
    shorten the measurement; past ``min_jobs`` jobs, a wall-clock cap keeps
    a pass bounded anyway.  The speed kernel is timed between jobs (see
    speed.py).
    """
    stats = Stats(inputs.slots)
    clock = stats.clock
    busy = 0.0
    wall_cap = time.perf_counter() + WALL_CAP * seconds
    for job in _jobs(inputs.rounds, smallest_first=tracer is not None):
        if stats.attempted >= min_jobs and (busy >= seconds or time.perf_counter() >= wall_cap):
            break
        clock.maybe_sample()
        if tracer is not None:
            tracer.job += 1
        start = time.perf_counter()
        traced_ns = tracer.total_ns("job") if tracer is not None else 0
        try:
            out = runner.run(job) if tracer is None else runner.run_traced(job, tracer)
        except Exception as exc:  # counted as a failed job by check(), never fatal
            out = exc
        elapsed = time.perf_counter() - start
        busy += elapsed
        # traced, the job's time is its "job" span: the probes around it are not the job
        stats.record(job, start, elapsed if tracer is None else (tracer.total_ns("job") - traced_ns) / 1e9)
        try:
            stats.max_gap = max(stats.max_gap, runner.check(job, out))
        except jobs_mod.CheckFailed as exc:
            stats.fail(job, str(exc))
        except Exception as exc:  # a malformed output the check did not foresee
            stats.fail(job, f"check raised {type(exc).__name__}: {exc}")
    clock.sample()
    return stats


def setup_seconds(workload: str, seed: int) -> tuple:
    """Median set-up time over fresh interpreters: (at reference speed, raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, BENCH_DIR, SRC, workload, str(seed), str(PROBE_KERNELS)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, kernel_s = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * speed.REFERENCE_S / kernel_s)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb(workload: str) -> float:
    # cli-batch does its work in child processes; read before any other child runs
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "bchkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def provenance(seed: int, load_start: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": _read("/proc/loadavg").strip(),
        "seed": seed,
        "commit": _commit(),
        "bchkit_source_sha256": _source_digest(),
    }


def end_to_end(args, inputs_mod, jobs_mod, work_dir: str):
    inputs = inputs_mod.build(args.workload, args.seed)
    runner = jobs_mod.make(args.workload, inputs, work_dir, SRC)
    stats = drive(runner, inputs, args.seconds, jobs_mod, min_jobs=MIN_JOBS)
    rss = peak_rss_mb(args.workload)
    setup_s, setup_raw = setup_seconds(args.workload, args.seed)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (stats.items_per_s(), "1/s"),
        "job_p50_ms": (stats.percentile_ms(0.5), "ms"),
        "job_p90_ms": (stats.percentile_ms(0.9), "ms"),
        "ok_frac": (1.0 - stats.failed / stats.attempted, "ratio"),
        # a gap of exactly 0 reads as 17 digits, all that a double holds
        "max_gap_digits": (-math.log10(max(stats.max_gap, 1e-17)), "digits"),
        "peak_rss_mb": (rss, "MB"),
    }
    beyond = stats.attempted - math.ceil(0.9 * stats.attempted)
    notes = [
        f"jobs {stats.attempted}, failed {stats.failed} (failed_frac {stats.failed / stats.attempted:.4g}), "
        f"items {stats.items}, {beyond} jobs beyond p90",
        f"unscaled: setup_s {setup_raw:.6g}, items_per_s {stats.items_per_s(scaled=False):.6g}, "
        f"job_p50_ms {stats.percentile_ms(0.5, scaled=False):.6g}, "
        f"job_p90_ms {stats.percentile_ms(0.9, scaled=False):.6g}; max_gap {stats.max_gap:.6g}",
    ]
    return stats.attempted, stats.failed, stats.failures, metrics, notes


def per_layer(args, inputs_mod, jobs_mod, tracing_mod, work_dir: str):
    own = args.workload
    inputs = inputs_mod.build(own, args.seed)
    runner = jobs_mod.make(own, inputs, work_dir, SRC)
    untraced = drive(runner, inputs, OWN_SHARE * args.seconds, jobs_mod)
    passes = [(own, runner, OWN_SHARE * args.seconds, inputs)]
    others = [w for w in inputs_mod.WORKLOADS if w != own]
    for other in others:
        other_inputs = inputs_mod.build(other, args.seed)
        other_runner = jobs_mod.make(other, other_inputs, work_dir, SRC)
        passes.append((other, other_runner, (1 - 2 * OWN_SHARE) * args.seconds / len(others), other_inputs))

    attempted, failed, failures = untraced.attempted, untraced.failed, list(untraced.failures)
    metrics, notes = {}, []
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    for workload, pass_runner, seconds, pass_inputs in passes:
        tracer = tracing_mod.Tracer()
        stats = drive(pass_runner, pass_inputs, seconds, jobs_mod, tracer, MIN_TRACED_JOBS)
        attempted += stats.attempted
        failed += stats.failed
        failures += stats.failures
        # times at the reference speed, like the end-to-end metrics (see speed.py)
        factor = stats.clock.median_factor()
        for name, (value, unit) in pass_runner.layer_metrics(tracer).items():
            metrics[name] = (value * factor if unit in ("us", "ms") else value, unit)
        tracer.dump(os.path.join(WORK, "traces", f"{workload}-seed{args.seed}.json"))
        notes.append(f"traced {workload}: {stats.attempted} jobs, {tracer.spans} spans, "
                     f"empty span {tracer.empty_ns:.0f} ns, speed factor {factor:.3f}")
        if workload == own:
            # the same rate as items_per_s, over the slots both passes ran
            common = untraced.ran_slots() & stats.ran_slots()
            traced_rate = stats.items_per_s(slots=common)
            untraced_rate = untraced.items_per_s(slots=common)
            metrics["trace.items_per_s_traced"] = (traced_rate, "1/s")
            metrics["trace.items_per_s_untraced"] = (untraced_rate, "1/s")
            metrics["trace.items_per_s_ratio"] = (traced_rate / untraced_rate, "ratio")
            metrics["trace.spans"] = (tracer.spans, "count")
    return attempted, failed, failures, metrics, notes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("evolve-drive", "fold-chain", "oracle-verify", "cli-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bchkit", "__init__.py")):
        print(f"perfbench: no bchkit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    load_start = _read("/proc/loadavg").strip()
    sys.path.insert(0, SRC)
    import inputs as inputs_mod
    import jobs as jobs_mod
    import tracing as tracing_mod

    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if args.trace:
            attempted, failed, failures, metrics, notes = per_layer(
                args, inputs_mod, jobs_mod, tracing_mod, work_dir)
        else:
            attempted, failed, failures, metrics, notes = end_to_end(args, inputs_mod, jobs_mod, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for message in failures:
        print(f"  FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    print(json.dumps({"provenance": provenance(args.seed, load_start)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
