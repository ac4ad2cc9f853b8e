"""Sweep benchmark for twostage: trials/s, CPU per trial, set-up time, memory.

Run from the repository root:

    python3 bench/run.py --workload reference --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30             # every workload in turn
    python3 bench/run.py --workload wide-block --trace 1

Each run drives ``twostage.cli.main(["sweep", ...])`` in this process: one
warm-up sweep, then the same sweep again and again for ``--seconds``. Every
sweep's CSV goes through the correctness gate (gate.py). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment and
every metric by name with its unit. Times are scaled to reference seconds
by a calibration loop run before each measurement (``machine_speed``); the
unscaled figures are printed too. ``--trace 1`` spends half the time
untraced and half with spans on every traced function (sweeptrace.py) and
reports per-trial figures for each. ``--seconds 0`` runs a single measured
sweep, for tests. The benchmark sets no BLAS thread variable: the program
runs with whatever threading it inherits. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import sweeptrace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = ROOT / "scripts" / "reference_sweep.cfg"

# the workload seed picks one of these program seeds, whose cell means are pinned
PINNED_SEEDS = 8
SETUP_REPEATS = 9
# Seconds the calibration loop takes on the machine that defined the benchmark.
CALIBRATION_REF_S = 0.03
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple  # sweep flags, without --trials, --seed and --out
    cells: int  # SNR points x m values
    rows_per_trial: int  # recovery modes, plus one for the baseline
    trials: int  # per cell and sweep
    workers: int

    @property
    def trials_per_sweep(self):
        return self.cells * self.trials

    @property
    def rows_per_sweep(self):
        return self.trials_per_sweep * self.rows_per_trial


SHAPE = ("--nr", "32", "--nt", "128", "--paths", "4", "--nrf", "6")
WORKLOADS = {w.name: w for w in (
    Workload("reference", ("--config", str(CONFIG)),
             cells=7 * 4, rows_per_trial=2, trials=2, workers=1),
    Workload("wide-block", SHAPE + ("--m", "96", "112", "128",
                                    "--snr-db", "-10", "0", "10", "20",
                                    "--no-baseline", "--workers", "1"),
             cells=4 * 3, rows_per_trial=1, trials=8, workers=1),
    Workload("modes-parallel", ("--config", str(CONFIG),
                                "--mode", "pseudo-inverse", "paper-literal", "ideal",
                                "--no-baseline", "--workers", "2"),
             cells=7 * 4, rows_per_trial=3, trials=2, workers=2),
)}

def program_seed(seed):
    return seed % PINNED_SEEDS


def sweep_argv(workload, seed, out_path):
    return ["sweep", *workload.flags, "--trials", str(workload.trials),
            "--seed", str(program_seed(seed)), "--out", str(out_path)]


def import_cli():
    """Import ``twostage.cli`` from this checkout's ``src``, and nowhere else."""
    package = SRC / "twostage"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"bench: program source not found at {package}")
    if not CONFIG.is_file():
        raise SystemExit(f"bench: reference config not found at {CONFIG}")
    sys.path.insert(0, str(SRC))
    import twostage.cli as cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported twostage from {cli.__file__}, not {package}")
    return cli


def environment(seed):
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    env = {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "program_seed": program_seed(seed),
    }
    env.update({name: os.environ.get(name) for name in BLAS_VARIABLES})
    return env


def machine_speed():
    """How fast this machine runs a fixed pure-Python loop now, against the reference.

    The host's speed drifts by up to a third within minutes: shared cores,
    frequency changes. Every timed measurement is preceded by this loop and
    scaled by its result, so end-to-end times are in reference seconds and
    keep the program's own cost. The loop uses no numpy, so a BLAS or thread
    setting of the program does not change it.
    """
    start = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    return CALIBRATION_REF_S / (time.perf_counter() - start)


def measure_setup(argv, repeats):
    """Median (seconds, reference seconds) from process start until the first trial."""
    times = []
    for i in range(repeats + 1):  # the first start fills the bytecode cache
        speed = machine_speed()
        start = time.monotonic_ns()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if i:
            seconds = (int(proc.stdout.split()[-1]) - start) / 1e9
            times.append((seconds, seconds * speed))
    return (statistics.median(t for t, _ in times),
            statistics.median(t for _, t in times))


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


@dataclass
class Sample:
    wall: float  # seconds
    cpu: float  # seconds, this process plus reaped children
    child_cpu: float  # seconds, reaped children only
    speed: float  # machine_speed() just before the sweep


class SweepRunner:
    """Runs one workload's sweep in process and gates every CSV it writes."""

    def __init__(self, cli, workload, seed, work_dir):
        self.cli = cli
        self.workload = workload
        self.csv_path = Path(work_dir) / "sweep.csv"
        self.argv = sweep_argv(workload, seed, self.csv_path)
        pinned = gate.load_reference()["workloads"][workload.name]
        if pinned["trials"] != workload.trials:
            raise SystemExit(f"bench: reference.json pins {pinned['trials']} trials "
                             f"for {workload.name}, the workload runs {workload.trials}")
        self.pinned = pinned["seeds"][str(program_seed(seed))]
        self.first_csv = None
        self.problems = []
        self.sweeps = 0
        self.error_rows = 0

    def sweep(self):
        speed = machine_speed()
        captured = io.StringIO()
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        kids_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = self.cli.main(list(self.argv))
        wall = time.perf_counter() - start
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self._check(code, captured.getvalue())
        child_cpu = _cpu(kids_after) - _cpu(kids_before)
        return Sample(wall, _cpu(self_after) - _cpu(self_before) + child_cpu, child_cpu,
                      speed)

    def _check(self, code, printed):
        self.sweeps += 1
        text = self.csv_path.read_text()
        self.csv_path.unlink()
        if self.first_csv is None:
            self.first_csv = text
            rows = gate.parse_rows(text)
            self.error_rows = gate.error_rows(rows)
            self.problems += gate.check(rows, self.workload.rows_per_sweep, self.pinned)
        elif text != self.first_csv:
            self.problems.append(f"sweep {self.sweeps} wrote a CSV that differs "
                                 "from the first sweep's")
        if code != 0:
            self.problems.append(f"sweep {self.sweeps} returned {code}")
        if f"{self.workload.rows_per_sweep} rows in " not in printed:
            self.problems.append(f"sweep {self.sweeps} printed no row-count line")

    def repeat(self, seconds, after_each=None):
        """Sweeps until ``seconds`` have passed; at least one."""
        samples = []
        deadline = time.perf_counter() + seconds
        while True:
            samples.append(self.sweep())
            if after_each is not None:
                after_each()
            if time.perf_counter() >= deadline:
                return samples

    def counts(self):
        """(rows attempted, rows tagged as errors) over every sweep so far."""
        return (self.sweeps * self.workload.rows_per_sweep,
                self.sweeps * self.error_rows)


# Run totals rather than per-sweep medians: sweep speed on a shared host
# switches between a few levels, and the median jumps between them while the
# ratio of sums moves smoothly.
def _rate(samples, trials, calibrated=True):
    """Trials per (reference, or else wall) second over all the samples."""
    return trials * len(samples) / sum(s.wall * (s.speed if calibrated else 1)
                                       for s in samples)


def _cpu_ms(samples, trials, calibrated=True):
    return 1e3 * sum(s.cpu * (s.speed if calibrated else 1)
                     for s in samples) / (trials * len(samples))


def end_to_end(runner, seconds):
    """Bounded metrics, and the same figures in wall seconds for the report."""
    trials = runner.workload.trials_per_sweep
    setup_wall, setup = measure_setup(runner.argv, SETUP_REPEATS if seconds > 0 else 1)
    runner.sweep()  # warm-up
    samples = runner.repeat(seconds)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "trials_per_s": (_rate(samples, trials), "1/s"),
        "cpu_ms_per_trial": (_cpu_ms(samples, trials), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    wall = {
        "wall.trials_per_s": (_rate(samples, trials, calibrated=False), "1/s"),
        "wall.cpu_ms_per_trial": (_cpu_ms(samples, trials, calibrated=False), "ms"),
        "wall.setup_s": (setup_wall, "s"),
        "machine_speed": (statistics.median(s.speed for s in samples), "ratio"),
    }
    return metrics, wall


def per_layer(runner, seconds, spool_dir):
    """Half the time untraced, half traced; per-trial span figures and overhead."""
    workload = runner.workload
    trials = workload.trials_per_sweep
    runner.sweep()  # warm-up
    plain = runner.repeat(seconds / 2)
    tracer = sweeptrace.Tracer(spool_dir)
    processes = []

    def collect():
        processes.append(1 + tracer.collect_workers())

    tracer.install()
    try:
        traced = runner.repeat(seconds / 2, after_each=collect)
    finally:
        tracer.uninstall()
    traced_trials = trials * len(traced)
    metrics = {}
    for key, (calls, total, own) in tracer.stats.items():
        metrics[f"{key}.self_us"] = (own / 1e3 / traced_trials, "us/trial")
        metrics[f"{key}.total_us"] = (total / 1e3 / traced_trials, "us/trial")
        metrics[f"{key}.calls"] = (calls / traced_trials, "calls/trial")
    metrics["harness.worker_cpu_util"] = (
        sum(s.child_cpu for s in plain) / (sum(s.wall for s in plain) * workload.workers),
        "ratio")
    self_ns = sum(own for _, _, own in tracer.stats.values())
    busy_ns = sum(s.wall * n for s, n in zip(traced, processes)) * 1e9
    metrics["trace.coverage"] = (self_ns / busy_ns, "ratio")
    traced_rate = _rate(traced, trials)
    metrics["trace.trials_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (_rate(plain, trials) / traced_rate - 1, "ratio")
    return metrics, {}


def run_workload(cli, name, seed, seconds, trace):
    """One benchmark run of one workload; returns the result object."""
    workload = WORKLOADS[name]
    work_dir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        runner = SweepRunner(cli, workload, seed, work_dir)
        if trace:
            metrics, extra = per_layer(runner, seconds, work_dir)
        else:
            metrics, extra = end_to_end(runner, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed = runner.counts()
    return {
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }, runner.problems, extra


def report(name, result, problems, extra, env):
    print(f"env {json.dumps(env, sort_keys=True)}")
    for key, metric in result["metrics"].items():
        print(f"{name} {key} {metric['value']!r} {metric['unit']}")
    for key, (value, unit) in extra.items():
        print(f"{name} {key} {value!r} {unit}")
    share = result["failed"] / result["attempted"]
    print(f"{name} error_row_share {share!r} share "
          f"({result['failed']} of {result['attempted']} rows)")
    for problem in problems:
        print(f"{name} GATE FAILED: {problem}")
    print(json.dumps(result), flush=True)


def run_all(args):
    """Every workload in its own interpreter, so peak RSS stays per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.workload == "all":
        import_cli()  # fail early on a tree without the program
        return run_all(args)
    cli = import_cli()
    env = environment(args.seed)
    result, problems, extra = run_workload(cli, args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    report(args.workload, result, problems, extra, env)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
