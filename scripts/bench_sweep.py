"""Write BENCH_sweep.json: the benchmark's figures for this tree in one file.

    python3 scripts/bench_sweep.py --seconds 30              # the committed file
    python3 scripts/bench_sweep.py --seconds 0 --no-tier1    # a smoke run

The file merges three things, each as its command prints it, all at seed 0:
- ``env`` and, per workload, the four end-to-end metrics (``end_to_end``) from
  ``bench/run.py --workload all --trace 0``;
- per workload, every traced span's ``self_us``, ``total_us`` and ``calls`` per
  trial, with the trace's own figures (``per_layer``), from
  ``bench/run.py --workload all --trace 1``;
- the wall time and summary line of the tier-1 suite, ``python3 -m pytest -q``
  (``tier1``).

It only reads bench/run.py's output. Exits 1 if a benchmark run fails its gate,
the suite fails, or the written file lacks a finite value of an end-to-end metric
that BENCHMARK.json declares, for any workload it declares.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the tier-1 command's import path: this tree's src first
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def _run(*args):
    """Exit status and standard output of one command run from the repository root."""
    proc = subprocess.run(args, cwd=ROOT, env=ENV, capture_output=True, text=True)
    # 1 is a failed gate or test, which the output records; anything else is a crash
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_sweep: {' '.join(args)} exited with {proc.returncode}")
    return proc.returncode, proc.stdout.splitlines()


def _bench(seconds, trace):
    _, lines = _run(sys.executable, "bench/run.py", "--workload", "all", "--seed", "0",
                    "--seconds", str(seconds), "--trace", str(trace))
    return lines


def _unwritten(path):
    """BENCHMARK.json's workload/metric pairs with no finite end-to-end value in ``path``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads(path.read_text())["workloads"]
    missing = []
    for workload in declared["workloads"]:
        written = workloads.get(workload["name"], {}).get("end_to_end", {})
        for metric in declared["end_to_end"]:
            value = written.get(metric["name"], {}).get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                missing.append(f"{workload['name']}/{metric['name']}")
    return missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--no-tier1", action="store_true", help="skip the tier-1 timing")
    args = parser.parse_args(argv)

    lines = _bench(args.seconds, 0)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    untraced = json.loads(lines[-1])["workloads"]
    traced = json.loads(_bench(args.seconds, 1)[-1])["workloads"]
    report = {
        "command": f"python3 scripts/bench_sweep.py --seconds {args.seconds:g}"
                   + " --no-tier1" * args.no_tier1,
        "env": env,
        "workloads": {name: {
            "correct": result["correct"] and traced[name]["correct"],
            "failed_rows": result["failed"] + traced[name]["failed"],
            "end_to_end": result["metrics"],
            "per_layer": traced[name]["metrics"],
        } for name, result in untraced.items()},
    }
    passed = all(w["correct"] for w in report["workloads"].values())
    if not args.no_tier1:
        start = time.perf_counter()
        status, out = _run(sys.executable, "-m", "pytest", "-q")
        report["tier1"] = {"wall_s": time.perf_counter() - start, "summary": out[-1]}
        passed = passed and status == 0
    path = ROOT / "BENCH_sweep.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if missing := _unwritten(path):
        sys.stderr.write(f"bench_sweep: no finite value for {', '.join(missing)}\n")
    return 0 if passed and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
