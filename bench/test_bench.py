"""Tests of the sweep benchmark in tiny mode (``--seconds 0``: one measured sweep).

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=BENCH.parent, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "13",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_end_to_end_metric_appears_with_its_unit(workload):
    proc = _bench(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(result) == want
    for name, unit in want.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}")
                   for line in lines)
    assert any(line.startswith(f"{workload} error_row_share 0.0 share") for line in lines)
    for name in ("wall.trials_per_s", "wall.cpu_ms_per_trial", "wall.setup_s",
                 "machine_speed"):
        assert any(line.startswith(f"{workload} {name} ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("git_sha", "python", "numpy", "blas", "nproc", "seed",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        assert key in env
    assert env["seed"] == 13


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_yields_every_per_layer_metric(workload):
    proc = _bench(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    modes = run.WORKLOADS[workload].rows_per_trial - (workload == "reference")
    assert metrics["pipeline.two_stage_estimate.calls"] == modes
    assert metrics["harness._trial_rows.calls"] == 1
    assert 0.5 < metrics["trace.coverage"] <= 1.0
    assert (metrics["harness.worker_cpu_util"] > 0) == (workload == "modes-parallel")


def test_wrong_nmse_fails_the_gate(monkeypatch):
    cli = run.import_cli()
    import twostage.pipeline as pipeline

    right = pipeline.nmse
    monkeypatch.setattr(pipeline, "nmse", lambda h, h_hat: right(h, h_hat) * (1 + 1e-6))
    result, problems, _ = run.run_workload(cli, "wide-block", seed=0, seconds=0,
                                           trace=False)
    assert not result["correct"]
    assert any(problem.startswith("mean nmse of ") for problem in problems)


def test_gate_catches_missing_rows_and_bad_distances():
    pinned = gate.load_reference()["workloads"]["wide-block"]["seeds"]["0"]
    rows = [(*key.split(","), nmse, dist) for key, (nmse, dist) in pinned.items()]
    assert gate.check(rows, len(rows), pinned) == []
    assert any("rows, expected" in p for p in gate.check(rows[1:], len(rows), pinned))
    bad = [(*rows[0][:4], 1.5)] + rows[1:]
    assert any("outside [0, 1]" in p for p in gate.check(bad, len(rows), pinned))


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("reference", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
