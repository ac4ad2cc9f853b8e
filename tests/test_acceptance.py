"""End-to-end acceptance runs for the estimator at its reference scale.

Each test checks one headline property and prints a single
``[acceptance] name: PASS (...)`` line with the measured numbers (visible
under ``pytest -s``). The oracle properties run the package's check
functions, the same ones behind ``twostage check``, from fixed root seeds.
The Monte Carlo criteria share one 200-trial sweep.
"""

import math
import time

import pytest

from twostage.channel import SystemConfig
from twostage.harness import (
    SweepSpec,
    check_appended_column_interlacing,
    check_channel_uses,
    check_combiner_independence,
    check_noiseless_exactness,
    check_sampled_column_subspace,
    check_sounder_constraints,
    rows_to_csv,
    run_sweep,
    summarize,
)
from twostage.numkit import RngState


def _ok(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def reference_sweep():
    scenario = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6, seed=0)
    spec = SweepSpec(scenario=scenario, snr_db_list=(0.0, 10.0, 20.0),
                     m_list=(4, 8, 16, 32), trials=200,
                     modes=("pseudo-inverse",), baseline=True)
    start = time.monotonic()
    rows = run_sweep(spec)
    elapsed = time.monotonic() - start
    return rows, elapsed


def _check(name, check, rng):
    passed, detail = check(rng)
    assert passed, detail
    _ok(name, detail)


def test_noiseless_recovery_is_exact_at_scale():
    start = time.monotonic()
    passed, detail = check_noiseless_exactness(RngState(600))
    elapsed = time.monotonic() - start
    assert passed, detail
    assert elapsed < 30.0
    _ok("noiseless-recovery", f"{detail}, {elapsed:.1f}s")


def test_any_full_rank_combiner_bank_recovers_the_same_block():
    _check("combiner-independence", check_combiner_independence, RngState(100))


def test_appended_in_span_columns_interlace():
    _check("appended-column-interlacing", check_appended_column_interlacing,
           RngState(200))


def test_sampled_columns_expose_the_receive_subspace():
    _check("sampled-column-subspace", check_sampled_column_subspace, RngState(300))


def test_sounding_budget_stays_below_the_parameter_count():
    _check("sounding-budget", check_channel_uses, RngState(400))


def _grid(summary, mode):
    out = {}
    for s in summary:
        if s.mode == mode:
            out[(s.snr_db, s.m)] = s
    return out


def test_estimation_error_improves_with_wider_sampling_and_respects_the_floor(
        reference_sweep):
    rows, elapsed = reference_sweep
    assert elapsed < 600.0
    summary = summarize(rows)
    assert {s.mode for s in summary} == {"pseudo-inverse", "full-observation"}
    ours = _grid(summary, "pseudo-inverse")
    floor = _grid(summary, "full-observation")
    for m in (4, 8, 16, 32):
        assert ours[(10.0, m)].count == 200
    trend = [ours[(10.0, m)] for m in (4, 8, 16, 32)]
    for a, b in zip(trend, trend[1:]):
        slack = 2.0 * math.hypot(a.nmse_stderr, b.nmse_stderr)
        assert b.nmse_mean <= a.nmse_mean + slack
    wide, narrow = ours[(10.0, 16)], ours[(10.0, 4)]
    assert wide.nmse_mean <= narrow.nmse_mean + 2.0 * math.hypot(
        wide.nmse_stderr, narrow.nmse_stderr)
    for key, s in ours.items():
        assert s.nmse_mean >= floor[key].nmse_mean
    means = ", ".join(f"{s.nmse_mean:.3f}" for s in trend)
    _ok("estimation-error-trend",
        f"10 dB means over m=(4,8,16,32): {means}; floor respected at all "
        f"12 grid points; sweep took {elapsed:.1f}s")


def test_subspace_error_shrinks_with_more_sampled_columns(reference_sweep):
    rows, _ = reference_sweep
    ours = _grid(summarize(rows), "pseudo-inverse")
    pairs = []
    for snr in (0.0, 10.0, 20.0):
        wide, narrow = ours[(snr, 8)], ours[(snr, 4)]
        assert wide.subspace_dist_mean < narrow.subspace_dist_mean
        pairs.append(f"{snr:g} dB: {narrow.subspace_dist_mean:.3f} -> "
                     f"{wide.subspace_dist_mean:.3f}")
    _ok("subspace-error-vs-sampling", "; ".join(pairs))


def test_designed_sounders_respect_hardware_constraints():
    _check("sounder-constraints", check_sounder_constraints, RngState(500))


def test_repeated_sweeps_are_byte_identical(tmp_path):
    scenario = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2, seed=0)
    spec = SweepSpec(scenario=scenario, snr_db_list=(0.0, 10.0), m_list=(4,), trials=5,
                     modes=("pseudo-inverse",), baseline=True)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_bytes(rows_to_csv(run_sweep(spec)).encode("ascii"))
    second.write_bytes(rows_to_csv(run_sweep(spec)).encode("ascii"))
    assert first.read_bytes() == second.read_bytes()
    _ok("sweep-reproducibility",
        f"two runs, {len(first.read_bytes())} identical bytes")
