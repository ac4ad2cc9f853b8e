"""End-to-end acceptance runs for the estimator at its reference scale.

Each test checks one headline property and prints ``[acceptance] name: PASS
(...)`` lines with the measured numbers (visible under ``pytest -s``). Each
oracle property runs from three roots: its own acceptance seed, and the
streams ``RngState(0).split(i)`` and ``RngState(7).split(i)``, where ``i`` is
its index in the order combiner independence, sampled-column subspace,
appended-column interlacing, sounder constraints, channel uses, noiseless
exactness. The Monte Carlo criteria share one 200-trial sweep.
"""

import math
import time

import numpy as np
import pytest

from twostage.channel import SystemConfig, generate_channel
from twostage.harness import SweepSpec, rows_to_csv, run_sweep, summarize
from twostage.numkit import RngState, sample_complex_gaussian
from twostage.pipeline import two_stage_estimate
from twostage.stage2 import build_dictionary, design_sounder_omp
from twostage.subspace import estimate_stage1, subspace_distance

from oracles import dft_combiner, interlacing_check, sound_and_invert_block


def _ok(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


def _roots(index, seed):
    """(label, root) for an oracle's acceptance seed and its two seed-root streams."""
    return [(f"root {seed}", RngState(seed)),
            *((f"root {r}.split({index})", RngState(r).split(index)) for r in (0, 7))]


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


def test_noiseless_recovery_is_exact_at_scale():
    # without noise, ideal mode recovers the reference-scale channel exactly
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    for label, rng in _roots(5, 600):
        start = time.monotonic()
        worst = 0.0
        for i in range(20):
            real = generate_channel(cfg, rng.split(i, 0))
            rep = two_stage_estimate(real, cfg, 8, 0.0, rng.split(i, 1), mode="ideal")
            worst = max(worst, rep.nmse)
        elapsed = time.monotonic() - start
        assert worst <= 1e-18, (label, worst)
        assert elapsed < 30.0
        _ok("noiseless-recovery",
            f"{label}: max NMSE {worst:.3e} over 20 channels, {elapsed:.1f}s")


def test_any_full_rank_combiner_bank_recovers_the_same_block():
    cfg = SystemConfig(n_rx=16, n_tx=24, paths=3, n_rf=4)
    for label, rng in _roots(0, 100):
        worst = 0.0
        for i in range(50):
            h_s = generate_channel(cfg, rng.split(i, 0)).h[:, :6]
            noise = sample_complex_gaussian(rng.split(i, 1), 16, 6, 0.05)
            gaussian = sample_complex_gaussian(rng.split(i, 2), 16, 16, 1.0)
            for bank in (dft_combiner(16), gaussian):
                y_tilde = sound_and_invert_block(h_s, bank, noise)
                worst = max(worst, float(np.max(np.abs(y_tilde - h_s - noise))))
        assert worst <= 1e-9, (label, worst)
        _ok("combiner-independence",
            f"{label}: max entrywise deviation {worst:.3e} over 50 instances, 2 banks")


def test_appended_in_span_columns_interlace():
    # an appended in-span column moves the rank-th singular value inside its cap
    cfg = SystemConfig(n_rx=16, n_tx=48, paths=3, n_rf=4)
    for label, rng in _roots(2, 200):
        lo = margin = math.inf
        for i in range(100):
            h_s = generate_channel(cfg, rng.split(i, 0)).h[:, :6]
            coeffs = sample_complex_gaussian(rng.split(i, 1), 6, 1, 1.0)[:, 0]
            delta, upper = interlacing_check(h_s, h_s @ coeffs, rank=3)
            lo = min(lo, delta)
            margin = min(margin, upper - delta)
        assert lo >= -1e-9 and margin >= -1e-9, (label, lo, margin)
        _ok("appended-column-interlacing",
            f"{label}: 100 draws, min delta {lo:.3e}, tightest cap margin {margin:.3e}")


def test_sampled_columns_expose_the_receive_subspace():
    # without noise, m >= paths sampled columns span the channel's column space
    cfg = SystemConfig(n_rx=16, n_tx=48, paths=3, n_rf=4)
    for label, rng in _roots(1, 300):
        worst = 0.0
        for i in range(100):
            m = (3, 4, 6)[i % 3]
            real = generate_channel(cfg, rng.split(i))
            d = subspace_distance(real.basis, estimate_stage1(real.h[:, :m], 3).basis)
            worst = max(worst, d)
        assert worst <= 1e-10, (label, worst)
        _ok("sampled-column-subspace",
            f"{label}: max distance {worst:.3e} over 100 noiseless draws, m in (3, 4, 6)")


def test_sounding_budget_stays_below_the_parameter_count():
    # the reference-scale budget is exactly 152 / 168 uses, below the 624 parameters
    for label, rng in _roots(4, 400):
        totals = {}
        for n_rf in (8, 6):
            cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=n_rf)
            rep = two_stage_estimate(generate_channel(cfg, rng.split(0)), cfg, 8, 0.01,
                                     rng.split(1))
            totals[n_rf] = (rep.channel_uses_total, rep.dof)
        assert totals == {8: (152, 624), 6: (168, 624)}, (label, totals)
        _ok("sounding-budget",
            f"{label}: {totals[8][0]} uses divisible, {totals[6][0]} with a partial use, "
            f"parameter counts {totals[8][1]} and {totals[6][1]}")


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
    # sounders are constant-modulus, residuals never grow, in-dictionary targets fit
    atoms = build_dictionary(16, 32)
    cfg = SystemConfig(n_rx=16, n_tx=48, paths=3, n_rf=5)
    target = np.linalg.qr(atoms[:, [5, 20]])[0]
    exact = design_sounder_omp(target, atoms, 2).residual
    assert exact <= 1e-8
    for label, rng in _roots(3, 500):
        worst_mod = 0.0
        for i in range(20):
            sounder = design_sounder_omp(generate_channel(cfg, rng.split(i)).basis, atoms, 5)
            dev = np.max(np.abs(np.abs(sounder.analog) - 1.0 / math.sqrt(16)))
            worst_mod = max(worst_mod, float(dev))
            path = sounder.residual_path
            assert all(b <= a + 1e-12 for a, b in zip(path, path[1:])), (label, i, path)
        assert worst_mod <= 1e-12, (label, worst_mod)
        _ok("sounder-constraints",
            f"{label}: max modulus deviation {worst_mod:.3e} over 20 designs, residuals "
            f"monotone, exact target residual {exact:.3e}")


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
