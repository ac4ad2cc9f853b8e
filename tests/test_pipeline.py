import copy
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import numkit, stage2, subspace
from twostage.channel import SystemConfig, generate_channel
from twostage.harness import SweepSpec, _trial_rows, noise_var_from_snr_db
from twostage.numkit import RngState, sample_complex_gaussian
from twostage.pipeline import (
    RECOVERY_MODES,
    degrees_of_freedom,
    full_observation_baseline,
    nmse,
    two_stage_estimate,
)
from twostage.stage2 import sound_and_recover_block
from twostage.subspace import estimate_stage1

from oracles import dft_combiner, sound_and_invert_block


def _run(seed, mode="pseudo-inverse", sigma2=0.1):
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2, seed=seed)
    real = generate_channel(cfg, RngState(seed))
    return cfg, real, two_stage_estimate(real, cfg, 4, sigma2, RngState(seed, (1,)),
                                         mode)


# ------------------------------------------------------------------- metrics


def test_nmse_examples():
    h = np.eye(3, dtype=complex)
    assert nmse(h, h) == 0.0
    assert nmse(h, np.zeros_like(h)) == 1.0
    np.testing.assert_allclose(nmse(h, 2.0 * h), 1.0, rtol=1e-15)
    with pytest.raises(ValueError, match="zero energy"):
        nmse(np.zeros_like(h), h)
    with pytest.raises(ValueError, match="shape"):
        nmse(h, np.eye(4, dtype=complex))
    bad = h.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="true channel contains 1 non-finite"):
        nmse(bad, h)
    with pytest.raises(ValueError, match="estimate contains 1 non-finite"):
        nmse(h, bad)


def test_numerical_rejections_are_linalg_errors():
    # a sweep turns only np.linalg.LinAlgError into an error row
    h = np.eye(3, dtype=complex)
    bad = h.copy()
    bad[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="estimate contains 1 non-finite"):
        nmse(h, bad)
    # an error energy that overflows float64 comes back inf, with no warning
    with pytest.raises(np.linalg.LinAlgError, match="NMSE is not finite"):
        nmse(np.ones((4, 6)), 1e200 * np.ones((4, 6)))
    with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
        sound_and_recover_block(np.ones((8, 3)), np.ones((8, 2)), 0.0, RngState(0))
    with pytest.raises(np.linalg.LinAlgError, match="subspace distance is not finite"):
        subspace.subspace_distance(h[:, 1:], bad[:, 1:])


def test_degrees_of_freedom_examples():
    assert degrees_of_freedom(32, 128, 4) == 624
    assert degrees_of_freedom(4, 4, 1) == 7
    assert degrees_of_freedom(2, 2, 1) == 3
    assert degrees_of_freedom(5, 5, 5) == 25  # full rank: every entry free
    with pytest.raises(ValueError):
        degrees_of_freedom(4, 4, 0)
    with pytest.raises(ValueError):
        degrees_of_freedom(4, 4, 5)
    for counts in ((32, 128, 4.5), (32.0, 128, 4), (32, 128.0, 4), (32, 128, 4.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            degrees_of_freedom(*counts)
    assert degrees_of_freedom(np.int64(32), 128, np.int32(4)) == 624


# ----------------------------------------------------------- exact regimes


def test_noiseless_ideal_run_is_exact_to_machine_precision():
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6, seed=5)
    real = generate_channel(cfg, RngState(5))
    report = two_stage_estimate(real, cfg, 8, 0.0, RngState(5, (1,)), mode="ideal")
    assert report.nmse <= 1e-18
    assert report.subspace_dist <= 1e-18


@pytest.mark.parametrize("m", [4, 32, 128])
def test_stage1_equals_sounding_and_inverting_through_any_bank(m):
    # the estimate forms H_S + N directly; sounding the same noise through
    # the DFT bank or a Gaussian bank and inverting gives the same stage 1
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6, seed=6)
    real = generate_channel(cfg, RngState(6))
    report = two_stage_estimate(real, cfg, m, 0.1, RngState(6, (1,)))
    noise = sample_complex_gaussian(RngState(6, (1,)), 32, m, 0.1)  # replayed
    gaussian = sample_complex_gaussian(RngState(6, (2,)), 32, 32, 1.0)
    for bank in (dft_combiner(32), gaussian):
        block = sound_and_invert_block(real.h[:, :m], bank, noise)
        expected = estimate_stage1(block, cfg.paths).denoised
        error = np.linalg.norm(report.h_hat[:, :m] - expected)
        assert error <= 1e-12 * np.linalg.norm(expected)


def test_sounded_block_passes_through_unchanged_without_noise():
    _, real, report = _run(7, sigma2=0.0, mode="ideal")
    np.testing.assert_allclose(report.h_hat[:, :4], real.h[:, :4], atol=1e-10)


def test_ideal_mode_is_no_upper_bound_at_low_snr():
    # same channel and same stage-1/stage-2 stream for both modes; at 0 dB the
    # exact-PCA sounder of ``ideal`` does worse than the designed hybrid sounder
    gaps = []
    for seed in range(60):
        cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6, seed=seed)
        real = generate_channel(cfg, RngState(seed))
        ideal, pinv = (two_stage_estimate(real, cfg, 8, 1.0, RngState(seed, (1,)), mode)
                       for mode in ("ideal", "pseudo-inverse"))
        gaps.append(ideal.nmse - pinv.nmse)
    assert np.mean(gaps) > 0.1


def test_noiseless_pseudo_inverse_floor_is_the_grid_mismatch():
    # without noise the only error left is the off-grid mismatch of the OMP
    # dictionary; over these 100 seeds the mean is 1.23e-2, 6.4e-3 and 2.3e-3
    # at grid sizes 64 (the default), 128 and 256
    floors = []
    for grid_size in (64, 128, 256):
        cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6, grid_size=grid_size)
        runs = []
        for s in range(100):
            real = generate_channel(cfg, RngState(s).split(0))
            runs.append(two_stage_estimate(real, cfg, 8, 0.0, RngState(s).split(1)).nmse)
        floors.append(np.mean(runs))
    assert 1.0e-2 <= floors[0] <= 1.5e-2
    assert floors[0] > floors[1] > floors[2]


# --------------------------------------------------------------------- cost


def _factorizations_of_one_estimate(monkeypatch, m, mode):
    calls = {}
    for name in ("svd", "eigh", "eigvalsh", "lstsq", "cond", "solve"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    real = generate_channel(cfg, RngState(2))
    real.basis  # the realization's own QR, cached before the count
    two_stage_estimate(real, cfg, m, 0.1, RngState(3), mode=mode)
    return calls


@pytest.mark.parametrize("m, expected", [
    (8, {"pseudo-inverse": {"svd": 1, "eigh": 1, "eigvalsh": 1},
         "paper-literal": {"svd": 1, "eigvalsh": 1}}),
    (32, {"pseudo-inverse": {"eigh": 2, "eigvalsh": 1}}),
])
def test_each_step_of_a_trial_runs_at_most_one_factorization(monkeypatch, m, expected):
    # stage 1 forms H_S + N with no bank, the PCA takes one SVD (tall
    # block) or one eigh (square), stage 2 one eigh (none for paper-literal's
    # W y) and the subspace distance one eigvalsh; OMP holds its product, so
    # no lstsq refit, and no cond and no solve anywhere
    for mode, counts in expected.items():
        assert _factorizations_of_one_estimate(monkeypatch, m, mode) == counts


def test_ideal_recovery_takes_no_stage2_factorization(monkeypatch):
    # the orthonormal PCA basis is its own least-squares recovery: no Gram eigh
    calls = _factorizations_of_one_estimate(monkeypatch, 8, "ideal")
    assert calls == {"svd": 1, "eigvalsh": 1}


def test_a_reference_trial_checks_each_array_once(monkeypatch):
    # each estimator checks the channel once and each nmse its two arguments;
    # the stage functions, and the distance between the bases the pipeline
    # built, check nothing again; the two-stage estimate and the baseline each
    # take one PCA and one distance, and only the former sounds stage 2
    counted_fns = ((numkit, "as_complex_matrix"), (subspace, "estimate_stage1"),
                   (stage2, "design_sounder_omp"), (stage2, "sound_and_recover_block"),
                   (subspace, "subspace_distance"))
    calls = dict.fromkeys((name for _, name in counted_fns), 0)
    modules = [mod for key, mod in sys.modules.items() if key.startswith("twostage.")]
    for defining, name in counted_fns:
        original = getattr(defining, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for mod in modules:  # patched under every name it is bound to
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    spec = SweepSpec(SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6), trials=1)
    rows = _trial_rows(spec, 4, 1, 0)
    assert [row.mode for row in rows] == ["pseudo-inverse", "full-observation"]
    assert calls == {"as_complex_matrix": 6, "estimate_stage1": 2, "design_sounder_omp": 1,
                     "sound_and_recover_block": 1, "subspace_distance": 2}


# ------------------------------------------------------------------- budget


def test_channel_use_accounting_at_the_reference_scale():
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=8)
    real = generate_channel(cfg, RngState(9))
    report = two_stage_estimate(real, cfg, 8, 0.0, RngState(9, (1,)), mode="ideal")
    assert report.channel_uses_stage1 == 32
    assert report.channel_uses_stage2 == 120
    assert report.channel_uses_total == 152
    assert report.dof == 624
    assert report.channel_uses_total < report.dof

    # 32 rows in 6-row uses: 6 uses per column, the last one partial
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    real = generate_channel(cfg, RngState(9))
    report = two_stage_estimate(real, cfg, 8, 0.0, RngState(9, (1,)), mode="ideal")
    assert report.channel_uses_stage1 == 48
    assert report.channel_uses_total == 168
    assert report.channel_uses_total < report.dof


def _budget(n_r, n_t, paths, m, n_rf):
    uses = m * math.ceil(n_r / n_rf) + (n_t - m)
    return uses, degrees_of_freedom(n_r, n_t, paths)


def test_chain_count_above_the_critical_ratio_stays_below_the_parameter_count():
    # on divisible configs the strict bound n_rf > n_r * m / (dof - n_t + m)
    # is exactly equivalent to spending fewer uses than parameters
    checked = 0
    for n_r in (8, 16, 32):
        for n_t in (16, 32, 64, 128):
            for paths in (1, 2, 4):
                if paths > min(n_r, n_t):
                    continue
                dof = degrees_of_freedom(n_r, n_t, paths)
                for m in range(paths, min(12, n_t) + 1):
                    for n_rf in (2, 4, 8, 16):
                        if n_r % n_rf != 0:
                            continue
                        if n_rf <= n_r * m / (dof - n_t + m):
                            continue
                        uses, dof = _budget(n_r, n_t, paths, m, n_rf)
                        assert uses < dof, (n_r, n_t, paths, m, n_rf)
                        checked += 1
    assert checked > 100


def test_budget_boundary_cases_are_documented():
    # equality in the critical ratio gives uses == dof, not fewer
    uses, dof = _budget(8, 16, 1, 7, 4)
    assert 4 == 8 * 7 / (dof - 16 + 7)
    assert uses == dof == 23
    # a non-divisible chain count above the ratio can still overshoot,
    # because the last use of each column is mostly idle
    uses, dof = _budget(8, 16, 1, 8, 5)
    assert 5 > 8 * 8 / (dof - 16 + 8)
    assert uses == 24 and dof == 23


# ------------------------------------------------------------- report fields


def test_reports_are_deterministic_and_seed_sensitive():
    _, _, a = _run(11)
    _, _, b = _run(11)
    _, _, c = _run(12)
    np.testing.assert_array_equal(a.h_hat, b.h_hat)
    assert a.nmse == b.nmse
    assert not np.array_equal(a.h_hat, c.h_hat)


def test_requested_mode_and_shape_are_recorded():
    cfg, _, report = _run(13, mode="paper-literal")
    assert report.mode == "paper-literal"
    assert report.h_hat.shape == (cfg.n_rx, cfg.n_tx)


def test_an_unknown_mode_is_rejected():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(15))
    with pytest.raises(ValueError, match="unknown recovery mode"):
        two_stage_estimate(real, cfg, 4, 0.1, RngState(0), mode="oracle")


def test_estimate_rejects_bad_sampled_column_counts_and_noise():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(16))
    with pytest.raises(ValueError, match="m="):
        two_stage_estimate(real, cfg, 1, 0.1, RngState(0))  # below the path count
    with pytest.raises(ValueError, match="m="):
        two_stage_estimate(real, cfg, 17, 0.1, RngState(0))  # beyond the transmit array
    for bad in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            two_stage_estimate(real, cfg, 4, bad, RngState(0))
        with pytest.raises(ValueError, match="finite and non-negative"):
            full_observation_baseline(real, bad, RngState(0))
    for m in (2, 16):  # both ends of the range are admitted
        assert np.isfinite(two_stage_estimate(real, cfg, m, 0.1, RngState(0)).nmse)


def test_estimate_rejects_a_realization_of_another_shape():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(46))
    three = generate_channel(dataclasses.replace(cfg, paths=3, n_rf=3), RngState(46))
    for other, match in ((dataclasses.replace(real, h=real.h[:, :3]), "does not match"),
                         (dataclasses.replace(real, h=real.h[:4]), "does not match"),
                         (three, "with 3 paths does not match the 8 x 16 scenario with 2")):
        rng = RngState(0)
        with pytest.raises(ValueError, match=match):
            two_stage_estimate(other, cfg, 2, 0.0, rng)
        assert "generator" not in vars(rng)  # rejected before any draw


@pytest.mark.parametrize("column", [3, 12], ids=["sounded", "remaining"])
def test_a_non_finite_channel_is_rejected_before_any_draw(column):
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(47))
    h = real.h.copy()
    h[5, column] = np.nan
    real = dataclasses.replace(real, h=h)
    for estimate in (lambda rng: two_stage_estimate(real, cfg, 4, 0.1, rng),
                     lambda rng: full_observation_baseline(real, 0.1, rng)):
        rng = RngState(0)
        before = copy.deepcopy(rng.generator.bit_generator.state)
        with pytest.raises(ValueError, match="channel contains 1 non-finite"):
            estimate(rng)
        np.testing.assert_equal(rng.generator.bit_generator.state, before)


# ----------------------------------------------------------------- baseline


def test_noiseless_baseline_reproduces_the_channel():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(17))
    report = full_observation_baseline(real, 0.0, RngState(18))
    assert report.nmse <= 1e-18
    assert report.channel_uses_total == 8 * 16
    assert report.channel_uses_stage2 == 0
    assert report.mode == "full-observation"
    assert report.dof == degrees_of_freedom(8, 16, 2)


def test_baseline_matches_an_independent_truncation_oracle():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(19))
    report = full_observation_baseline(real, 0.3, RngState(20))
    noise = sample_complex_gaussian(RngState(20), 8, 16, 0.3)
    u, s, vh = np.linalg.svd(real.h + noise, full_matrices=False)
    oracle = (u[:, :2] * s[:2]) @ vh[:2]
    np.testing.assert_allclose(report.h_hat, oracle, atol=1e-12)


@pytest.mark.parametrize("snr_db", [-10.0, 10.0])
def test_a_two_stage_estimate_of_every_column_is_the_baseline(snr_db):
    # with m = N_t there is no stage 2: the same stream gives the same noise
    # and the same PCA, so only the channel-use count and the label differ
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    sigma2 = noise_var_from_snr_db(snr_db)
    for seed in range(3):
        real = generate_channel(cfg, RngState(seed, (0,)))
        every = two_stage_estimate(real, cfg, cfg.n_tx, sigma2, RngState(seed, (1,)))
        floor = full_observation_baseline(real, sigma2, RngState(seed, (1,)))
        assert every.h_hat.tobytes() == floor.h_hat.tobytes()
        assert (every.nmse, every.subspace_dist) == (floor.nmse, floor.subspace_dist)
        assert (every.channel_uses_total, floor.channel_uses_total) == (768, 4096)


# -------------------------------------------------------------- corner configs


@st.composite
def corner_configs(draw):
    """Small (scenario, m, noise variance) triples biased toward accepted edges.

    Each corner is drawn on its own: more RF chains than receive antennas,
    every column sounded in stage 1 (m = n_tx), a dictionary with exactly
    n_rf atoms, no noise, and SNRs down to -20 dB.
    """
    n_rx = draw(st.integers(2, 12))
    n_tx = draw(st.integers(2, 20))
    paths = draw(st.integers(1, min(n_rx, n_tx) // 2))
    n_rf = draw(st.integers(max(2, paths), n_rx + 4))
    m = draw(st.one_of(st.just(n_tx), st.integers(paths, n_tx)))
    grid_size = draw(st.sampled_from([n_rf, max(n_rf, 2 * n_rx)]))
    snr_db = draw(st.one_of(st.just(math.inf), st.just(-20.0),
                            st.floats(-20.0, 30.0)))
    noise_var = 0.0 if snr_db == math.inf else 10.0 ** (-snr_db / 10.0)
    cfg = SystemConfig(n_rx=n_rx, n_tx=n_tx, paths=paths, n_rf=n_rf,
                       grid_size=grid_size)
    return cfg, m, noise_var


@settings(max_examples=80, deadline=None)
@given(corner=corner_configs(), seed=st.integers(0, 2**32 - 1))
def test_corner_configs_give_finite_metrics_in_every_mode(corner, seed):
    cfg, m, sigma2 = corner
    real = generate_channel(cfg, RngState(seed))
    reports = [two_stage_estimate(real, cfg, m, sigma2, RngState(seed, (1,)), mode)
               for mode in RECOVERY_MODES]
    reports.append(full_observation_baseline(real, sigma2, RngState(seed, (2,))))
    for report in reports:
        assert np.isfinite(report.nmse), report.mode
        assert 0.0 <= report.subspace_dist <= 1.0, report.mode
