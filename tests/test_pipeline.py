import dataclasses
import itertools
import math
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import numkit, sounding, stage2, subspace
from twostage.channel import SystemConfig, generate_channel
from twostage.cli import _resolve, build_parser
from twostage.harness import (
    SweepSpec,
    _trial_rows,
    noise_var_from_snr_db,
    run_sweep,
    summarize,
)
from twostage.numkit import sample_complex_gaussian, stream
from twostage.pipeline import (
    RECOVERY_MODES,
    full_observation_baseline,
    nmse,
    two_stage_estimate,
)
from twostage.stage2 import recover_block
from twostage.subspace import estimate_stage1

from oracles import dft_combiner, sound_and_invert_block

ROOT = Path(__file__).resolve().parents[1]


def _run(seed):
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, stream(seed))
    return cfg, real, two_stage_estimate(real, cfg, 4, 0.1, stream(seed, 1))


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
    with pytest.raises(np.linalg.LinAlgError, match="true channel contains 1 non-finite"):
        nmse(bad, h)


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
        recover_block(np.ones((2, 3)), np.ones((8, 2)))
    with pytest.raises(np.linalg.LinAlgError, match="subspace distance is not finite"):
        subspace.subspace_distance(h[:, 1:], bad[:, 1:])


# ----------------------------------------------------------- exact regimes


def test_noiseless_recovery_is_exact_at_scale():
    # without noise, ideal mode recovers 20 reference-scale channels exactly
    # from every m of the reference grid: the sounded block passes through
    # unchanged and the column subspace is found to machine precision
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    for i in range(20):
        m = (4, 8, 16, 32)[i % 4]
        real = generate_channel(cfg, stream(600, i, 0))
        report = two_stage_estimate(real, cfg, m, 0.0, stream(600, i, 1), mode="ideal")
        assert report.nmse <= 1e-18, (i, m)
        assert report.subspace_dist <= 1e-18, (i, m)
        np.testing.assert_allclose(report.h_hat[:, :m], real.h[:, :m], atol=1e-10,
                                   err_msg=f"channel {i}, m={m}")


@pytest.mark.parametrize("m", [4, 32, 128])
def test_stage1_equals_sounding_and_inverting_through_any_bank(m):
    # the estimate forms H_S + N directly; sounding the same noise through
    # the DFT bank or a Gaussian bank and inverting gives the same stage 1
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    real = generate_channel(cfg, stream(6))
    report = two_stage_estimate(real, cfg, m, 0.1, stream(6, 1))
    noise = sample_complex_gaussian(stream(6, 1), 32, m, 0.1)  # replayed
    gaussian = sample_complex_gaussian(stream(6, 2), 32, 32, 1.0)
    dft = dft_combiner(32)
    np.testing.assert_allclose(np.abs(dft), 1 / math.sqrt(32), atol=1e-12)  # phase-only
    for bank in (dft, gaussian):
        block = sound_and_invert_block(real.h[:, :m], bank, noise)
        expected = estimate_stage1(block, cfg.paths).denoised
        error = np.linalg.norm(report.h_hat[:, :m] - expected)
        assert error <= 1e-12 * np.linalg.norm(expected)


def test_ideal_mode_is_no_upper_bound_at_low_snr():
    # same channel and same stage-1/stage-2 stream for both modes; at 0 dB the
    # exact-PCA sounder of ``ideal`` does worse than the designed hybrid sounder
    gaps = []
    for seed in range(60):
        cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
        real = generate_channel(cfg, stream(seed))
        ideal, pinv = (two_stage_estimate(real, cfg, 8, 1.0, stream(seed, 1), mode)
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
            real = generate_channel(cfg, stream(s, 0))
            runs.append(two_stage_estimate(real, cfg, 8, 0.0, stream(s, 1)).nmse)
        floors.append(np.mean(runs))
    assert 1.0e-2 <= floors[0] <= 1.5e-2
    assert floors[0] > floors[1] > floors[2]


# ---------------------------------------------------------- reference sweep


# the reference scenario and m grid at 0, 10 and 20 dB, with the floor
REFERENCE_SPEC = SweepSpec(SystemConfig(), snr_db_list=(0.0, 10.0, 20.0), trials=200)


@pytest.fixture(scope="module")
def reference_rows():
    return run_sweep(REFERENCE_SPEC)


@pytest.fixture(scope="module")
def reference_cells(reference_rows):
    return {(s.mode, s.snr_db, s.m): s for s in summarize(reference_rows)}


def test_estimation_error_improves_with_wider_sampling_and_respects_the_floor(
        reference_cells):
    assert len(reference_cells) == 24  # 12 grid points, estimate and floor
    trend = [reference_cells["pseudo-inverse", 10.0, m] for m in (4, 8, 16, 32)]
    for a, b in [*zip(trend, trend[1:]), (trend[0], trend[2])]:
        assert b.nmse_mean <= a.nmse_mean + 2.0 * math.hypot(a.nmse_stderr, b.nmse_stderr)
    for (mode, snr_db, m), cell in reference_cells.items():
        assert cell.count == 200
        if mode == "pseudo-inverse":
            floor = reference_cells["full-observation", snr_db, m]
            assert cell.nmse_mean >= floor.nmse_mean, (snr_db, m)


def test_subspace_error_shrinks_with_more_sampled_columns(reference_cells):
    for snr_db in (0.0, 10.0, 20.0):
        narrow, wide = (reference_cells["pseudo-inverse", snr_db, m] for m in (4, 8))
        assert wide.subspace_dist_mean < narrow.subspace_dist_mean, snr_db


def _readme_table():
    """The command (the first of its block) and the data rows of the README's
    Experiments table."""
    text = (ROOT / "README.md").read_text().split("## Experiments", 1)[1]
    found = re.search(r"```sh\n(twostage sweep [^\n]*)\n.*?```.*?\n\|[^\n]*\n\|[-| ]*\n"
                      r"((?:\|[^\n]*\n)+)", text, re.S)
    assert found is not None
    return found.group(1), found.group(2).splitlines()


def _table_rows(cells, uses):
    # per (SNR, m): the two-stage uses, then mean +- standard error of NMSE and
    # subspace_dist for pseudo-inverse and the floor, to 3 significant digits
    rows = []
    for snr_db in REFERENCE_SPEC.snr_db_list:
        for m in REFERENCE_SPEC.m_list:
            est, floor = (cells[mode, snr_db, m] for mode in ("pseudo-inverse",
                                                              "full-observation"))
            stats = [(s.nmse_mean, s.nmse_stderr) for s in (est, floor)]
            stats += [(s.subspace_dist_mean, s.subspace_dist_stderr) for s in (est, floor)]
            rows.append(f"| {snr_db:g} | {m} | {uses[m]} | "
                        + " | ".join(f"{mean:#.3g} ± {se:#.3g}" for mean, se in stats) + " |")
    return rows


def test_the_readme_table_command_is_the_reference_sweep():
    command, _ = _readme_table()
    parser = build_parser()
    spec, _ = _resolve(parser.parse_args(shlex.split(command)[1:]), parser)
    assert spec == REFERENCE_SPEC


def test_the_readme_table_prints_the_reference_sweep(reference_rows, reference_cells):
    _, table = _readme_table()
    uses = {row.m: row.channel_uses for row in reference_rows
            if row.mode == "pseudo-inverse"}
    assert table == _table_rows(reference_cells, uses)
    # three significant digits resolve a 1% shift of any one cell mean
    for key, cell in reference_cells.items():
        for name in ("nmse_mean", "subspace_dist_mean"):
            shifted = cell._replace(**{name: getattr(cell, name) * 1.01})
            assert _table_rows({**reference_cells, key: shifted}, uses) != table, key


# --------------------------------------------------------------------- cost


def _factorizations_of_one_estimate(monkeypatch, m, mode):
    calls = {}
    for name in ("svd", "eigh", "eigvalsh", "lstsq", "cond", "solve"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    real = generate_channel(cfg, stream(2))
    real.basis  # the realization's own QR, cached before the count
    two_stage_estimate(real, cfg, m, 0.1, stream(3), mode=mode)
    return calls


@pytest.mark.parametrize("m, expected", [
    (8, {"pseudo-inverse": {"svd": 1, "eigh": 1, "eigvalsh": 1},
         "paper-literal": {"svd": 1, "eigvalsh": 1},
         "ideal": {"svd": 1, "eigvalsh": 1}}),
    (32, {"pseudo-inverse": {"eigh": 2, "eigvalsh": 1}}),
])
def test_each_step_of_a_trial_runs_at_most_one_factorization(monkeypatch, m, expected):
    # stage 1 forms H_S + N with no bank, the PCA takes one SVD (tall
    # block) or one eigh (square), stage 2 one eigh (none for paper-literal's
    # W y, nor for ideal, whose orthonormal PCA basis is its own least-squares
    # recovery) and the subspace distance one eigvalsh; OMP holds its product,
    # so no lstsq refit, and no cond and no solve anywhere
    for mode, counts in expected.items():
        assert _factorizations_of_one_estimate(monkeypatch, m, mode) == counts


def test_a_reference_trial_checks_each_array_once(monkeypatch):
    # each estimator checks the channel once and each nmse its two arguments;
    # the stage functions, and the distance between the bases the pipeline
    # built, check nothing again; the two-stage estimate and the baseline each
    # take one PCA and one distance, the estimate observes twice and the
    # baseline once, and only the estimate recovers a stage-2 block
    counted_fns = ((numkit, "as_complex_matrix"), (sounding, "observe"),
                   (subspace, "estimate_stage1"), (stage2, "design_sounder_omp"),
                   (stage2, "recover_block"), (subspace, "subspace_distance"))
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
    assert calls == {"as_complex_matrix": 6, "observe": 3, "estimate_stage1": 2,
                     "design_sounder_omp": 1, "recover_block": 1, "subspace_distance": 2}


# ------------------------------------------------------------------- budget


def _uses(cfg, m):
    # what observe counts for the m sounded columns, then the rest through L columns
    h, rng = np.zeros((cfg.n_rx, cfg.n_tx), dtype=complex), stream(0)
    return (sounding.observe(h[:, :m], 0.0, rng, cfg.n_rf)[1]
            + sounding.observe(h[:, m:], 0.0, rng, cfg.n_rf, h[:, :cfg.paths])[1])


def test_chain_count_above_the_critical_ratio_stays_below_the_parameter_count():
    # on divisible configs the strict bound n_rf > n_r * m / (dof - n_t + m)
    # is exactly equivalent to spending fewer uses than parameters
    checked = 0
    for n_r, n_t, paths, n_rf in itertools.product((8, 16, 32), (16, 32, 64, 128),
                                                   (1, 2, 4), (2, 4, 8, 16)):
        try:
            cfg = SystemConfig(n_rx=n_r, n_tx=n_t, paths=paths, n_rf=n_rf)
        except ValueError:  # fewer chains than paths
            continue
        dof = cfg.dof
        for m in range(paths, 13):
            if n_r % n_rf == 0 and n_rf > n_r * m / (dof - n_t + m):
                assert _uses(cfg, m) < dof, (n_r, n_t, paths, m, n_rf)
                checked += 1
    assert checked == 1052


def test_budget_boundary_cases_are_documented():
    # equality in the critical ratio gives uses == dof, not fewer
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=1, n_rf=4)
    dof = cfg.dof
    assert 4 == 8 * 7 / (dof - 16 + 7)
    assert _uses(cfg, 7) == dof == 23
    # a non-divisible chain count above the ratio can still overshoot,
    # because the last use of each column is mostly idle
    assert 5 > 8 * 8 / (dof - 16 + 8)
    assert _uses(SystemConfig(n_rx=8, n_tx=16, paths=1, n_rf=5), 8) == 24


# ------------------------------------------------------------- report fields


def test_reports_are_deterministic_and_seed_sensitive():
    cfg, _, a = _run(11)
    _, _, b = _run(11)
    _, _, c = _run(12)
    assert a.h_hat.shape == (cfg.n_rx, cfg.n_tx)
    np.testing.assert_array_equal(a.h_hat, b.h_hat)
    assert a.nmse == b.nmse
    assert not np.array_equal(a.h_hat, c.h_hat)


def test_results_holding_arrays_compare_and_hash_by_identity():
    # generated value equality would compare the arrays and raise; the
    # scenario and sweep types hold no arrays and keep value equality
    cfg, real, a = _run(14)
    _, _, b = _run(14)
    np.testing.assert_array_equal(a.h_hat, b.h_hat)
    assert a == a and a != b
    assert len({a, b, real, a}) == 3
    assert cfg == dataclasses.replace(cfg) and hash(cfg) == hash(dataclasses.replace(cfg))


_SMALL = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
_REAL = generate_channel(_SMALL, stream(16))


def _two_stage(real=_REAL, m=4, sigma2=0.1, mode="pseudo-inverse"):
    return lambda rng: two_stage_estimate(real, _SMALL, m, sigma2, rng, mode)


def _with_h(h):
    return dataclasses.replace(_REAL, h=h)


def _nan_in_column(column):
    h = _REAL.h.copy()
    h[5, column] = np.nan
    return _with_h(h)


@pytest.mark.parametrize("estimate, match", [
    (_two_stage(mode="oracle"), "unknown recovery mode"),
    # both ends of the range are admitted: m = L in the noiseless recovery test,
    # m = N_t in the test of a two-stage estimate of every column
    (_two_stage(m=1), "m=1 must satisfy"),
    (_two_stage(m=17), "m=17 must satisfy"),
    # one noise variance each; test_sounding tabulates the rejected values
    (_two_stage(sigma2=math.nan), "finite and non-negative"),
    (lambda rng: full_observation_baseline(_REAL, -0.5, rng), "finite and non-negative"),
    (_two_stage(_with_h(_REAL.h[:, :3])), "does not match"),
    (_two_stage(_with_h(_REAL.h[:4])), "does not match"),
    (_two_stage(generate_channel(dataclasses.replace(_SMALL, paths=3, n_rf=3), stream(46))),
     "with 3 paths does not match the 8 x 16 scenario with 2"),
    (_two_stage(_nan_in_column(3)), "channel contains 1 non-finite"),
    (_two_stage(_nan_in_column(12)), "channel contains 1 non-finite"),
    (lambda rng: full_observation_baseline(_nan_in_column(12), 0.1, rng),
     "channel contains 1 non-finite"),
], ids=["unknown-mode", "m-below-the-path-count", "m-beyond-the-transmit-array",
        "estimate-noise", "baseline-noise", "fewer-columns", "fewer-rows", "more-paths",
        "estimate-nan-sounded", "estimate-nan-remaining", "baseline-nan"])
def test_a_rejected_estimate_raises_before_any_draw(estimate, match):
    rng = stream(0)
    with pytest.raises(ValueError, match=match):
        estimate(rng)
    np.testing.assert_equal(rng.bit_generator.state, stream(0).bit_generator.state)


# ----------------------------------------------------------------- baseline


def test_baseline_matches_an_independent_truncation_oracle():
    # without noise the rank-2 truncation is the channel itself
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    for seed, sigma2 in ((19, 0.3), (17, 0.0)):
        real = generate_channel(cfg, stream(seed))
        report = full_observation_baseline(real, sigma2, stream(seed + 1))
        noise = sample_complex_gaussian(stream(seed + 1), 8, 16, sigma2)
        u, s, vh = np.linalg.svd(real.h + noise, full_matrices=False)
        oracle = (u[:, :2] * s[:2]) @ vh[:2]
        np.testing.assert_allclose(report.h_hat, oracle, atol=1e-12)
        assert (report.channel_uses_total, report.channel_uses_stage2) == (8 * 16, 0)
        assert sigma2 > 0.0 or report.nmse <= 1e-18


@pytest.mark.parametrize("snr_db", [-10.0, 10.0])
def test_a_two_stage_estimate_of_every_column_is_the_baseline(snr_db):
    # with m = N_t there is no stage 2: the same stream gives the same noise
    # and the same PCA, so only the channel-use count and the label differ
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    sigma2 = noise_var_from_snr_db(snr_db)
    for seed in range(3):
        real = generate_channel(cfg, stream(seed, 0))
        every = two_stage_estimate(real, cfg, cfg.n_tx, sigma2, stream(seed, 1))
        floor = full_observation_baseline(real, sigma2, stream(seed, 1))
        assert every.h_hat.tobytes() == floor.h_hat.tobytes()
        assert (every.nmse, every.subspace_dist) == (floor.nmse, floor.subspace_dist)
        assert (every.channel_uses_total, floor.channel_uses_total) == (768, 4096)


def test_the_baseline_sits_at_the_parameter_count_floor_at_high_snr():
    # to first order in the noise, a rank-L truncation of H + N keeps sigma^2 per
    # parameter of the rank-L channel: NMSE ~ sigma^2 dof / ||H||^2, paired per channel;
    # at 40 dB the second-order excess is well inside a standard error (at 30 dB it is
    # about two, which three standard errors would barely hold)
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    sigma2 = noise_var_from_snr_db(40.0)
    diffs = []
    for trial in range(400):
        real = generate_channel(cfg, stream(0, trial, 0))
        floor = full_observation_baseline(real, sigma2, stream(0, trial, 999))
        diffs.append(floor.nmse - sigma2 * cfg.dof / np.linalg.norm(real.h) ** 2)
    stderr = np.std(diffs, ddof=1) / math.sqrt(len(diffs))
    assert abs(np.mean(diffs)) <= 3 * stderr, (np.mean(diffs), stderr)


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
    real = generate_channel(cfg, stream(seed))
    reports = {mode: two_stage_estimate(real, cfg, m, sigma2, stream(seed, 1), mode)
               for mode in RECOVERY_MODES}
    reports["full-observation"] = full_observation_baseline(real, sigma2, stream(seed, 2))
    for label, report in reports.items():
        assert np.isfinite(report.nmse), label
        assert 0.0 <= report.subspace_dist <= 1.0, label
