import math
import warnings

import numpy as np
import pytest

from twostage import stage2
from twostage.channel import SystemConfig, generate_channel, ula_response
from twostage.numkit import sample_complex_gaussian, stream
from twostage.pipeline import two_stage_estimate
from twostage.sounding import observe
from twostage.stage2 import (
    build_dictionary,
    design_sounder_omp,
    recover_block,
)
from twostage.subspace import estimate_stage1

from oracles import stage2_conditional_mse


# ---------------------------------------------------------------- dictionary


def test_grid_covers_the_sine_domain_uniformly():
    # sines -1 + 2k / grid; the 2-atom grid written out, sines -1 and 0
    np.testing.assert_allclose(build_dictionary(2, 2), np.array([[1, 1], [-1, 1]]) / math.sqrt(2),
                               atol=1e-15)
    for n, grid in ((2, 2), (8, 16), (16, 32)):
        np.testing.assert_array_equal(build_dictionary(n, grid),
                                      ula_response(-1.0 + 2.0 * np.arange(grid) / grid, n))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_mutual_coherence_matches_the_dirichlet_kernel_peak(n):
    # worst-case inner product of the critical grid in closed form
    atoms = build_dictionary(n, 2 * n)
    gram = np.abs(atoms.conj().T @ atoms)
    np.fill_diagonal(gram, 0.0)
    expected = 1.0 / (n * math.sin(math.pi / (2 * n)))
    np.testing.assert_allclose(gram.max(), expected, rtol=1e-12)


def test_dictionary_is_built_once_and_read_only():
    shared = build_dictionary(16, 32)
    assert build_dictionary(16, 32) is shared
    new = stage2._build_atoms.__wrapped__(16, 32)
    assert not shared.flags.writeable
    assert shared is not new
    assert shared.shape == new.shape and shared.tobytes() == new.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        shared[0] = 0.0


def test_dictionary_rejects_bad_sizes():
    with pytest.raises(ValueError, match="array size must be positive"):
        build_dictionary(0, 8)
    with pytest.raises(ValueError, match="grid size must be positive"):
        build_dictionary(8, 0)


# -------------------------------------------------------------- greedy design


def test_a_single_atom_target_is_matched_exactly():
    atoms = build_dictionary(16, 32)
    s = design_sounder_omp(atoms[:, 9:10], atoms, 1)
    assert s.selected == (9,)
    assert s.residual_path[-1] <= 1e-10
    digital = np.linalg.lstsq(s.analog, s.product, rcond=None)[0]
    assert digital.shape == (1, 1)
    np.testing.assert_allclose(abs(digital[0, 0]), 1.0, atol=1e-10)


def test_an_orthonormalized_atom_pair_is_recovered():
    atoms = build_dictionary(16, 32)
    target = np.linalg.qr(atoms[:, [5, 20]])[0]
    s = design_sounder_omp(target, atoms, 2)
    assert sorted(s.selected) == [5, 20]
    assert s.residual_path[-1] <= 1e-8


def test_analog_part_is_phase_only():
    rng = stream(20)
    target = estimate_stage1(sample_complex_gaussian(rng, 16, 3, 1.0), 3).basis
    s = design_sounder_omp(target, build_dictionary(16, 32), 4)
    np.testing.assert_allclose(np.abs(s.analog), 1 / 4.0, atol=1e-12)
    digital = np.linalg.lstsq(s.analog, s.product, rcond=None)[0]
    np.testing.assert_allclose(s.product, s.analog @ digital, atol=1e-12)


def test_residual_path_never_increases_and_atoms_are_not_reused():
    for trial in range(10):
        target = estimate_stage1(
            sample_complex_gaussian(stream(21, trial), 16, 2, 1.0), 2).basis
        s = design_sounder_omp(target, build_dictionary(16, 32), 6)
        path = np.asarray(s.residual_path)
        assert len(path) == 6
        assert np.all(np.diff(path) <= 1e-12)
        assert len(set(s.selected)) == 6


def test_design_rejects_impossible_requests():
    atoms = build_dictionary(16, 32)
    target = atoms[:, :3]
    with pytest.raises(ValueError, match="need n_rf"):
        design_sounder_omp(target, atoms, 2)
    with pytest.raises(ValueError, match="fewer than"):
        design_sounder_omp(atoms[:, :1], build_dictionary(16, 4), 5)
    with pytest.raises(ValueError, match="row count"):
        design_sounder_omp(np.ones((8, 1)), atoms, 1)


def test_doubling_the_grid_never_hurts_a_single_steering_target():
    # the doubled grid contains the critical one, and with one chain the
    # greedy step picks the globally best atom, so refinement only helps
    for trial in range(50):
        theta = stream(3, trial).uniform(0, 2 * np.pi)
        t = ula_response(math.sin(theta), 16)
        coarse = design_sounder_omp(t, build_dictionary(16, 32), 1).residual_path[-1]
        fine = design_sounder_omp(t, build_dictionary(16, 64), 1).residual_path[-1]
        assert fine <= coarse + 1e-12


def test_doubling_the_grid_usually_helps_a_two_path_subspace_target():
    # greedy selection is not monotone under refinement once n_rf > 1, so
    # this holds for most draws rather than all of them
    not_worse = 0
    for trial in range(50):
        cfg = SystemConfig(n_rx=16, n_tx=32, paths=2, n_rf=2)
        real = generate_channel(cfg, stream(11, trial))
        target = real.basis
        coarse = design_sounder_omp(target, build_dictionary(16, 32), 2).residual_path[-1]
        fine = design_sounder_omp(target, build_dictionary(16, 64), 2).residual_path[-1]
        if fine <= coarse + 1e-12:
            not_worse += 1
    assert not_worse >= 45


def _omp_refit_every_step(target, atoms, n_rf):
    # the design with a least-squares refit over all picked atoms at every
    # step, the oracle for the projection-updated residual
    selected, path = [], []
    residual = target
    for _ in range(n_rf):
        scores = np.linalg.norm(atoms.conj().T @ residual, axis=1)
        scores[selected] = -1.0
        selected.append(int(np.argmax(scores)))
        analog = atoms[:, selected]
        digital = np.linalg.lstsq(analog, target, rcond=None)[0]
        residual = target - analog @ digital
        path.append(float(np.linalg.norm(residual)))
    return tuple(selected), analog @ digital, path


def test_projection_updated_design_matches_the_refit_every_step_loop():
    # 204 noisy stage-1 bases at the reference scale (32x128, L=4, N_RF=6)
    cfg = SystemConfig()
    atoms = build_dictionary(cfg.n_rx, cfg.grid_size)
    for m in (4, 8, 16, 32):
        for snr_db in (-10, 5, 20):
            for trial in range(17):
                real = generate_channel(cfg, stream(60, m, snr_db + 10, trial, 0))
                noise = sample_complex_gaussian(stream(60, m, snr_db + 10, trial, 1),
                                                cfg.n_rx, m, 10.0 ** (-snr_db / 10.0))
                basis = estimate_stage1(real.h[:, :m] + noise, cfg.paths).basis
                s = design_sounder_omp(basis, atoms, cfg.n_rf)
                selected, product, path = _omp_refit_every_step(basis, atoms, cfg.n_rf)
                assert s.selected == selected
                np.testing.assert_allclose(s.product, product, rtol=0, atol=1e-12)
                np.testing.assert_allclose(s.residual_path, path, rtol=0, atol=1e-12)


def test_atoms_past_the_array_size_add_nothing_to_the_span():
    # 7 chains on 4 antennas: the first 4 atoms span the space and the residual
    # drops to rounding level, where the later picks of the two loops may
    # differ; every later atom adds nothing and the product stays the target
    atoms = build_dictionary(4, 16)
    target = estimate_stage1(sample_complex_gaussian(stream(61), 4, 3, 1.0), 2).basis
    s = design_sounder_omp(target, atoms, 7)
    _, product, path = _omp_refit_every_step(target, atoms, 7)
    assert len(set(s.selected)) == 7
    assert np.all(np.diff(s.residual_path) <= 0.0)
    np.testing.assert_allclose(s.residual_path[:4], path[:4], rtol=0, atol=1e-12)
    assert s.residual_path[-1] <= 1e-14
    np.testing.assert_allclose(s.product, product, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s.product, target, rtol=0, atol=1e-12)
    # the 4 x 7 analog part is rank deficient; digital is the minimum-norm fit
    assert np.linalg.matrix_rank(s.analog) == 4
    digital = np.linalg.lstsq(s.analog, s.product, rcond=None)[0]
    np.testing.assert_allclose(s.analog @ digital, s.product, rtol=0, atol=1e-12)
    np.testing.assert_allclose(digital, np.linalg.pinv(s.analog) @ target,
                               rtol=0, atol=1e-12)


def test_nearly_dependent_and_zero_atoms_keep_the_residual_exact():
    # atoms 3-5 lie 1e-6 from atoms 0-2: one Gram-Schmidt pass would leave
    # their span vectors far from orthogonal and put the residual path 1e-3
    # off a Householder-QR projection; the second pass keeps it within 1e-8.
    # The zero atom, scored 0 and picked last, adds nothing to the span.
    base = sample_complex_gaussian(stream(62, 0), 8, 3, 1.0)
    near = base + 1e-6 * sample_complex_gaussian(stream(62, 1), 8, 3, 1.0)
    atoms = np.column_stack([base, near])
    atoms = np.column_stack([atoms / np.linalg.norm(atoms, axis=0), np.zeros(8)])
    target = np.linalg.qr(sample_complex_gaussian(stream(62, 2), 8, 2, 1.0))[0]
    s = design_sounder_omp(target, atoms, 7)
    assert s.selected[-1] == 6
    for k in range(1, 7):
        q = np.linalg.qr(atoms[:, list(s.selected[:k])])[0]
        exact = np.linalg.norm(target - q @ (q.conj().T @ target))
        assert abs(s.residual_path[k - 1] - exact) <= 1e-8
    assert s.residual_path[6] == s.residual_path[5]


# ------------------------------------------------------------- block recovery


def _column_setup(seed, n=8, cols=4):
    h = sample_complex_gaussian(stream(seed, 0), n, cols, 1.0)
    w = estimate_stage1(sample_complex_gaussian(stream(seed, 1), n, 3, 1.0), 2).basis
    return h, w


def _per_column_reference(h, w, sigma2, rng, mode):
    # the recovery one channel use at a time: one noise draw and one solve each
    cols = []
    for j in range(h.shape[1]):
        noise = sample_complex_gaussian(rng, h.shape[0], 1, sigma2)[:, 0]
        y = w.conj().T @ (h[:, j] + noise)
        if mode == "paper-literal":
            cols.append(w @ y)
        else:
            cols.append(w @ np.linalg.solve(w.conj().T @ w, y))
    return np.column_stack(cols)


def test_recovery_matches_an_independent_projector_computation():
    h, _ = _column_setup(30)
    w = sample_complex_gaussian(stream(30, 2), 8, 2, 1.0)  # not orthonormal
    y, _ = observe(h[:, 1:2], 0.3, stream(31), 2, w)
    est = recover_block(y, w)
    noise = sample_complex_gaussian(stream(31), 8, 1, 0.3)[:, 0]
    oracle = (w @ np.linalg.pinv(w)) @ (h[:, 1] + noise)
    assert est.shape == (8, 1)
    np.testing.assert_allclose(est[:, 0], oracle, atol=1e-9)


def test_in_span_columns_are_exact_without_noise():
    _, w = _column_setup(32)
    coeffs = sample_complex_gaussian(stream(33), 2, 3, 1.0)
    h = w @ coeffs
    y = w.conj().T @ h
    for est in (recover_block(y, w), w @ y):  # the least-squares fit and W y
        np.testing.assert_allclose(est, h, atol=1e-10)


def test_columns_orthogonal_to_the_combiner_recover_as_zero():
    _, w = _column_setup(38)
    full = np.linalg.svd(np.column_stack([w, w]))[0]
    h = full[:, 2:]  # orthogonal complement of col(w)
    est = recover_block(w.conj().T @ h, w)
    np.testing.assert_allclose(est, np.zeros((8, 6)), atol=1e-10)


def test_modes_agree_only_for_orthonormal_combiners():
    # the least-squares fit is W y, paper-literal's fit, only for orthonormal W
    h, w = _column_setup(34)
    y, _ = observe(h, 0.1, stream(35), 2, w)
    np.testing.assert_allclose(recover_block(y, w), w @ y, atol=1e-10)
    skewed = w @ np.diag([2.0, 1.0])
    y = skewed.conj().T @ h
    assert np.linalg.norm(recover_block(y, skewed) - skewed @ y) > 1e-3


def test_rank_deficient_combiner_is_reported():
    # an exactly singular Gram matrix gives an infinite condition number,
    # with no division warning on the way
    h, w = _column_setup(36)
    dup = np.column_stack([w[:, 0], w[:, 0]])
    zero = np.column_stack([w[:, 0], np.zeros(8)])
    for singular in (dup, zero):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"rank deficient .*rank 1\)"):
                recover_block(singular.conj().T @ h, singular)


@pytest.mark.parametrize("log_cond", [11.8, 12.2])
def test_gram_condition_threshold_is_1e12(log_cond):
    h, w = _column_setup(39)
    skewed = w @ np.diag([1.0, 10.0 ** (-log_cond / 2.0)])
    gram_cond = np.linalg.cond(skewed.conj().T @ skewed)
    np.testing.assert_allclose(np.log10(gram_cond), log_cond, atol=1e-3)
    if log_cond > 12.0:
        with pytest.raises(ValueError, match="rank deficient"):
            recover_block(skewed.conj().T @ h, skewed)
    else:
        est = recover_block(skewed.conj().T @ h, skewed)
        np.testing.assert_allclose(est, w @ (w.conj().T @ h), rtol=0, atol=1e-3)


@pytest.mark.parametrize("fit, mode", [(recover_block, "pseudo-inverse"),
                                       (lambda y, w: w @ y, "paper-literal")],
                         ids=["pseudo-inverse", "paper-literal"])
def test_mean_recovery_error_matches_the_conditional_identity(fit, mode):
    # one stage-1 result and its designed sounder, then K stage-2 draws: the
    # mean squared error must sit within 4 standard errors of the exact mean
    cfg = SystemConfig(n_rx=16, n_tx=48, paths=2, n_rf=3)
    m, sigma2, draws = 4, 0.1, 2000
    real = generate_channel(cfg, stream(47, 0))
    y, _ = observe(real.h[:, :m], sigma2, stream(47, 1), cfg.n_rf)
    basis = estimate_stage1(y, cfg.paths).basis
    w = design_sounder_omp(basis, build_dictionary(cfg.n_rx, cfg.grid_size), cfg.n_rf).product
    h_rest = real.h[:, m:]
    rng = stream(47, 2)
    errors = np.empty(draws)
    for k in range(draws):
        y, _ = observe(h_rest, sigma2, rng, cfg.n_rf, w)
        miss = h_rest - fit(y, w)
        errors[k] = np.vdot(miss, miss).real
    predicted = stage2_conditional_mse(h_rest, w, sigma2, mode)
    z = (errors.mean() - predicted) / (errors.std(ddof=1) / math.sqrt(draws))
    assert abs(z) <= 4.0


# --------------------------------------------------------- remaining columns


@pytest.mark.parametrize("mode", ["pseudo-inverse", "paper-literal", "ideal"])
def test_remaining_columns_match_a_per_column_loop(mode):
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    real = generate_channel(cfg, stream(47))
    rep = two_stage_estimate(real, cfg, 8, 0.1, stream(48), mode=mode)
    # replay stage 1 on the same stream, then sound column by column
    rng = stream(48)
    basis = estimate_stage1(observe(real.h[:, :8], 0.1, rng, 6)[0], 4).basis
    if mode == "ideal":
        # ideal recovers by W y; for its orthonormal basis that is W (W^H W)^-1 y
        w, column_mode = basis, "pseudo-inverse"
    else:
        w = design_sounder_omp(basis, build_dictionary(32, cfg.grid_size), 6).product
        column_mode = mode
    ref = _per_column_reference(real.h[:, 8:], w, 0.1, rng, column_mode)
    assert rep.channel_uses_stage2 == 120
    np.testing.assert_allclose(rep.h_hat[:, 8:], ref, rtol=0,
                               atol=1e-12 * np.abs(ref).max())
