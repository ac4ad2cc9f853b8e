import numpy as np
import pytest

from twostage.channel import SystemConfig, generate_channel
from twostage.harness import noise_var_from_snr_db
from twostage.numkit import RngState, sample_complex_gaussian
from twostage.sounding import dft_combiner, sound_and_invert_block
from twostage.subspace import (
    estimate_stage1,
    interlacing_check,
    perturbation_bound,
    subspace_distance,
)


def _rank_limited(rng, n, m, rank):
    a = sample_complex_gaussian(rng.split(0), n, rank, 1.0)
    b = sample_complex_gaussian(rng.split(1), rank, m, 1.0)
    return a @ b


# ------------------------------------------------------------ stage-1 output


def test_exactly_rank_limited_input_passes_through():
    y = _rank_limited(RngState(0), 8, 6, 2)
    est = estimate_stage1(y, 2)
    np.testing.assert_allclose(est.denoised, y, atol=1e-10)
    np.testing.assert_allclose(est.basis.conj().T @ est.basis, np.eye(2),
                               atol=1e-10)
    assert est.singular_values[0] >= est.singular_values[1] > 0


def test_truncation_error_equals_discarded_energy():
    y = sample_complex_gaussian(RngState(1), 8, 6, 1.0)
    s = np.linalg.svd(y, compute_uv=False)
    for rank in (1, 2, 5):
        est = estimate_stage1(y, rank)
        err = np.linalg.norm(y - est.denoised, "fro") ** 2
        np.testing.assert_allclose(err, np.sum(s[rank:] ** 2), rtol=1e-9)


def test_denoised_block_lives_inside_the_reported_basis():
    y = sample_complex_gaussian(RngState(14), 8, 6, 1.0)
    for rank in (1, 3):
        est = estimate_stage1(y, rank)
        proj = est.basis @ (est.basis.conj().T @ est.denoised)
        np.testing.assert_allclose(proj, est.denoised, atol=1e-8)
        tail = np.linalg.svd(est.denoised, compute_uv=False)[rank:]
        assert np.all(tail <= 1e-8 * np.linalg.norm(est.denoised, 2))


def test_full_rank_request_reproduces_the_input():
    y = sample_complex_gaussian(RngState(2), 5, 7, 1.0)
    est = estimate_stage1(y, 5)
    np.testing.assert_allclose(est.denoised, y, atol=1e-10)


def test_rank_bounds_are_enforced():
    y = sample_complex_gaussian(RngState(3), 5, 7, 1.0)
    with pytest.raises(ValueError, match="rank"):
        estimate_stage1(y, 0)
    with pytest.raises(ValueError, match="rank"):
        estimate_stage1(y, 6)


def test_stage1_basis_projector_matches_numpy():
    a = sample_complex_gaussian(RngState(4), 8, 5, 1.0)
    u = estimate_stage1(a, 3).basis
    ref = np.linalg.svd(a)[0][:, :3]
    np.testing.assert_allclose(u @ u.conj().T, ref @ ref.conj().T, atol=1e-10)


def test_column_basis_spans_a_rank_limited_matrix():
    a = _rank_limited(RngState(5), 8, 6, 3)
    u = estimate_stage1(a, 3).basis
    np.testing.assert_allclose(u @ (u.conj().T @ a), a, atol=1e-9)


def _svd_truncation(y, rank):
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    u, s = u[:, :rank], s[:rank]
    return u, s, (u * s) @ vh[:rank]


def _gram_route_draws():
    # noisy channels at the reference scale, wide (all 128 columns) and square
    # (the first 32), then noiseless rank-3 blocks
    cfg = SystemConfig()
    rng = RngState(18)
    for snr_db in (-10.0, 20.0):
        for trial in range(50):
            real = generate_channel(cfg, rng.split(0, trial))
            y = real.h + sample_complex_gaussian(rng.split(1, trial), cfg.n_rx, cfg.n_tx,
                                                 noise_var_from_snr_db(snr_db))
            yield y, cfg.paths
            yield y[:, :cfg.n_rx], cfg.paths
    for trial in range(50):
        yield _rank_limited(rng.split(2, trial), 16, 48, 3), 3


def test_wide_and_square_blocks_match_the_svd_truncation():
    for y, rank in _gram_route_draws():
        est = estimate_stage1(y, rank)
        u, s, denoised = _svd_truncation(y, rank)
        assert (np.linalg.norm(est.denoised - denoised)
                <= 1e-12 * np.linalg.norm(denoised))
        proj_gap = est.basis @ est.basis.conj().T - u @ u.conj().T
        assert np.max(np.abs(proj_gap)) <= 1e-12
        np.testing.assert_allclose(est.singular_values, s, rtol=1e-10)


def test_tall_blocks_take_the_svd_truncation_bit_for_bit():
    y = sample_complex_gaussian(RngState(19), 32, 8, 1.0)
    est = estimate_stage1(y, 4)
    u, s, denoised = _svd_truncation(y, 4)
    assert np.array_equal(est.basis, u)
    assert np.array_equal(est.singular_values, s)
    assert np.array_equal(est.denoised, denoised)


def test_gram_route_loses_a_weak_direction_to_the_squared_condition_number():
    # wide rank-4 blocks with singular values (1, 0.5, 0.1, r): the Gram
    # matrix squares r, so the weakest direction is found to about eps / r^2,
    # where the SVD finds it to about eps / r
    rng = RngState(20)
    for trial in range(5):
        u = np.linalg.qr(sample_complex_gaussian(rng.split(trial, 0), 32, 4, 1.0))[0]
        v = np.linalg.qr(sample_complex_gaussian(rng.split(trial, 1), 128, 4, 1.0))[0]
        dist = {}
        for r in (1e-4, 1e-6):
            y = (u * np.array([1.0, 0.5, 0.1, r])) @ v.conj().T
            dist[r] = subspace_distance(u, estimate_stage1(y, 4).basis)
            assert subspace_distance(u, _svd_truncation(y, 4)[0]) <= 1e-18
        assert dist[1e-4] <= 1e-12
        # measured 1.5e-9 to 8.5e-9 over 20 draws
        assert 1e-10 <= dist[1e-6] <= 1e-7


# ------------------------------------------------------------------ distance


def test_distance_examples():
    e1 = np.eye(3, dtype=complex)[:, :1]
    e2 = np.eye(3, dtype=complex)[:, 1:2]
    mixed = (e1 + e2) / np.sqrt(2)
    assert subspace_distance(e1, e1) == 0.0
    np.testing.assert_allclose(subspace_distance(e1, e2), 1.0, atol=1e-12)
    np.testing.assert_allclose(subspace_distance(e1, mixed), 0.5, atol=1e-12)


def test_distance_ignores_basis_rotation_and_is_symmetric():
    rng = RngState(6)
    u = estimate_stage1(sample_complex_gaussian(rng.split(0), 8, 3, 1.0), 3).basis
    v = estimate_stage1(sample_complex_gaussian(rng.split(1), 8, 3, 1.0), 3).basis
    q = np.linalg.qr(sample_complex_gaussian(rng.split(2), 3, 3, 1.0))[0]
    assert subspace_distance(u, u @ q) <= 1e-12
    np.testing.assert_allclose(subspace_distance(u, v), subspace_distance(v, u),
                               rtol=1e-12)


def test_distance_matches_the_principal_angle_oracle():
    # independent route: the smallest singular value of U^H V is the cosine
    # of the largest principal angle, and the distance is its squared sine
    rng = RngState(16)
    for trial in range(20):
        for n, k in ((8, 1), (8, 3), (6, 3)):
            u = np.linalg.qr(sample_complex_gaussian(rng.split(trial, n, k, 0),
                                                     n, k, 1.0))[0]
            v = np.linalg.qr(sample_complex_gaussian(rng.split(trial, n, k, 1),
                                                     n, k, 1.0))[0]
            cos_min = np.linalg.svd(u.conj().T @ v, compute_uv=False)[-1]
            np.testing.assert_allclose(subspace_distance(u, v), 1.0 - cos_min**2,
                                       rtol=1e-10, atol=1e-12)


def test_distance_matches_the_projector_form():
    # the n x n projector difference the sine form replaces, on random pairs
    # and on pairs whose spans are 1e-6 apart
    rng = RngState(17)
    for trial in range(20):
        for n, k in ((32, 4), (8, 3), (6, 1)):
            u = np.linalg.qr(sample_complex_gaussian(rng.split(trial, n, k, 0),
                                                     n, k, 1.0))[0]
            kick = sample_complex_gaussian(rng.split(trial, n, k, 1), n, k, 1.0)
            for v in (np.linalg.qr(kick)[0], np.linalg.qr(u + 1e-6 * kick)[0]):
                gap = np.linalg.norm(u @ u.conj().T - v @ v.conj().T, 2)
                assert abs(subspace_distance(u, v) - gap**2) <= 1e-12


def test_distance_rejects_bad_bases():
    e1 = np.eye(3, dtype=complex)[:, :1]
    with pytest.raises(ValueError, match="orthonormal"):
        subspace_distance(e1, 2.0 * e1)
    with pytest.raises(ValueError, match="shapes"):
        subspace_distance(e1, np.eye(3, dtype=complex)[:, :2])


# --------------------------------------------------------------------- bound


def test_bound_is_zero_without_noise_and_saturates_at_one():
    assert perturbation_bound(2.0, 0.0, 4, 4) == 0.0
    assert perturbation_bound(2.0, 1e6, 4, 4) == 1.0


def test_bound_frozen_example():
    # 1 * 4 * (4 * 0.1 + 4 * 0.01) / 16
    np.testing.assert_allclose(perturbation_bound(2.0, 0.1, 4, 4), 0.11,
                               rtol=1e-12)


def test_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        perturbation_bound(0.0, 0.1, 4, 4)
    with pytest.raises(ValueError):
        perturbation_bound(1.0, -0.1, 4, 4)
    with pytest.raises(ValueError):
        perturbation_bound(1.0, 0.1, 0, 4)


# --------------------------------------------------------------- interlacing


def test_appending_a_zero_column_changes_nothing():
    h_s = _rank_limited(RngState(7), 8, 6, 3)
    delta, upper = interlacing_check(h_s, np.zeros(8, dtype=complex), rank=3)
    assert abs(delta) <= 1e-12
    assert upper == 0.0


def test_small_orthogonal_column_cannot_move_the_retained_value():
    h_s = _rank_limited(RngState(8), 8, 6, 3)
    u_full = np.linalg.svd(h_s)[0]
    h_new = 1e-3 * u_full[:, 5]  # outside col(H_S), far below sigma_3
    delta, upper = interlacing_check(h_s, h_new, rank=3)
    assert abs(delta) <= 1e-9
    assert upper <= 1e-12


def test_in_span_columns_obey_the_two_sided_bound():
    rng = RngState(9)
    for trial in range(30):
        h_s = _rank_limited(rng.split(trial, 0), 8, 6, 3)
        u = estimate_stage1(h_s, 3).basis
        coeffs = sample_complex_gaussian(rng.split(trial, 1), 3, 1, 1.0)[:, 0]
        delta, upper = interlacing_check(h_s, u @ coeffs, rank=3)
        assert delta >= -1e-9
        assert delta <= upper + 1e-9


def test_delta_matches_a_direct_spectrum_computation():
    rng = RngState(10)
    h_s = _rank_limited(rng.split(0), 8, 6, 3)
    h_new = sample_complex_gaussian(rng.split(1), 8, 1, 1.0)[:, 0]
    delta, _ = interlacing_check(h_s, h_new, rank=3)
    before = np.linalg.svd(h_s, compute_uv=False)[2] ** 2
    after = np.linalg.svd(np.hstack([h_s, h_new[:, None]]),
                          compute_uv=False)[2] ** 2
    np.testing.assert_allclose(delta, after - before, rtol=1e-9, atol=1e-12)


def test_interlacing_rejects_bad_inputs():
    h_s = _rank_limited(RngState(12), 8, 6, 3)
    with pytest.raises(ValueError, match="length"):
        interlacing_check(h_s, np.zeros(7, dtype=complex), rank=3)
    with pytest.raises(ValueError, match="rank"):
        interlacing_check(h_s, np.zeros(8, dtype=complex), rank=7)
    with pytest.raises(ValueError, match="positive singular value"):
        interlacing_check(np.zeros((4, 3)), np.zeros(4, dtype=complex), rank=1)
    for bad in (np.nan, np.inf):
        h_new = np.zeros(8, dtype=complex)
        h_new[2] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            interlacing_check(h_s, h_new, rank=3)


# ------------------------------------------------------- estimation accuracy


def test_more_sounded_columns_do_not_hurt_the_subspace_estimate():
    # stage-1 chain at 10 dB over m = paths, 2x, 4x; the mean distance
    # should not increase with m
    trials, sigma2 = 200, 0.1
    means, errs = [], []
    for m in (2, 4, 8):
        cfg = SystemConfig(n_rx=16, n_tx=64, paths=2, n_rf=4)
        dists = []
        for trial in range(trials):
            rng = RngState(13, (m, trial))
            real = generate_channel(cfg, rng.split(0))
            noise = sample_complex_gaussian(rng.split(1), 16, m, sigma2)
            y_tilde = sound_and_invert_block(real.h[:, :m], dft_combiner(16), noise)
            est = estimate_stage1(y_tilde, cfg.paths)
            dists.append(subspace_distance(real.basis, est.basis))
        dists = np.asarray(dists)
        means.append(float(dists.mean()))
        errs.append(float(dists.std(ddof=1) / np.sqrt(trials)))
    for i in range(len(means) - 1):
        slack = 2.0 * np.hypot(errs[i], errs[i + 1])
        assert means[i + 1] <= means[i] + slack
