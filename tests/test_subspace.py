import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.channel import SystemConfig, generate_channel
from twostage.harness import noise_var_from_snr_db
from twostage.numkit import sample_complex_gaussian, stream
from twostage.subspace import estimate_stage1, subspace_distance


def _rank_limited(key, n, m, rank):
    a = sample_complex_gaussian(stream(*key, 0), n, rank, 1.0)
    b = sample_complex_gaussian(stream(*key, 1), rank, m, 1.0)
    return a @ b


# ------------------------------------------------------------- rank-L PCA
# The package takes its one rank truncation in subspace.estimate_stage1; these
# are the kernel properties of that PCA on small, known inputs.


def _projector(u):
    return u @ u.conj().T


@pytest.mark.parametrize("diag, rank", [((3.0, 2.0, 1.0), 3), ((3.0, 2.0, 1.0), 1),
                                        ((1.0, 1.0, 1.0), 3)],
                         ids=["distinct", "rank-1", "identity"])
def test_pca_of_a_diagonal_matrix(diag, rank):
    est = estimate_stage1(np.diag(diag).astype(complex), rank)
    kept = np.arange(3) < rank  # the leading `rank` entries stay, the tail is zeroed
    np.testing.assert_allclose(est.singular_values, diag[:rank])
    np.testing.assert_allclose(_projector(est.basis), np.diag(kept), atol=1e-14)
    np.testing.assert_allclose(est.denoised, np.diag(np.where(kept, diag, 0.0)), atol=1e-14)
    if len(set(diag)) == 3:  # equal singular values fix no single basis vector
        np.testing.assert_allclose(np.abs(est.basis), np.eye(3)[:, :rank], atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), limited=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pca_round_trip_and_orthonormal_factors(rows, cols, limited, seed, data):
    # the SVD oracle on tall blocks (the SVD route) and on wide or square ones (the
    # Gram route), which finds squared singular values to about eps * s_1^2
    rank = data.draw(st.integers(1, min(rows, cols)), label="rank")
    y = (_rank_limited((seed,), rows, cols, rank) if limited
         else sample_complex_gaussian(stream(seed), rows, cols, 1.0))
    u, s, _ = np.linalg.svd(y)
    est = estimate_stage1(y, rank)
    tol = 1e-12 * s[0] ** 2
    np.testing.assert_allclose(est.basis.conj().T @ est.basis, np.eye(rank), atol=1e-10)
    # descending values, basis column k carrying the k-th of them
    np.testing.assert_allclose(est.singular_values ** 2, s[:rank] ** 2, rtol=0, atol=tol)
    np.testing.assert_allclose(np.linalg.norm(y.conj().T @ est.basis, axis=0) ** 2,
                               s[:rank] ** 2, rtol=0, atol=tol)
    # the span of the leading singular vectors, to within the rounding that the gap
    # below the rank-th value amplifies
    gap = s[rank - 1] ** 2 - np.append(s, 0.0)[rank] ** 2
    assert np.max(np.abs(_projector(est.basis) - _projector(u[:, :rank]))) * gap <= tol
    # a fit inside that span which discards exactly the trailing energy (Eckart-Young)
    np.testing.assert_allclose(_projector(est.basis) @ est.denoised, est.denoised,
                               atol=1e-10 * s[0])
    assert abs(np.linalg.norm(y - est.denoised) ** 2 - np.sum(s[rank:] ** 2)) <= tol
    if limited or rank == min(rows, cols):  # a block of rank `rank` passes through
        assert (np.linalg.norm(y - est.denoised)
                <= 1e-10 * (s[0] / s[rank - 1]) ** 2 * np.linalg.norm(y))


def test_rank_bounds_are_enforced():
    # wide: the rank may not exceed the 5 rows; tall: nor the 3 columns
    for rows, cols in ((5, 7), (4, 3)):
        y = sample_complex_gaussian(stream(3), rows, cols, 1.0)
        with pytest.raises(ValueError, match="rank"):
            estimate_stage1(y, 0)
        with pytest.raises(ValueError, match="rank"):
            estimate_stage1(y, min(rows, cols) + 1)
        with pytest.raises(ValueError, match="rank must be an integer"):
            estimate_stage1(y, 2.0)


def _svd_truncation(y, rank):
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    u, s = u[:, :rank], s[:rank]
    return u, s, (u * s) @ vh[:rank]


def _gram_route_draws():
    # noisy channels at the reference scale, wide (all 128 columns) and square
    # (the first 32), then noiseless rank-3 blocks
    cfg = SystemConfig()
    for snr_db in (-10.0, 20.0):
        for trial in range(50):
            real = generate_channel(cfg, stream(18, 0, trial))
            y = real.h + sample_complex_gaussian(stream(18, 1, trial), cfg.n_rx, cfg.n_tx,
                                                 noise_var_from_snr_db(snr_db))
            yield y, cfg.paths
            yield y[:, :cfg.n_rx], cfg.paths
    for trial in range(50):
        yield _rank_limited((18, 2, trial), 16, 48, 3), 3


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
    y = sample_complex_gaussian(stream(19), 32, 8, 1.0)
    est = estimate_stage1(y, 4)
    u, s, denoised = _svd_truncation(y, 4)
    assert np.array_equal(est.basis, u)
    assert np.array_equal(est.singular_values, s)
    assert np.array_equal(est.denoised, denoised)


def test_gram_route_loses_a_weak_direction_to_the_squared_condition_number():
    # wide rank-4 blocks with singular values (1, 0.5, 0.1, r): the Gram
    # matrix squares r, so the weakest direction is found to about eps / r^2,
    # where the SVD finds it to about eps / r
    for trial in range(5):
        u = np.linalg.qr(sample_complex_gaussian(stream(20, trial, 0), 32, 4, 1.0))[0]
        v = np.linalg.qr(sample_complex_gaussian(stream(20, trial, 1), 128, 4, 1.0))[0]
        dist = {}
        for r in (1e-4, 1e-6):
            y = (u * np.array([1.0, 0.5, 0.1, r])) @ v.conj().T
            dist[r] = subspace_distance(u, estimate_stage1(y, 4).basis)
            assert subspace_distance(u, _svd_truncation(y, 4)[0]) <= 1e-18
        assert dist[1e-4] <= 1e-12
        # measured 1.5e-9 to 8.5e-9 over 20 draws
        assert 1e-10 <= dist[1e-6] <= 1e-7


# --------------------------------------------------------------- interlacing
# An appended column never lowers the rank-th singular value, and one in the
# dominant span raises it by at most |a_rank|^2. The "svd" rows keep the block
# narrower than N_r and the "gram" rows at least as wide: both PCA routes.


def _interlacing(h_s, h_new, rank):
    """(delta, cap): sigma_rank^2([H_S, h_new]) - sigma_rank^2(H_S) and |a_rank|^2."""
    before = estimate_stage1(h_s, rank)
    after = estimate_stage1(np.column_stack([h_s, h_new]), rank)
    delta = after.singular_values[-1] ** 2 - before.singular_values[-1] ** 2
    return float(delta), float(abs(np.vdot(before.basis[:, -1], h_new)) ** 2)


@pytest.mark.parametrize("cols", [6, 8], ids=["svd", "gram"])
def test_appending_a_zero_column_changes_nothing(cols):
    h_s = _rank_limited((7,), 8, cols, 3)
    delta, cap = _interlacing(h_s, np.zeros(8, dtype=complex), rank=3)
    assert abs(delta) <= 1e-12
    assert cap == 0.0


@pytest.mark.parametrize("cols", [6, 8], ids=["svd", "gram"])
def test_small_orthogonal_column_cannot_move_the_retained_value(cols):
    h_s = _rank_limited((8,), 8, cols, 3)
    h_new = 1e-3 * np.linalg.svd(h_s)[0][:, 5]  # outside col(H_S), far below sigma_3
    delta, cap = _interlacing(h_s, h_new, rank=3)
    assert abs(delta) <= 1e-9
    assert cap <= 1e-12


@pytest.mark.parametrize("cols", [6, 16], ids=["svd", "gram"])
def test_appended_in_span_columns_interlace(cols):
    cfg = SystemConfig(n_rx=16, n_tx=48, paths=3, n_rf=4)
    for i in range(100):
        h_s = generate_channel(cfg, stream(200, i, 0)).h[:, :cols]
        coeffs = sample_complex_gaussian(stream(200, i, 1), cols, 1, 1.0)[:, 0]
        delta, cap = _interlacing(h_s, h_s @ coeffs, rank=3)
        assert -1e-9 <= delta <= cap + 1e-9, (i, delta, cap)


# ------------------------------------------------------------------ distance


def test_distance_examples():
    e1 = np.eye(3, dtype=complex)[:, :1]
    e2 = np.eye(3, dtype=complex)[:, 1:2]
    mixed = (e1 + e2) / np.sqrt(2)
    assert subspace_distance(e1, e1) == 0.0
    np.testing.assert_allclose(subspace_distance(e1, e2), 1.0, atol=1e-12)
    np.testing.assert_allclose(subspace_distance(e1, mixed), 0.5, atol=1e-12)


def test_distance_ignores_basis_rotation_and_is_symmetric():
    u = estimate_stage1(sample_complex_gaussian(stream(6, 0), 8, 3, 1.0), 3).basis
    v = estimate_stage1(sample_complex_gaussian(stream(6, 1), 8, 3, 1.0), 3).basis
    q = np.linalg.qr(sample_complex_gaussian(stream(6, 2), 3, 3, 1.0))[0]
    assert subspace_distance(u, u @ q) <= 1e-12
    np.testing.assert_allclose(subspace_distance(u, v), subspace_distance(v, u),
                               rtol=1e-12)


@pytest.mark.parametrize("key, form, tol", [
    (17, lambda u, v: np.linalg.norm(_projector(u) - _projector(v), 2) ** 2, 1e-12),
    (18, lambda u, v: min(1.0, np.linalg.norm(v - u @ (u.conj().T @ v), 2) ** 2), 1e-14),
], ids=["projector", "svd-norm"])
def test_distance_matches_an_exact_form(key, form, tol):
    # the k x k Gram eigenvalue replaces the n x n projector difference and the
    # SVD 2-norm of the n x k part outside span(U); random pairs, pairs whose
    # spans are 1e-6 apart and equal pairs
    for trial in range(20):
        for n, k in ((32, 4), (8, 3), (8, 1), (6, 3), (6, 1)):
            u = np.linalg.qr(sample_complex_gaussian(stream(key, trial, n, k, 0),
                                                     n, k, 1.0))[0]
            kick = sample_complex_gaussian(stream(key, trial, n, k, 1), n, k, 1.0)
            for v in (np.linalg.qr(kick)[0], np.linalg.qr(u + 1e-6 * kick)[0], u):
                dist = subspace_distance(u, v)
                assert dist >= 0.0
                assert abs(dist - form(u, v)) <= tol


def test_distance_rejects_bad_bases():
    e1 = np.eye(3, dtype=complex)[:, :1]
    with pytest.raises(ValueError, match="shapes"):
        subspace_distance(e1, np.eye(3, dtype=complex)[:, :2])
