import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.numkit import (
    RngState,
    as_complex_matrix,
    random_unitary,
    sample_complex_gaussian,
)
from twostage.subspace import estimate_stage1


def _random_matrix(seed, rows, cols):
    return sample_complex_gaussian(RngState(seed), rows, cols, 1.0)


# ---------------------------------------------------------------- validation


def test_as_complex_matrix_rejects_non_finite():
    bad = np.ones((2, 2), dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        as_complex_matrix(bad)


def test_as_complex_matrix_rejects_wrong_ndim():
    with pytest.raises(ValueError, match="2-D"):
        as_complex_matrix(np.ones(3))


def test_as_complex_matrix_rejects_empty():
    with pytest.raises(ValueError):
        as_complex_matrix(np.ones((0, 3)))


# ------------------------------------------------------------- rank-L PCA
# The package takes its one rank truncation in subspace.estimate_stage1; these
# are the kernel properties of that PCA on small, known inputs.


def _projector(u):
    return u @ u.conj().T


def test_svd_identity_has_unit_singular_values():
    est = estimate_stage1(np.eye(3), 3)
    np.testing.assert_allclose(est.singular_values, np.ones(3))
    np.testing.assert_allclose(_projector(est.basis), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(est.denoised, np.eye(3), atol=1e-14)


def test_svd_diagonal_matrix():
    est = estimate_stage1(np.diag([3.0, 2.0, 1.0]).astype(complex), 3)
    np.testing.assert_allclose(est.singular_values, [3.0, 2.0, 1.0])
    np.testing.assert_allclose(np.abs(est.basis), np.eye(3), atol=1e-14)


def test_svd_matches_gram_eigendecomposition_oracle():
    # independent route: eigenpairs of A A^H give the squared singular values
    # and the dominant left subspace
    a = _random_matrix(101, 5, 4)
    evals, evecs = np.linalg.eigh(a @ a.conj().T)
    for rank in (1, 2, 4):
        est = estimate_stage1(a, rank)
        np.testing.assert_allclose(est.singular_values,
                                   np.sqrt(evals[::-1][:rank]), rtol=1e-10)
        np.testing.assert_allclose(_projector(est.basis),
                                   _projector(evecs[:, ::-1][:, :rank]), atol=1e-10)


def test_svd_rejects_non_finite():
    bad = np.ones((2, 2), dtype=complex)
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        estimate_stage1(bad, 1)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_svd_round_trip_and_orthonormal_factors(rows, cols, seed):
    a = sample_complex_gaussian(RngState(seed), rows, cols, 1.0)
    k = min(rows, cols)
    est = estimate_stage1(a, k)
    assert np.linalg.norm(a - est.denoised) <= 1e-8 * max(1.0, np.linalg.norm(a))
    assert np.all(np.diff(est.singular_values) <= 1e-12)
    np.testing.assert_allclose(est.basis.conj().T @ est.basis, np.eye(k), atol=1e-10)


def test_truncation_error_is_the_singular_value_tail():
    a = _random_matrix(9, 6, 5)
    s = estimate_stage1(a, 5).singular_values
    for rank in (1, 3, 5):
        err = np.linalg.norm(a - estimate_stage1(a, rank).denoised)
        tail = np.sqrt(np.sum(s[rank:] ** 2))
        np.testing.assert_allclose(err, tail, rtol=1e-10, atol=1e-12)


def test_truncation_of_a_diagonal_matrix_zeroes_the_tail():
    est = estimate_stage1(np.diag([3.0, 2.0, 1.0]).astype(complex), 1)
    np.testing.assert_allclose(est.denoised, np.diag([3.0, 0.0, 0.0]), atol=1e-12)


def test_truncation_passes_an_already_low_rank_matrix_through():
    rng = RngState(15)
    a = (sample_complex_gaussian(rng.split(0), 6, 2, 1.0)
         @ sample_complex_gaussian(rng.split(1), 2, 5, 1.0))
    np.testing.assert_allclose(estimate_stage1(a, 2).denoised, a, atol=1e-10)


def test_full_rank_truncation_reproduces_the_matrix():
    a = _random_matrix(21, 4, 6)
    rebuilt = estimate_stage1(a, 4).denoised
    assert np.linalg.norm(a - rebuilt) <= 1e-12 * np.linalg.norm(a)


def test_truncation_beats_brute_force_rank_candidates():
    # Eckart-Young: Frobenius optimality against alternating-least-squares
    # refined candidates
    rng = RngState(7)
    for rank in (1, 2):
        a = sample_complex_gaussian(rng.split(rank), 3, 3, 1.0)
        err = np.linalg.norm(a - estimate_stage1(a, rank).denoised)
        for i in range(200):
            x = sample_complex_gaussian(rng.split(rank, i, 0), 3, rank, 1.0)
            y = sample_complex_gaussian(rng.split(rank, i, 1), 3, rank, 1.0)
            for _ in range(8):
                x = a @ np.linalg.pinv(y.conj().T)
                y = (np.linalg.pinv(x) @ a).conj().T
            assert err <= np.linalg.norm(a - x @ y.conj().T) + 1e-9


def test_truncate_rank_rejects_bad_rank():
    a = _random_matrix(3, 4, 3)  # tall: the rank may not exceed the 3 columns
    with pytest.raises(ValueError, match="rank"):
        estimate_stage1(a, 0)
    with pytest.raises(ValueError, match="rank"):
        estimate_stage1(a, 4)


# ------------------------------------------------------------ random streams


def test_same_seed_gives_identical_samples():
    z1 = sample_complex_gaussian(RngState(42), 5, 7, 2.0)
    z2 = sample_complex_gaussian(RngState(42), 5, 7, 2.0)
    np.testing.assert_array_equal(z1, z2)


def test_split_streams_ignore_parent_consumption():
    parent = RngState(5)
    before = sample_complex_gaussian(parent.split(3), 4, 4, 1.0)
    parent.generator.standard_normal(100)
    after = sample_complex_gaussian(parent.split(3), 4, 4, 1.0)
    np.testing.assert_array_equal(before, after)


def test_distinct_keys_give_distinct_streams():
    z1 = sample_complex_gaussian(RngState(5).split(0), 4, 4, 1.0)
    z2 = sample_complex_gaussian(RngState(5).split(1), 4, 4, 1.0)
    assert np.max(np.abs(z1 - z2)) > 1e-3


def test_state_id_is_stable():
    assert RngState(5, (1, 2)).state_id() == RngState(5, (1, 2)).state_id()
    assert RngState(5, (1, 2)).state_id() != RngState(5, (1, 3)).state_id()


def test_zero_variance_gives_exact_zeros():
    z = sample_complex_gaussian(RngState(1), 3, 3, 0.0)
    np.testing.assert_array_equal(z, np.zeros((3, 3), dtype=complex))


def test_gaussian_moments():
    z = sample_complex_gaussian(RngState(0), 100, 1000, 1.0)
    assert 0.98 <= np.mean(np.abs(z) ** 2) <= 1.02
    assert abs(np.mean(z)) <= 0.01
    assert 0.47 <= np.var(z.real) <= 0.53
    assert 0.47 <= np.var(z.imag) <= 0.53


def test_rng_rejects_bad_seed_and_keys():
    with pytest.raises(ValueError):
        RngState(-1)
    with pytest.raises(ValueError):
        RngState(1).split(-2)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            sample_complex_gaussian(RngState(1), 3, 3, bad)


def test_random_unitary_is_unitary():
    q = random_unitary(RngState(9), 8)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(8), atol=1e-10)
