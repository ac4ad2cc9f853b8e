import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.channel import SystemConfig, generate_channel, ula_response
from twostage.numkit import (
    RngState,
    as_complex_matrix,
    sample_complex_gaussian,
)
from twostage.pipeline import two_stage_estimate
from twostage.sounding import dft_combiner
from twostage.stage2 import build_dictionary, design_sounder_omp
from twostage.subspace import estimate_stage1, interlacing_check


def _random_matrix(seed, rows, cols):
    return sample_complex_gaussian(RngState(seed), rows, cols, 1.0)


# ---------------------------------------------------------------- validation


def test_as_complex_matrix_rejects_non_finite():
    bad = np.ones((2, 2), dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        as_complex_matrix(bad)


def test_as_complex_matrix_counts_nan_and_inf_entries():
    bad = np.ones((3, 4), dtype=complex)
    bad[0, 1] = np.nan
    bad[2, 3] = complex(1.0, np.inf)
    with pytest.raises(ValueError, match="contains 2 non-finite entries"):
        as_complex_matrix(bad, "block")


def test_as_complex_matrix_passes_finite_entries_whose_energy_overflows():
    # the energy 4 * (1e200)^2 overflows to inf; pyproject turns a
    # RuntimeWarning into a failure, so passing also shows none was raised
    big = np.full((2, 2), 1e200 + 1e200j)
    assert not math.isfinite(np.vdot(big, big).real)
    np.testing.assert_array_equal(as_complex_matrix(big), big)


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
    # a float would be truncated onto another stream: RngState(1.5) is not RngState(1)
    for seed, key in ((1.5, ()), (1.0, ()), (0, (2.7,)), (0, (2.0,))):
        with pytest.raises(ValueError, match="must be an integer"):
            RngState(seed, key)
    with pytest.raises(ValueError, match="must be an integer"):
        RngState(0).split(2.7)
    numpy_ints = RngState(np.int64(3), (np.int32(2),))
    assert numpy_ints.state_id() == RngState(3, (2,)).state_id()
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            sample_complex_gaussian(RngState(1), 3, 3, bad)
    with pytest.raises(ValueError, match="matrix dimensions must be positive"):
        sample_complex_gaussian(RngState(1), 0, 3, 1.0)



_CFG = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
_BLOCK = sample_complex_gaussian(RngState(5), 8, 4, 1.0)


@pytest.mark.parametrize("call", [
    lambda: build_dictionary(32, 64.5),
    lambda: build_dictionary(32.0, 64),
    lambda: dft_combiner(32.5),
    lambda: ula_response([0.1, 0.2], 4.0),
    lambda: two_stage_estimate(generate_channel(_CFG, RngState(0)), _CFG, 8.0, 0.1,
                               RngState(1)),
    lambda: estimate_stage1(_BLOCK, 2.0),
    lambda: interlacing_check(_BLOCK, _BLOCK[:, 0], 2.0),
    lambda: design_sounder_omp(_BLOCK[:, :1], build_dictionary(8, 16), 6.0),
    lambda: sample_complex_gaussian(RngState(0), 2.5, 3, 1.0),
    lambda: sample_complex_gaussian(RngState(0), 2, 3.0, 1.0),
], ids=["dictionary-grid", "dictionary-array", "dft-bank", "ula",
        "two-stage-m", "pca-rank", "interlacing-rank", "omp-n_rf", "gaussian-rows",
        "gaussian-cols"])
def test_primitives_reject_non_integer_counts(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_cached_builders_check_counts_before_the_cache_lookup():
    # 64.0 hashes like 64, so a check inside the cached body would never run
    shared = build_dictionary(32, 64)
    with pytest.raises(ValueError, match="grid size must be an integer"):
        build_dictionary(32, 64.0)
    assert build_dictionary(np.int64(32), np.int32(64)) is shared
    with pytest.raises(ValueError, match="combiner size must be an integer"):
        dft_combiner(8.0)
    with pytest.raises(ValueError, match="combiner size must be positive"):
        dft_combiner(0)
