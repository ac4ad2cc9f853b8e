"""The oracles in ``oracles.py`` against known answers."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.channel import SystemConfig, generate_channel
from twostage.numkit import RngState, sample_complex_gaussian

from oracles import dft_combiner, interlacing_check, sound_and_invert_block


def test_dft_combiner_two_elements():
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    np.testing.assert_allclose(dft_combiner(2), expected, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 32))
def test_dft_combiner_is_unitary_with_constant_modulus(n):
    bank = dft_combiner(n)
    np.testing.assert_allclose(bank.conj().T @ bank, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(np.abs(bank), np.full((n, n), 1 / math.sqrt(n)),
                               atol=1e-12)


def test_inversion_solves_the_combined_signal_plus_combined_noise():
    # bitwise oracle for every bank, the DFT bank included:
    # solve(M^H, M^H (H + N)); the unitary DFT bank also matches M (M^H (H + N))
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2, seed=3)
    h_s = generate_channel(cfg, RngState(3)).h[:, :4]
    noise = sample_complex_gaussian(RngState(3).split(1), 8, 4, 0.1)
    gaussian = sample_complex_gaussian(RngState(3).split(2), 8, 8, 1.0)
    dft = dft_combiner(8)
    for bank in (dft, gaussian):
        mh = bank.conj().T
        recovered = sound_and_invert_block(h_s, bank, noise)
        np.testing.assert_array_equal(recovered, np.linalg.solve(mh, mh @ (h_s + noise)))
    adjoint = dft @ (dft.conj().T @ (h_s + noise))
    assert np.max(np.abs(sound_and_invert_block(h_s, dft, noise) - adjoint)) <= 1e-13


# --------------------------------------------------------------- interlacing


def _rank_limited(rng, n, m, rank):
    a = sample_complex_gaussian(rng.split(0), n, rank, 1.0)
    b = sample_complex_gaussian(rng.split(1), rank, m, 1.0)
    return a @ b


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


def test_appended_in_span_columns_interlace():
    # an appended in-span column moves the rank-th singular value inside its cap:
    # 0 <= delta <= |a_rank|^2
    cfg = SystemConfig(n_rx=16, n_tx=48, paths=3, n_rf=4)
    rng = RngState(200)
    for i in range(100):
        h_s = generate_channel(cfg, rng.split(i, 0)).h[:, :6]
        coeffs = sample_complex_gaussian(rng.split(i, 1), 6, 1, 1.0)[:, 0]
        delta, upper = interlacing_check(h_s, h_s @ coeffs, rank=3)
        assert -1e-9 <= delta <= upper + 1e-9, (i, delta, upper)


def test_delta_matches_a_direct_spectrum_computation():
    rng = RngState(10)
    h_s = _rank_limited(rng.split(0), 8, 6, 3)
    h_new = sample_complex_gaussian(rng.split(1), 8, 1, 1.0)[:, 0]
    delta, _ = interlacing_check(h_s, h_new, rank=3)
    before = np.linalg.svd(h_s, compute_uv=False)[2] ** 2
    after = np.linalg.svd(np.hstack([h_s, h_new[:, None]]),
                          compute_uv=False)[2] ** 2
    np.testing.assert_allclose(delta, after - before, rtol=1e-9, atol=1e-12)
