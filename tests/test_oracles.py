"""The oracles in ``oracles.py`` against known answers."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.channel import SystemConfig, generate_channel
from twostage.numkit import sample_complex_gaussian, stream

from oracles import dft_combiner, sound_and_invert_block


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
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    h_s = generate_channel(cfg, stream(3)).h[:, :4]
    noise = sample_complex_gaussian(stream(3, 1), 8, 4, 0.1)
    gaussian = sample_complex_gaussian(stream(3, 2), 8, 8, 1.0)
    dft = dft_combiner(8)
    for bank in (dft, gaussian):
        mh = bank.conj().T
        recovered = sound_and_invert_block(h_s, bank, noise)
        np.testing.assert_array_equal(recovered, np.linalg.solve(mh, mh @ (h_s + noise)))
    adjoint = dft @ (dft.conj().T @ (h_s + noise))
    assert np.max(np.abs(sound_and_invert_block(h_s, dft, noise) - adjoint)) <= 1e-13
