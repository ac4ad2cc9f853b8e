import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.channel import SystemConfig, generate_channel
from twostage.numkit import RngState, random_unitary, sample_complex_gaussian
from twostage.pipeline import two_stage_estimate
from twostage.sounding import dft_combiner, sound_and_invert_block


def _channel(seed=0, **kw):
    base = dict(n_rx=8, n_tx=16, paths=2, n_rf=2, seed=seed)
    base.update(kw)
    cfg = SystemConfig(**base)
    return cfg, generate_channel(cfg, RngState(seed))


# ------------------------------------------------------------------ combiner


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


def test_dft_combiner_is_built_once_and_read_only():
    bank = dft_combiner(16)
    assert dft_combiner(16) is bank
    assert not bank.flags.writeable
    fresh = dft_combiner.__wrapped__(16)
    assert fresh is not bank
    assert bank.shape == fresh.shape and bank.tobytes() == fresh.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        bank[0, 0] = 0.0


# --------------------------------------------------------------- observation


def _sound(h, m, sigma2, rng):
    """Stage-1 sounding and inversion of the first m columns through the DFT bank."""
    noise = sample_complex_gaussian(rng, h.shape[0], m, sigma2)
    return sound_and_invert_block(h[:, :m], dft_combiner(h.shape[0]), noise), noise


def test_inversion_solves_the_combined_signal_plus_combined_noise():
    # bitwise oracle: solve(M^H, M^H H + M^H N) for the DFT bank and another bank
    _, real = _channel(3)
    noise = sample_complex_gaussian(RngState(3).split(1), 8, 4, 0.1)
    for bank in (dft_combiner(8), random_unitary(RngState(3).split(2), 8)):
        mh = bank.conj().T
        expected = np.linalg.solve(mh, mh @ real.h[:, :4] + mh @ noise)
        np.testing.assert_array_equal(
            sound_and_invert_block(real.h[:, :4], bank, noise), expected)


def test_channel_use_accounting_with_and_without_divisibility():
    uses = {}
    for n_rf in (6, 8):
        cfg, real = _channel(1, n_rx=32, n_tx=64, paths=4, n_rf=n_rf)
        rep = two_stage_estimate(real, cfg, 8, 0.0, RngState(0))
        uses[n_rf] = rep.channel_uses_stage1
    assert uses == {6: 48, 8: 32}


def test_noiseless_inversion_recovers_the_block_exactly():
    _, real = _channel(5)
    recovered, _ = _sound(real.h, 4, 0.0, RngState(5).split(1))
    assert np.max(np.abs(recovered - real.h[:, :4])) <= 1e-12


def test_recovery_error_is_exactly_the_injected_noise():
    _, real = _channel(7)
    recovered, noise = _sound(real.h, 4, 0.2, RngState(7).split(1))
    error = recovered - real.h[:, :4]
    np.testing.assert_allclose(error, noise, atol=1e-12)


def test_recovered_block_is_independent_of_the_combiner_bank():
    # same noise replayed through the DFT bank, a random unitary, and a
    # generic full-rank bank must invert to the same block
    _, real = _channel(9)
    h_s = real.h[:, :4]
    noise = sample_complex_gaussian(RngState(9).split(1), 8, 4, 0.3)
    banks = [
        dft_combiner(8),
        random_unitary(RngState(9).split(2), 8),
        np.eye(8) + 0.2 * sample_complex_gaussian(RngState(9).split(3), 8, 8, 1.0),
    ]
    recovered = [sound_and_invert_block(h_s, bank, noise) for bank in banks]
    for rec in recovered:
        np.testing.assert_allclose(rec, h_s + noise, atol=1e-9)


def test_sounding_is_deterministic_for_a_given_stream():
    _, real = _channel(11)
    y_a, noise_a = _sound(real.h, 4, 0.1, RngState(11).split(4))
    y_b, noise_b = _sound(real.h, 4, 0.1, RngState(11).split(4))
    np.testing.assert_array_equal(y_a, y_b)
    np.testing.assert_array_equal(noise_a, noise_b)


# ------------------------------------------------------------------- errors


def test_singular_bank_is_rejected_with_condition_diagnostic():
    _, real = _channel(13)
    bank = np.ones((8, 8), dtype=complex)  # rank one
    noise = np.zeros((8, 4), dtype=complex)
    with pytest.raises(ValueError, match="condition number"):
        sound_and_invert_block(real.h[:, :4], bank, noise)
    # a list bank is coerced like any other array argument
    recovered = sound_and_invert_block(real.h[:, :4], np.eye(8).tolist(), noise)
    np.testing.assert_allclose(recovered, real.h[:, :4], atol=1e-12)
    nan_bank = dft_combiner(8).copy()
    nan_bank[2, 5] = np.nan
    with pytest.raises(ValueError, match="combiner bank contains 1 non-finite"):
        sound_and_invert_block(real.h[:, :4], nan_bank, noise)


def test_stage1_through_the_dft_bank_skips_the_condition_check(monkeypatch):
    # the cached DFT bank is unitary, so inverting it takes no SVD
    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond called on the DFT bank")

    monkeypatch.setattr(np.linalg, "cond", no_cond)
    _, real = _channel(13)
    recovered, noise = _sound(real.h, 4, 0.1, RngState(13).split(1))
    error = recovered - real.h[:, :4]
    np.testing.assert_allclose(error, noise, atol=1e-12)


def test_observe_rejects_shape_mismatches():
    _, real = _channel(15)
    noise = np.zeros((8, 4), dtype=complex)
    with pytest.raises(ValueError, match="square"):
        sound_and_invert_block(real.h[:, :4], np.ones((8, 4)), noise)
    with pytest.raises(ValueError, match="noise"):
        sound_and_invert_block(real.h[:, :4], dft_combiner(8), noise[:, :3])
