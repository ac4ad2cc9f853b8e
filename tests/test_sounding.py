import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.channel import SystemConfig, generate_channel
from twostage.numkit import RngState, random_unitary, sample_complex_gaussian
from twostage.sounding import (
    dft_combiner,
    invert_combiner,
    observe_columns,
    sound_columns_stage1,
)


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


def test_observation_equals_combined_signal_plus_combined_noise():
    cfg, real = _channel(3)
    block = sound_columns_stage1(real.h, 4, 0.1, cfg.n_rf, RngState(3).split(1))
    bank = block.combiner
    expected = bank.conj().T @ real.h[:, :4] + bank.conj().T @ block.injected_noise
    np.testing.assert_array_equal(block.observations, expected)


def test_channel_use_accounting_with_and_without_divisibility():
    _, real = _channel(1, n_rx=32, n_tx=64, paths=4, n_rf=4)
    assert sound_columns_stage1(real.h, 8, 0.0, 6, RngState(0)).channel_uses == 48
    assert sound_columns_stage1(real.h, 8, 0.0, 8, RngState(0)).channel_uses == 32


def test_noiseless_inversion_recovers_the_block_exactly():
    cfg, real = _channel(5)
    block = sound_columns_stage1(real.h, 4, 0.0, cfg.n_rf, RngState(5).split(1))
    recovered = invert_combiner(block)
    assert np.max(np.abs(recovered - real.h[:, :4])) <= 1e-12


def test_recovery_error_is_exactly_the_injected_noise():
    cfg, real = _channel(7)
    block = sound_columns_stage1(real.h, 4, 0.2, cfg.n_rf, RngState(7).split(1))
    error = invert_combiner(block) - real.h[:, :4]
    np.testing.assert_allclose(error, block.injected_noise, atol=1e-12)


def test_recovered_block_is_independent_of_the_combiner_bank():
    # same noise replayed through the DFT bank, a random unitary, and a
    # generic full-rank bank must invert to the same block
    cfg, real = _channel(9)
    h_s = real.h[:, :4]
    noise = sample_complex_gaussian(RngState(9).split(1), 8, 4, 0.3)
    banks = [
        dft_combiner(8),
        random_unitary(RngState(9).split(2), 8),
        np.eye(8) + 0.2 * sample_complex_gaussian(RngState(9).split(3), 8, 8, 1.0),
    ]
    recovered = [invert_combiner(observe_columns(h_s, bank, noise, cfg.n_rf))
                 for bank in banks]
    for rec in recovered:
        np.testing.assert_allclose(rec, h_s + noise, atol=1e-9)


def test_sounding_is_deterministic_for_a_given_stream():
    cfg, real = _channel(11)
    a = sound_columns_stage1(real.h, 4, 0.1, cfg.n_rf, RngState(11).split(4))
    b = sound_columns_stage1(real.h, 4, 0.1, cfg.n_rf, RngState(11).split(4))
    np.testing.assert_array_equal(a.observations, b.observations)
    np.testing.assert_array_equal(a.injected_noise, b.injected_noise)


# ------------------------------------------------------------------- errors


def test_singular_bank_is_rejected_with_condition_diagnostic():
    cfg, real = _channel(13)
    bank = np.ones((8, 8), dtype=complex)  # rank one
    noise = np.zeros((8, 4), dtype=complex)
    block = observe_columns(real.h[:, :4], bank, noise, cfg.n_rf)
    with pytest.raises(ValueError, match="condition number"):
        invert_combiner(block)


def test_stage1_through_the_dft_bank_skips_the_condition_check(monkeypatch):
    # the cached DFT bank is unitary, so inverting it takes no SVD
    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond called on the DFT bank")

    monkeypatch.setattr(np.linalg, "cond", no_cond)
    cfg, real = _channel(13)
    block = sound_columns_stage1(real.h, 4, 0.1, cfg.n_rf, RngState(13).split(1))
    error = invert_combiner(block) - real.h[:, :4]
    np.testing.assert_allclose(error, block.injected_noise, atol=1e-12)


def test_observe_rejects_shape_mismatches():
    cfg, real = _channel(15)
    noise = np.zeros((8, 4), dtype=complex)
    with pytest.raises(ValueError, match="square"):
        observe_columns(real.h[:, :4], np.ones((8, 4)), noise, cfg.n_rf)
    with pytest.raises(ValueError, match="noise"):
        observe_columns(real.h[:, :4], dft_combiner(8), noise[:, :3], cfg.n_rf)


def test_sound_columns_rejects_bad_arguments():
    cfg, real = _channel(17)
    with pytest.raises(ValueError):
        sound_columns_stage1(real.h, 0, 0.1, cfg.n_rf, RngState(0))
    with pytest.raises(ValueError):
        sound_columns_stage1(real.h, 17, 0.1, cfg.n_rf, RngState(0))
    with pytest.raises(ValueError):
        sound_columns_stage1(real.h, 4, -0.1, cfg.n_rf, RngState(0))
    with pytest.raises(ValueError):
        sound_columns_stage1(real.h, 4, 0.1, 0, RngState(0))
