import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.channel import SystemConfig, generate_channel
from twostage.numkit import RngState, sample_complex_gaussian
from twostage.pipeline import RECOVERY_MODES, two_stage_estimate

from oracles import dft_combiner, sound_and_invert_block


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


# --------------------------------------------------------------- observation


def _sound(h, m, sigma2, rng):
    """Stage-1 sounding and inversion of the first m columns through the DFT bank."""
    noise = sample_complex_gaussian(rng, h.shape[0], m, sigma2)
    return sound_and_invert_block(h[:, :m], dft_combiner(h.shape[0]), noise), noise


def test_inversion_solves_the_combined_signal_plus_combined_noise():
    # bitwise oracle for every bank, the DFT bank included:
    # solve(M^H, M^H (H + N)); the unitary DFT bank also matches M (M^H (H + N))
    _, real = _channel(3)
    h_s = real.h[:, :4]
    noise = sample_complex_gaussian(RngState(3).split(1), 8, 4, 0.1)
    gaussian = sample_complex_gaussian(RngState(3).split(2), 8, 8, 1.0)
    dft = dft_combiner(8)
    for bank in (dft, gaussian):
        mh = bank.conj().T
        recovered = sound_and_invert_block(h_s, bank, noise)
        np.testing.assert_array_equal(recovered, np.linalg.solve(mh, mh @ (h_s + noise)))
    adjoint = dft @ (dft.conj().T @ (h_s + noise))
    assert np.max(np.abs(sound_and_invert_block(h_s, dft, noise) - adjoint)) <= 1e-13


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
    # same noise replayed through the DFT bank, a complex Gaussian bank and a
    # perturbed identity must invert to the same block
    _, real = _channel(9)
    h_s = real.h[:, :4]
    noise = sample_complex_gaussian(RngState(9).split(1), 8, 4, 0.3)
    banks = [
        dft_combiner(8),
        sample_complex_gaussian(RngState(9).split(2), 8, 8, 1.0),
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
    args = {"column block": real.h[:, :4], "combiner bank": dft_combiner(8),
            "noise": noise}
    for name in args:
        bad = dict(args)
        bad[name] = args[name].copy()
        bad[name][2, 3] = np.nan
        with pytest.raises(ValueError, match=f"{name} contains 1 non-finite"):
            sound_and_invert_block(*bad.values())


def test_no_estimate_mode_calls_cond_or_sound_and_invert_block(monkeypatch):
    # any full-rank bank inverts to H_S + N, so an estimate forms H_S + N with
    # no bank: no condition check and no bank inversion (the oracle's only
    # factorization is a solve), in every mode
    def forbidden(*args, **kwargs):
        raise AssertionError("stage 1 inverted a combiner bank")

    monkeypatch.setattr(np.linalg, "cond", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    cfg, real = _channel(13)
    for mode in RECOVERY_MODES:
        rep = two_stage_estimate(real, cfg, 4, 0.1, RngState(13), mode)
        assert np.all(np.isfinite(rep.h_hat)) and rep.mode == mode


def test_observe_rejects_shape_mismatches():
    _, real = _channel(15)
    noise = np.zeros((8, 4), dtype=complex)
    with pytest.raises(ValueError, match="square"):
        sound_and_invert_block(real.h[:, :4], np.ones((8, 4)), noise)
    with pytest.raises(ValueError, match="noise"):
        sound_and_invert_block(real.h[:, :4], dft_combiner(8), noise[:, :3])
    with pytest.raises(ValueError, match="combiner bank size must match the array size"):
        sound_and_invert_block(real.h[:, :4], dft_combiner(16), noise)
