import math

import numpy as np
import pytest

from twostage.channel import SystemConfig, generate_channel
from twostage.numkit import sample_complex_gaussian, stream
from twostage.sounding import observe


def test_observation_is_the_block_plus_one_draw_bit_for_bit():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    block = generate_channel(cfg, stream(5)).h[:, :4]
    for k in range(5):
        expected = block + sample_complex_gaussian(stream(k), *block.shape, 0.2)
        y, uses = observe(block, 0.2, stream(k), cfg.n_rf)
        assert np.array_equal(y, expected)
        assert uses == 4 * 4
    np.testing.assert_array_equal(observe(block, 0.0, stream(1), cfg.n_rf)[0], block)


@pytest.mark.parametrize("rows, cols, rank", [(32, 120, 6), (5, 3, 2)])
def test_observation_is_the_combined_channel_plus_the_drawn_noise(rows, cols, rank):
    # the real projection of the draws must equal W^H (H + N) with N built
    # from the same draws, per column real part before imaginary part
    h = sample_complex_gaussian(stream(64, 0), rows, cols, 1.0)
    w = sample_complex_gaussian(stream(64, 1), rows, rank, 1.0)  # not orthonormal
    sigma2 = 0.3
    observed, uses = observe(h, sigma2, stream(64, 2), rank, w)
    draws = stream(64, 2).standard_normal((cols, 2 * rows))
    noise = math.sqrt(sigma2 / 2.0) * (draws[:, :rows] + 1j * draws[:, rows:]).T
    expected = w.conj().T @ (h + noise)
    np.testing.assert_allclose(observed, expected, rtol=0,
                               atol=1e-13 * np.abs(expected).max())
    assert uses == cols  # one use per column when the chains cover the combiner


@pytest.mark.parametrize("combined", [False, True], ids=["plain", "combiner"])
def test_a_bad_noise_variance_is_rejected_before_any_draw(combined):
    block = sample_complex_gaussian(stream(3), 8, 4, 1.0)
    w = block[:, :2] if combined else None
    for bad in (-0.1, math.nan, math.inf, True, np.True_):  # float(True) would be 1.0
        rng = stream(1)
        with pytest.raises(ValueError, match="finite and non-negative"):
            observe(block, bad, rng, 2, w)
        np.testing.assert_equal(rng.bit_generator.state, stream(1).bit_generator.state)
    if combined:
        with pytest.raises(ValueError, match="rows"):
            observe(block, 0.1, stream(1), 2, w[:5])


@pytest.mark.parametrize("combined", [False, True], ids=["plain", "combiner"])
def test_a_chain_count_below_one_is_rejected_before_any_draw(combined):
    # 0 chains would divide by zero, -1 count negative uses, 2.5 fractional ones
    block = sample_complex_gaussian(stream(3), 8, 4, 1.0)
    w = block[:, :2] if combined else None
    for bad in (0, -1, 2.5):
        rng = stream(1)
        with pytest.raises(ValueError, match="n_rf must be"):
            observe(block, 0.1, rng, bad, w)
        np.testing.assert_equal(rng.bit_generator.state, stream(1).bit_generator.state)


def test_uses_count_the_chains_each_column_needs():
    # the reference scale at m = 8: the sounded block, then the 120 remaining
    # columns through a 4-column sounder; one chain observes one entry per use
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    h = generate_channel(cfg, stream(9)).h
    w = h[:, :4]
    for n_rf, stage1 in ((6, 48), (8, 32)):
        uses = (observe(h[:, :8], 0.1, stream(1), n_rf)[1],
                observe(h[:, 8:], 0.1, stream(1), n_rf, w)[1])
        assert uses == (stage1, 120)
        assert sum(uses) < cfg.dof  # 168 and 152 uses for 624 parameters
    assert observe(h, 0.1, stream(1), 1)[1] == 32 * 128
    assert observe(h[:, 8:], 0.1, stream(1), 3, w)[1] == 2 * 120
