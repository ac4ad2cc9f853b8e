import math

import numpy as np
import pytest

from twostage.channel import SystemConfig, generate_channel
from twostage.numkit import RngState, sample_complex_gaussian
from twostage.sounding import _observe


def test_observation_is_the_block_plus_one_draw_bit_for_bit():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    block = generate_channel(cfg, RngState(5)).h[:, :4]
    for k in range(5):
        expected = block + sample_complex_gaussian(RngState(k), *block.shape, 0.2)
        assert np.array_equal(_observe(block, 0.2, RngState(k)), expected)
    np.testing.assert_array_equal(_observe(block, 0.0, RngState(1)), block)
    # the sampler rejects the variance before the stream builds its generator
    for bad in (-0.1, math.nan):
        rng = RngState(1)
        with pytest.raises(ValueError, match="finite and non-negative"):
            _observe(block, bad, rng)
        assert "generator" not in rng.__dict__
