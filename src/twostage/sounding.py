"""Observation model: the one place a trial draws noise and counts channel uses.

Stage 1 sounds each column with a unit transmit vector while the receiver
cycles a square combiner bank, n_rf outputs per use. Any full-rank bank M
inverts M^H (H_S + N) back to H_S + N, so that is the observation; the bank
route is a test oracle in ``tests/oracles.py``. Stage 2 observes W^H (H_S + N)
through its k-column sounder W. The receivers never see the channel.
"""

import math

import numpy as np

from .numkit import as_integer, sample_complex_gaussian


def observe(block, sigma2, rng, n_rf, w=None):
    """(Observation, channel uses) of every column of ``block``, sounded once.

    Without ``w``: H_S + N, N one draw of the block's shape, ceil(N_r / n_rf)
    uses per column. With a k-column ``w``: W^H (H_S + N), ceil(k / n_rf) uses
    per column, the noise drawn column by column (real part before imaginary)
    and projected by one real product, never formed as a complex matrix. The
    arrays are not checked; a bad ``sigma2`` or ``n_rf`` is rejected before any draw.
    """
    if (n_rf := as_integer(n_rf, "n_rf")) < 1:
        raise ValueError(f"n_rf must be at least 1, got {n_rf}")
    rows, cols = block.shape
    uses = cols * math.ceil((rows if w is None else w.shape[1]) / n_rf)
    if w is None:  # the sampler checks sigma2 before it draws
        return block + sample_complex_gaussian(rng, rows, cols, sigma2), uses
    if isinstance(sigma2, (bool, np.bool_)) or not math.isfinite(sigma2) or sigma2 < 0:
        raise ValueError(f"noise variance must be finite and non-negative, got {sigma2}")
    if w.shape[0] != rows:
        raise ValueError("combiner rows must match the array size")
    draws = rng.standard_normal((cols, 2 * rows))
    # row j, [Re n_j, Im n_j], against [conj W; i conj W] as reals is n_j^T conj W as complex
    wh = w.conj().T
    mix = math.sqrt(sigma2 / 2.0) * np.vstack([wh.T, 1j * wh.T]).view(np.float64)
    return wh @ block + (draws @ mix).view(np.complex128).T, uses
