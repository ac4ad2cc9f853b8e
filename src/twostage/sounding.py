"""First-stage observation model: exhaustive sounding of a column block.

Each sampled column is excited with a canonical (unit-power) transmit vector
while the receiver cycles a fixed square combiner bank, n_rf columns per
channel use. Stacking the uses gives Y = M^H H_S + M^H N, which any full-rank
bank inverts back to H_S + N, independent of the particular bank.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import as_complex_matrix, sample_complex_gaussian

__all__ = [
    "ObservationBlock",
    "dft_combiner",
    "observe_columns",
    "sound_columns_stage1",
    "invert_combiner",
]

# combiner banks with condition numbers beyond this are treated as singular
MAX_COMBINER_COND = 1e12


@dataclass(frozen=True)
class ObservationBlock:
    """Stacked combiner outputs for one sounded column block."""

    observations: np.ndarray = field(repr=False)  # n_rx x m
    combiner: np.ndarray = field(repr=False)  # the square bank M
    injected_noise: np.ndarray = field(repr=False)  # per-column antenna noise
    channel_uses: int = 0


@functools.lru_cache
def dft_combiner(n):
    """Unitary n x n DFT bank; every entry has modulus 1 / sqrt(n).

    Built once per size and shared: the returned array is read-only.
    """
    if n < 1:
        raise ValueError("combiner size must be positive")
    k = np.arange(n)
    bank = np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)
    bank.flags.writeable = False
    return bank


def observe_columns(h_s, combiner, noise, n_rf):
    """Stack the combined observations of a column block with given noise.

    The bank is tiled n_rf columns per channel use; a final partial use
    contributes only the leftover rows, so sounding one column costs
    ceil(n_rx / n_rf) uses. Keeping the noise argument explicit lets oracle
    tests replay the same noise through different banks.
    """
    h_s = as_complex_matrix(h_s, "column block")
    combiner = as_complex_matrix(combiner, "combiner bank")
    noise = as_complex_matrix(noise, "noise")
    if combiner.shape[0] != combiner.shape[1]:
        raise ValueError(f"combiner bank must be square, got {combiner.shape}")
    if combiner.shape[0] != h_s.shape[0]:
        raise ValueError("combiner bank size must match the array size")
    if noise.shape != h_s.shape:
        raise ValueError("noise must match the column block shape")
    if n_rf < 1:
        raise ValueError("need at least one RF chain")
    y = combiner.conj().T @ h_s + combiner.conj().T @ noise
    uses = h_s.shape[1] * math.ceil(h_s.shape[0] / n_rf)
    return ObservationBlock(observations=y, combiner=combiner,
                            injected_noise=noise, channel_uses=uses)


def sound_columns_stage1(h, m, sigma2, n_rf, rng):
    """Observe the first m channel columns through the DFT bank."""
    h = as_complex_matrix(h, "channel")
    if not 1 <= m <= h.shape[1]:
        raise ValueError(f"m must be in [1, {h.shape[1]}], got {m}")
    if sigma2 < 0:
        raise ValueError("noise variance must be non-negative")
    noise = sample_complex_gaussian(rng, h.shape[0], m, sigma2)
    return observe_columns(h[:, :m], dft_combiner(h.shape[0]), noise, n_rf)


def invert_combiner(block):
    """Undo the combiner bank, returning H_S + N exactly for any full-rank bank."""
    bank = block.combiner
    # the cached DFT bank is unitary (condition number 1): check other banks only
    if bank is not dft_combiner(len(bank)):
        cond = np.linalg.cond(bank)
        if not np.isfinite(cond) or cond > MAX_COMBINER_COND:
            raise ValueError(
                f"combiner bank is numerically singular (condition number {cond:.3e})"
            )
    return np.linalg.solve(bank.conj().T, block.observations)
