"""First-stage observation model: exhaustive sounding of a column block.

Each sampled column is excited with a canonical (unit-power) transmit vector
while the receiver cycles a fixed square combiner bank, n_rf columns per
channel use. Stacking the uses gives Y = M^H (H_S + N), which any full-rank
bank inverts back to H_S + N, independent of the particular bank.
"""

from __future__ import annotations

import math

import numpy as np

from .numkit import as_complex_matrix, as_integer

__all__ = [
    "dft_combiner",
    "sound_and_invert_block",
]

# combiner banks with condition numbers beyond this are treated as singular
MAX_COMBINER_COND = 1e12


def dft_combiner(n):
    """Unitary n x n DFT bank; every entry has modulus 1 / sqrt(n)."""
    n = as_integer(n, "combiner size")
    if n < 1:
        raise ValueError("combiner size must be positive")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)


def sound_and_invert_block(h_s, bank, noise):
    """Sound a column block through the bank and undo the bank: H_S + N back.

    The stacked combiner outputs are Y = M^H (H_S + N); solving M^H X = Y
    returns H_S + N for any full-rank bank, up to rounding. Keeping the noise
    argument explicit lets oracle tests replay the same noise through
    different banks.
    """
    h_s = as_complex_matrix(h_s, "column block")
    bank = as_complex_matrix(bank, "combiner bank")
    noise = as_complex_matrix(noise, "noise")
    if bank.shape[0] != bank.shape[1]:
        raise ValueError(f"combiner bank must be square, got {bank.shape}")
    if bank.shape[0] != h_s.shape[0]:
        raise ValueError("combiner bank size must match the array size")
    if noise.shape != h_s.shape:
        raise ValueError("noise must match the column block shape")
    cond = np.linalg.cond(bank)
    if not np.isfinite(cond) or cond > MAX_COMBINER_COND:
        raise ValueError(
            f"combiner bank is numerically singular (condition number {cond:.3e})"
        )
    mh = bank.conj().T
    return np.linalg.solve(mh, mh @ (h_s + noise))
