"""Test-only oracles: reference computations that no trial runs.

pytest's default import mode puts this directory on ``sys.path``, so the test
modules import it as ``oracles``. The oracles check none of their arguments;
the tests hand them finite complex arrays of matching shapes.
"""

import math

import numpy as np


def dft_combiner(n):
    """Unitary n x n DFT bank; every entry has modulus 1 / sqrt(n)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / math.sqrt(n)


def sound_and_invert_block(h_s, bank, noise):
    """Sound a column block through the bank and undo the bank: H_S + N back.

    The stacked combiner outputs are Y = M^H (H_S + N); solving M^H X = Y
    returns H_S + N for any full-rank bank, up to rounding. Keeping the noise
    argument explicit lets oracle tests replay the same noise through
    different banks.
    """
    mh = bank.conj().T
    return np.linalg.solve(mh, mh @ (h_s + noise))


def stage2_conditional_mse(h_rest, w, sigma2, mode):
    """Mean of ||H_rest - H_hat||_F^2 over stage-2 noise draws, W held fixed.

    Both recovery modes are linear, H_hat = A (H_rest + N), with A = W W^+
    for ``pseudo-inverse`` and A = W W^H for ``paper-literal``. Each of the
    N_t - m columns of N is CN(0, sigma2 I), so the mean squared error is
    ||(I - A) H_rest||_F^2 + sigma2 ||A||_F^2 (N_t - m), exactly.
    """
    a = w @ np.linalg.pinv(w) if mode == "pseudo-inverse" else w @ w.conj().T
    bias = h_rest - a @ h_rest
    return float(np.vdot(bias, bias).real + sigma2 * np.vdot(a, a).real * h_rest.shape[1])
