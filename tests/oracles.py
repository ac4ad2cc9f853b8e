"""Test-only oracles: reference computations that no trial runs.

pytest's default import mode puts this directory on ``sys.path``, so the test
modules import it as ``oracles``.
"""

import math

import numpy as np

from twostage.numkit import as_complex_matrix, as_integer

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


def interlacing_check(h_s, h_new, rank):
    """Shift of the rank-th squared singular value when a column is appended.

    Returns ``(delta, upper)`` where delta is
    sigma_rank^2([H_S, h_new]) - sigma_rank^2(H_S) and upper is |a_rank|^2
    with ``a`` the coefficients of h_new on the dominant left basis of H_S.
    For columns inside the span of that basis, 0 <= delta <= upper; for a
    general column only delta >= 0 is guaranteed.
    """
    h_s = as_complex_matrix(h_s, "column block")
    rank = as_integer(rank, "rank")
    h_new = np.asarray(h_new, dtype=np.complex128).reshape(-1)
    if h_new.shape[0] != h_s.shape[0]:
        raise ValueError("appended column length must match the block rows")
    grown = as_complex_matrix(np.column_stack([h_s, h_new]))
    u, s, _ = np.linalg.svd(h_s, full_matrices=False)
    if not 1 <= rank <= len(s):
        raise ValueError(f"rank must be in [1, {len(s)}], got {rank}")
    if s[rank - 1] <= 0:
        raise ValueError(f"rank {rank} reaches past the last positive singular value")
    upper = float(abs(np.vdot(u[:, rank - 1], h_new)) ** 2)
    s_grown = np.linalg.svd(grown, compute_uv=False)
    delta = float(s_grown[rank - 1] ** 2 - s[rank - 1] ** 2)
    return delta, upper
