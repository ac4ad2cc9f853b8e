"""Second stage: hybrid sounder design on the learned subspace, then
one-channel-use recovery of every remaining column, sounded as one block.

The receive sounder is factored as analog @ digital where the analog part is
built from constant-modulus steering atoms (phase shifters only) and the
digital part is an unconstrained least-squares fit, chosen greedily so the
product approximates the estimated subspace basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ula_response
from .numkit import as_complex_matrix

__all__ = [
    "HybridSounder",
    "build_dictionary",
    "design_sounder_omp",
    "sound_and_recover_block",
]

COLUMN_MODES = ("pseudo-inverse", "paper-literal")


@dataclass(frozen=True)
class HybridSounder:
    """Greedy factorization of a target combiner into phase shifts and mixing."""

    analog: np.ndarray = field(repr=False)  # n_rx x n_rf, |entry| = 1/sqrt(n_rx)
    digital: np.ndarray = field(repr=False)  # n_rf x rank, unconstrained
    product: np.ndarray = field(repr=False)  # analog @ digital
    residual: float = 0.0  # ||target - product||_F after the last step
    residual_path: tuple = ()  # per-step residuals, non-increasing
    selected: tuple = ()  # chosen grid indices in selection order


@functools.lru_cache
def build_dictionary(n_r, grid_size):
    """The n_r x grid_size steering atoms, column k at the sine -1 + 2k / grid_size.

    The grid samples the sine domain [-1, 1) uniformly; the default size
    (twice the array size) is twice the critical resolution. Entries inherit
    the 1/sqrt(n_r) modulus of the steering vectors. Built once per size pair
    and shared: the returned array is read-only.
    """
    if n_r < 1:
        raise ValueError("array size must be positive")
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    atoms = ula_response(-1.0 + 2.0 * np.arange(grid_size) / grid_size, n_r)
    atoms.flags.writeable = False
    return atoms


def design_sounder_omp(u_hat, atoms, n_rf):
    """Simultaneous matching pursuit of the target combiner over the atoms.

    Each of the n_rf steps scores every unused atom by the energy of its
    correlation row against the current residual, appends the best one, and
    refits the digital matrix by least squares over all selected atoms, so the
    residual never increases. Atoms are never reused.
    """
    target = as_complex_matrix(u_hat, "target combiner")
    atoms = as_complex_matrix(atoms, "dictionary atoms")
    if atoms.shape[0] != target.shape[0]:
        raise ValueError("dictionary atoms must match the target row count")
    if n_rf < target.shape[1]:
        raise ValueError(
            f"need n_rf >= {target.shape[1]} chains to span the target combiner"
        )
    if n_rf > atoms.shape[1]:
        raise ValueError(
            f"dictionary offers {atoms.shape[1]} atoms, fewer than n_rf={n_rf}"
        )
    selected = []
    residual_path = []
    residual_mat = target
    digital = None
    for _ in range(n_rf):
        scores = np.linalg.norm(atoms.conj().T @ residual_mat, axis=1)
        scores[selected] = -1.0
        selected.append(int(np.argmax(scores)))
        analog = atoms[:, selected]
        digital = np.linalg.lstsq(analog, target, rcond=None)[0]
        residual_mat = target - analog @ digital
        residual_path.append(float(np.linalg.norm(residual_mat)))
    return HybridSounder(
        analog=analog,
        digital=digital,
        product=analog @ digital,
        residual=residual_path[-1],
        residual_path=tuple(residual_path),
        selected=tuple(selected),
    )


def sound_and_recover_block(h, combiner, sigma2, rng, mode="pseudo-inverse"):
    """Observe every column of ``h`` through the same combiner, one use each.

    The uses stack into Y = W^H (H + N), with W the combiner matrix and the
    noise drawn column by column, real part before imaginary part.
    ``pseudo-inverse`` returns the minimum-norm least-squares estimate
    W (W^H W)^-1 Y; ``paper-literal`` returns W Y, which agrees only when W has
    orthonormal columns.
    """
    if mode not in COLUMN_MODES:
        raise ValueError(f"unknown recovery mode {mode!r}")
    w = as_complex_matrix(combiner, "combiner")
    h = as_complex_matrix(h, "channel")
    if w.shape[0] != h.shape[0]:
        raise ValueError("combiner rows must match the array size")
    if not math.isfinite(sigma2) or sigma2 < 0:
        raise ValueError(f"noise variance must be finite and non-negative, got {sigma2}")
    draws = rng.generator.standard_normal((h.shape[1], 2, h.shape[0]))
    noise = math.sqrt(sigma2 / 2.0) * (draws[:, 0] + 1j * draws[:, 1]).T
    wh = w.conj().T
    y = wh @ (h + noise)
    if mode == "paper-literal":
        return w @ y
    gram = wh @ w
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(
            f"combiner is rank deficient (Gram condition number {cond:.3e}, "
            f"rank {np.linalg.matrix_rank(w)})"
        )
    return w @ np.linalg.solve(gram, y)

