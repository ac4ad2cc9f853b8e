"""Second stage: hybrid sounder design on the learned subspace, then
one-channel-use recovery of every remaining column, sounded as one block.

The receive sounder is factored as analog @ digital where the analog part is
built from constant-modulus steering atoms (phase shifters only) and the
digital part is an unconstrained least-squares fit, chosen greedily so the
product approximates the estimated subspace basis. The greedy pass returns
that product, the target's projection onto the picked atoms, so no digital
part is ever formed; a caller that wants it fits ``lstsq(analog, product)``.
Recovery projects the real noise draws by one real product, with no complex
noise matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ula_response
from .numkit import as_integer

__all__ = [
    "HybridSounder",
    "build_dictionary",
    "design_sounder_omp",
    "sound_and_recover_block",
]

COLUMN_MODES = ("pseudo-inverse", "paper-literal")

# combiners whose Gram matrix has a condition number beyond this are rank deficient
MAX_GRAM_COND = 1e12

# an atom whose part outside the span of the atoms already picked is below this
# fraction of its norm adds nothing to that span
SPAN_TOL = 1e-10


@dataclass(frozen=True)
class HybridSounder:
    """Greedy factorization of a target combiner into phase shifts and mixing."""

    analog: np.ndarray = field(repr=False)  # n_rx x n_rf, |entry| = 1/sqrt(n_rx)
    product: np.ndarray = field(repr=False)  # analog @ digital
    residual: float  # ||target - product||_F after the last step
    residual_path: tuple  # per-step residuals, non-increasing
    selected: tuple  # chosen grid indices in selection order


def build_dictionary(n_r, grid_size):
    """The n_r x grid_size steering atoms, column k at the sine -1 + 2k / grid_size.

    The grid samples the sine domain [-1, 1) uniformly; the default size
    (twice the array size) is twice the critical resolution. Entries inherit
    the 1/sqrt(n_r) modulus of the steering vectors. Built once per size pair
    and shared read-only; the sizes are checked first, as 64.0 hashes like 64.
    """
    return _build_atoms(as_integer(n_r, "array size"), as_integer(grid_size, "grid size"))


@functools.lru_cache
def _build_atoms(n_r, grid_size):
    if n_r < 1:
        raise ValueError("array size must be positive")
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    atoms = ula_response(-1.0 + 2.0 * np.arange(grid_size) / grid_size, n_r)
    atoms.flags.writeable = False
    return atoms


def design_sounder_omp(target, atoms, n_rf):
    """Simultaneous matching pursuit of the target combiner over the atoms.

    Each of the n_rf steps scores every unused atom by the energy of its
    correlation row against the current residual and appends the best one.
    The residual is the part of the target outside the span of the picked
    atoms, kept as an orthonormal basis that grows by one Gram-Schmidt vector
    per step, so it never increases. Atoms are never reused. The product is
    the target minus the last residual, its projection onto the atoms' span.
    ``target`` and ``atoms`` must be finite 2-D complex arrays; they are not
    checked.
    """
    n_rf = as_integer(n_rf, "n_rf")
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
    atoms_h = atoms.conj().T
    # orthonormal basis of the picked atoms' span in its first `rank` columns;
    # the zero columns past it leave the projections below unchanged
    span = np.zeros((atoms.shape[0], n_rf), dtype=np.complex128)
    span_h = np.zeros((n_rf, atoms.shape[0]), dtype=np.complex128)
    rank = 0
    selected = []
    residual_path = []
    residual_mat = target
    for _ in range(n_rf):
        scores = np.linalg.norm(atoms_h @ residual_mat, axis=1)
        scores[selected] = -1.0
        pick = int(np.argmax(scores))
        selected.append(pick)
        atom = q = atoms[:, pick]
        # the second pass restores the orthogonality the first loses to rounding
        for _ in range(2):
            q = q - span @ (span_h @ q)
        size = math.sqrt(np.vdot(q, q).real)
        if size > SPAN_TOL * math.sqrt(np.vdot(atom, atom).real):
            q = q / size
            span[:, rank], span_h[rank] = q, q.conj()
            residual_mat = residual_mat - q[:, None] * (span_h[rank] @ residual_mat)
            rank += 1
        residual_path.append(math.sqrt(np.vdot(residual_mat, residual_mat).real))
    return HybridSounder(
        analog=atoms[:, selected],
        product=target - residual_mat,
        residual=residual_path[-1],
        residual_path=tuple(residual_path),
        selected=tuple(selected),
    )


def sound_and_recover_block(h, w, sigma2, rng, mode="pseudo-inverse"):
    """Observe every column of ``h`` through the same combiner, one use each.

    The uses stack into Y = W^H (H + N), with W the combiner matrix and the
    noise drawn column by column, real part before imaginary part (W^H N is
    one real product of the draws). ``pseudo-inverse`` returns the minimum-norm
    least-squares estimate W (W^H W)^-1 Y, inverting the Gram matrix through its
    eigendecomposition; ``paper-literal`` returns W Y, which agrees only when W
    has orthonormal columns. ``h`` and ``w`` must be finite 2-D complex
    arrays; they are not checked.
    """
    if mode not in COLUMN_MODES:
        raise ValueError(f"unknown recovery mode {mode!r}")
    if w.shape[0] != h.shape[0]:
        raise ValueError("combiner rows must match the array size")
    if not math.isfinite(sigma2) or sigma2 < 0:
        raise ValueError(f"noise variance must be finite and non-negative, got {sigma2}")
    draws = rng.generator.standard_normal((h.shape[1], 2 * h.shape[0]))
    # row j, [Re n_j, Im n_j], against [conj W; i conj W] as reals is n_j^T conj W as complex
    wh = w.conj().T
    mix = math.sqrt(sigma2 / 2.0) * np.vstack([wh.T, 1j * wh.T]).view(np.float64)
    y = wh @ h + (draws @ mix).view(np.complex128).T
    if mode == "paper-literal":
        return w @ y
    # one eigendecomposition of the Hermitian Gram matrix gives both its
    # condition number and its inverse
    evals, evecs = np.linalg.eigh(wh @ w)
    low, high = float(evals[0]), float(evals[-1])
    cond = high / low if low > 0 else math.inf
    if not math.isfinite(cond) or cond > MAX_GRAM_COND:
        raise np.linalg.LinAlgError(
            f"combiner is rank deficient (Gram condition number {cond:.3e}, "
            f"rank {np.linalg.matrix_rank(w)})"
        )
    return w @ (evecs @ ((evecs.conj().T @ y) / evals[:, None]))
