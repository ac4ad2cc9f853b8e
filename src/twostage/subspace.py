"""Column-subspace estimation from the sounded block and its diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import as_integer


@dataclass(frozen=True, eq=False)
class SubspaceEstimate:
    """Dominant left subspace of the recovered column block.

    For a wide or square block the values are square roots of eigenvalues of
    the Gram matrix ``Y Y^H``, so a value sigma is accurate only to about
    ``eps * sigma_1**2 / sigma``, and its basis vector degrades with it; a
    tall block gets them from an SVD, to about ``eps * sigma_1``.
    """

    basis: np.ndarray = field(repr=False)  # n_rx x rank, orthonormal columns
    singular_values: np.ndarray = field(repr=False)  # leading values, descending
    denoised: np.ndarray = field(repr=False)  # best rank-`rank` fit of the input


def estimate_stage1(y, rank):
    """PCA denoising: keep the ``rank`` dominant left singular directions.

    A block with at least as many columns as rows goes through the
    eigendecomposition of its Gram matrix ``Y Y^H``, which there is cheaper
    than the SVD that a tall block takes. ``y`` must be a finite 2-D complex
    array; it is not checked.
    """
    rank = as_integer(rank, "rank")
    if not 1 <= rank <= min(y.shape):
        raise ValueError(f"rank must be in [1, {min(y.shape)}], got {rank}")
    if y.shape[1] >= y.shape[0]:
        evals, evecs = np.linalg.eigh(y @ y.conj().T)
        # eigh sorts ascending; copied, as numpy's matmul skips BLAS on a negative stride
        u = evecs[:, ::-1][:, :rank].copy()
        s = np.sqrt(np.maximum(evals[::-1][:rank], 0.0))
        return SubspaceEstimate(basis=u, singular_values=s, denoised=u @ (u.conj().T @ y))
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    u, s = u[:, :rank], s[:rank]
    return SubspaceEstimate(basis=u, singular_values=s, denoised=(u * s) @ vh[:rank])


def subspace_distance(u, u_hat):
    """Squared spectral norm of the projector difference between two subspaces.

    For equal-dimension orthonormal bases this is sin^2 of the largest
    principal angle, so it lies in [0, 1]: 0 for identical spans, 1 for
    orthogonal ones. It is computed as ||D||_2^2 with D = U_hat - U (U^H U_hat),
    the part of U_hat outside span(U), an n x rank matrix rather than the
    n x n projector difference, and taken as the largest eigenvalue of the
    rank x rank Gram matrix D^H D; unlike 1 - sigma_min(U^H U_hat)^2 this
    sine form does not cancel for nearly equal spans. ``u`` and ``u_hat`` must
    be finite complex arrays with orthonormal columns; they are not checked.
    """
    if u.shape != u_hat.shape:
        raise ValueError(f"basis shapes differ: {u.shape} vs {u_hat.shape}")
    outside = u_hat - u @ (u.conj().T @ u_hat)
    sine2 = float(np.linalg.eigvalsh(outside.conj().T @ outside)[-1])
    if not math.isfinite(sine2):  # the clamp below would turn NaN into 0.0
        raise np.linalg.LinAlgError(f"subspace distance is not finite ({sine2})")
    # for nearly equal spans the largest eigenvalue can round below zero
    return min(1.0, max(0.0, sine2))
