"""Column-subspace estimation from the sounded block and its diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import as_complex_matrix, as_integer

__all__ = [
    "SubspaceEstimate",
    "estimate_stage1",
    "subspace_distance",
    "interlacing_check",
]


@dataclass(frozen=True)
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


def estimate_stage1(y_tilde, rank):
    """PCA denoising: keep the ``rank`` dominant left singular directions.

    A block with at least as many columns as rows goes through the
    eigendecomposition of its Gram matrix ``Y Y^H``, which there is cheaper
    than the SVD that a tall block takes.
    """
    return _pca(as_complex_matrix(y_tilde, "recovered block"), rank)


def _pca(y, rank):
    """``estimate_stage1`` on a finite 2-D complex array, unchecked."""
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


def _require_orthonormal(u, name):
    gram = u.conj().T @ u
    dev = float(np.max(np.abs(gram - np.eye(u.shape[1]))))
    if dev > 1e-8:
        raise ValueError(f"{name} columns are not orthonormal (Gram deviation {dev:.3e})")


def subspace_distance(u, u_hat):
    """Squared spectral norm of the projector difference between two subspaces.

    For equal-dimension orthonormal bases this is sin^2 of the largest
    principal angle, so it lies in [0, 1]: 0 for identical spans, 1 for
    orthogonal ones. It is computed as ||D||_2^2 with D = U_hat - U (U^H U_hat),
    the part of U_hat outside span(U), an n x rank matrix rather than the
    n x n projector difference, and taken as the largest eigenvalue of the
    rank x rank Gram matrix D^H D; unlike 1 - sigma_min(U^H U_hat)^2 this
    sine form does not cancel for nearly equal spans.
    """
    u = as_complex_matrix(u, "reference basis")
    u_hat = as_complex_matrix(u_hat, "estimated basis")
    _require_orthonormal(u, "reference basis")
    _require_orthonormal(u_hat, "estimated basis")
    return _sine2(u, u_hat)


def _sine2(u, u_hat):
    """``subspace_distance`` on finite orthonormal complex bases, unchecked."""
    if u.shape != u_hat.shape:
        raise ValueError(f"basis shapes differ: {u.shape} vs {u_hat.shape}")
    outside = u_hat - u @ (u.conj().T @ u_hat)
    sine2 = float(np.linalg.eigvalsh(outside.conj().T @ outside)[-1])
    if not math.isfinite(sine2):  # the clamp below would turn NaN into 0.0
        raise np.linalg.LinAlgError(f"subspace distance is not finite ({sine2})")
    # for nearly equal spans the largest eigenvalue can round below zero
    return min(1.0, max(0.0, sine2))


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
