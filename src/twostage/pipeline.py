"""End-to-end two-stage estimator, its metrics, and the genie baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import as_complex_matrix, as_integer
from .sounding import _observe
from .stage2 import build_dictionary, design_sounder_omp, sound_and_recover_block
from .subspace import estimate_stage1, subspace_distance

__all__ = [
    "RECOVERY_MODES",
    "EstimateReport",
    "nmse",
    "degrees_of_freedom",
    "two_stage_estimate",
    "full_observation_baseline",
]

RECOVERY_MODES = ("pseudo-inverse", "paper-literal", "ideal")


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimation run, with its sounding budget."""

    h_hat: np.ndarray = field(repr=False)
    nmse: float
    subspace_dist: float
    channel_uses_stage1: int
    channel_uses_stage2: int
    channel_uses_total: int
    dof: int
    mode: str


def nmse(h, h_hat):
    """Squared Frobenius error of the estimate over the true energy; LinAlgError if not finite."""
    h = as_complex_matrix(h, "true channel")
    h_hat = as_complex_matrix(h_hat, "estimate")
    if h.shape != h_hat.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {h_hat.shape}")
    denom = np.vdot(h, h).real
    if denom == 0.0:
        raise ValueError("true channel has zero energy")
    error = h - h_hat
    if not math.isfinite(value := float(np.vdot(error, error).real / denom)):
        raise np.linalg.LinAlgError(f"NMSE is not finite ({value})")
    return value


def degrees_of_freedom(n_r, n_t, paths):
    """Parameter count of a rank-``paths`` n_r x n_t matrix."""
    n_r, n_t, paths = map(as_integer, (n_r, n_t, paths), ("n_r", "n_t", "paths"))
    if not 1 <= paths <= min(n_r, n_t):
        raise ValueError("paths must be in [1, min(n_r, n_t)]")
    return paths * (n_r + n_t - paths)


def two_stage_estimate(real, cfg, m, sigma2, rng, mode="pseudo-inverse"):
    """Sound m columns at noise variance sigma2, learn the subspace, recover the rest.

    Stage 1 sounds the first m columns through a full-rank combiner bank,
    n_rf rows per channel use; inverting any such bank returns H_S + N (see
    ``sounding``), so the estimate observes H_S + N directly and keeps its
    dominant rank-``paths`` part. Stage 2 designs the subspace-matched
    sounder and recovers each remaining column in one channel use; ``ideal``
    mode sounds with the orthonormal estimated basis itself and recovers by
    W y, its least-squares fit. The estimate stacks the denoised and the
    recovered block in original column order.
    Deterministic given (cfg, m, sigma2, rng). The channel is checked once,
    here; the stages below run unchecked on the arrays this function builds.
    """
    if (*real.h.shape, real.paths) != (cfg.n_rx, cfg.n_tx, cfg.paths):
        raise ValueError(f"channel shape {real.h.shape} with {real.paths} paths does not "
                         f"match the {cfg.n_rx} x {cfg.n_tx} scenario with {cfg.paths}")
    h = as_complex_matrix(real.h, "channel")
    m = as_integer(m, "m")
    if not cfg.paths <= m <= cfg.n_tx:
        raise ValueError(f"m={m} must satisfy {cfg.paths} <= m <= {cfg.n_tx}")
    if mode not in RECOVERY_MODES:
        raise ValueError(f"unknown recovery mode {mode!r}")
    # the sampler rejects a negative or non-finite sigma2 before any draw
    est = estimate_stage1(_observe(h[:, :m], sigma2, rng), cfg.paths)
    h_hat = est.denoised
    if m < cfg.n_tx:
        if mode == "ideal":
            sounder, column_mode = est.basis, "paper-literal"
        else:
            atoms = build_dictionary(cfg.n_rx, cfg.grid_size)
            sounder = design_sounder_omp(est.basis, atoms, cfg.n_rf).product
            column_mode = mode
        h_rest = sound_and_recover_block(h[:, m:], sounder, sigma2, rng, column_mode)
        h_hat = np.hstack([h_hat, h_rest])
    return _report(real, h_hat, est.basis, m * math.ceil(cfg.n_rx / cfg.n_rf),
                   cfg.n_tx - m, mode)


def full_observation_baseline(real, sigma2, rng):
    """Genie floor: observe every entry once, then the stage-1 rank-``paths`` PCA.

    The channel-use figure counts the n_rx * n_tx genie observations and is
    not comparable with the sounding budget of the two-stage estimator; rows
    carry the ``full-observation`` tag to keep that explicit.
    """
    est = estimate_stage1(_observe(as_complex_matrix(real.h, "channel"), sigma2, rng),
                          real.paths)
    return _report(real, est.denoised, est.basis, real.h.size, 0, "full-observation")


def _report(real, h_hat, basis, uses_stage1, uses_stage2, mode):
    """Score an estimate and its column basis against the realization.

    Both bases come orthonormal from a QR, an ``eigh`` or an SVD, as the
    distance requires; ``nmse`` still rejects a non-finite estimate.
    """
    return EstimateReport(
        h_hat=h_hat,
        nmse=nmse(real.h, h_hat),
        subspace_dist=subspace_distance(real.basis, basis),
        channel_uses_stage1=uses_stage1,
        channel_uses_stage2=uses_stage2,
        channel_uses_total=uses_stage1 + uses_stage2,
        dof=degrees_of_freedom(*h_hat.shape, basis.shape[1]),
        mode=mode,
    )
