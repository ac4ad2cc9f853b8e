"""End-to-end two-stage estimator, its metrics, and the genie baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import as_complex_matrix, sample_complex_gaussian
from .sounding import dft_combiner, sound_and_invert_block
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
    nmse: float = 0.0
    subspace_dist: float = 0.0
    channel_uses_stage1: int = 0
    channel_uses_stage2: int = 0
    channel_uses_total: int = 0
    dof: int = 0
    mode: str = "pseudo-inverse"
    seed: int = 0


def nmse(h, h_hat):
    """Squared Frobenius error of the estimate, normalized by the true energy."""
    h = as_complex_matrix(h, "true channel")
    h_hat = as_complex_matrix(h_hat, "estimate")
    if h.shape != h_hat.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {h_hat.shape}")
    denom = float(np.linalg.norm(h)) ** 2
    if denom == 0.0:
        raise ValueError("true channel has zero energy")
    return float(np.linalg.norm(h - h_hat)) ** 2 / denom


def degrees_of_freedom(n_r, n_t, paths):
    """Parameter count of a rank-``paths`` n_r x n_t matrix."""
    if not 1 <= paths <= min(n_r, n_t):
        raise ValueError("paths must be in [1, min(n_r, n_t)]")
    return paths * (n_r + n_t - paths)


def two_stage_estimate(real, cfg, m, sigma2, rng, mode="pseudo-inverse"):
    """Sound m columns at noise variance sigma2, learn the subspace, recover the rest.

    Stage 1 observes the first m columns through the DFT bank, n_rf rows per
    channel use, inverts the bank and keeps the dominant rank-``paths`` part
    of the recovered block. Stage 2 designs the subspace-matched sounder
    (``ideal`` mode sounds with the estimated basis itself) and recovers each
    remaining column in one channel use. The estimate stacks the denoised
    block and the recovered block in original column order.
    Deterministic given (cfg, m, sigma2, rng).
    """
    if real.h.shape != (cfg.n_rx, cfg.n_tx):
        raise ValueError(f"channel shape {real.h.shape} does not match the "
                         f"{cfg.n_rx} x {cfg.n_tx} scenario")
    if not cfg.paths <= m <= cfg.n_tx:
        raise ValueError(f"m={m} must satisfy {cfg.paths} <= m <= {cfg.n_tx}")
    if mode not in RECOVERY_MODES:
        raise ValueError(f"unknown recovery mode {mode!r}")
    # the sampler rejects a negative or non-finite sigma2 before any draw
    noise = sample_complex_gaussian(rng, cfg.n_rx, m, sigma2)
    y_tilde = sound_and_invert_block(real.h[:, :m], dft_combiner(cfg.n_rx), noise)
    est = estimate_stage1(y_tilde, cfg.paths)
    h_hat = est.denoised
    if m < cfg.n_tx:
        if mode == "ideal":
            sounder, column_mode = est.basis, "pseudo-inverse"
        else:
            atoms = build_dictionary(cfg.n_rx, cfg.grid_size)
            sounder = design_sounder_omp(est.basis, atoms, cfg.n_rf).product
            column_mode = mode
        h_rest = sound_and_recover_block(real.h[:, m:], sounder, sigma2, rng,
                                         column_mode)
        h_hat = np.hstack([h_hat, h_rest])
    uses_stage1 = m * math.ceil(cfg.n_rx / cfg.n_rf)
    uses_stage2 = cfg.n_tx - m
    return EstimateReport(
        h_hat=h_hat,
        nmse=nmse(real.h, h_hat),
        subspace_dist=subspace_distance(real.basis, est.basis),
        channel_uses_stage1=uses_stage1,
        channel_uses_stage2=uses_stage2,
        channel_uses_total=uses_stage1 + uses_stage2,
        dof=degrees_of_freedom(cfg.n_rx, cfg.n_tx, cfg.paths),
        mode=mode,
        seed=cfg.seed,
    )


def full_observation_baseline(real, sigma2, rng):
    """Genie floor: observe every entry once, then the stage-1 rank-``paths`` PCA.

    The channel-use figure counts the n_rx * n_tx genie observations and is
    not comparable with the sounding budget of the two-stage estimator; rows
    carry the ``full-observation`` tag to keep that explicit.
    """
    h = real.h
    noise = sample_complex_gaussian(rng, h.shape[0], h.shape[1], sigma2)
    est = estimate_stage1(h + noise, real.paths)
    entries = h.shape[0] * h.shape[1]
    return EstimateReport(
        h_hat=est.denoised,
        nmse=nmse(h, est.denoised),
        subspace_dist=subspace_distance(real.basis, est.basis),
        channel_uses_stage1=entries,
        channel_uses_stage2=0,
        channel_uses_total=entries,
        dof=degrees_of_freedom(h.shape[0], h.shape[1], real.paths),
        mode="full-observation",
        seed=rng.seed,
    )
