"""End-to-end two-stage estimator, its metrics, and the genie baseline."""

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import as_complex_matrix, as_integer
from .sounding import observe
from .stage2 import build_dictionary, design_sounder_omp, recover_block
from .subspace import estimate_stage1, subspace_distance

RECOVERY_MODES = ("pseudo-inverse", "paper-literal", "ideal")


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Outcome of one estimation run, with its sounding budget."""

    h_hat: np.ndarray = field(repr=False)
    nmse: float
    subspace_dist: float
    channel_uses_stage1: int
    channel_uses_stage2: int
    channel_uses_total: int


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


def two_stage_estimate(real, cfg, m, sigma2, rng, mode="pseudo-inverse"):
    """Sound m columns at noise variance sigma2, learn the subspace, recover the rest.

    Stage 1 observes the first m columns as H_S + N (see ``sounding``) and
    keeps its dominant rank-``paths`` part. Stage 2 observes each remaining
    column in one channel use through a sounder W and fits it. ``ideal``
    sounds with the orthonormal estimated basis, the other modes with its OMP
    design; ``pseudo-inverse`` fits by ``recover_block``, the others by W y,
    the least-squares fit for ``ideal``'s W. The estimate stacks both blocks
    in original column order; the uses are those counted.
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
    y, uses_stage1 = observe(h[:, :m], sigma2, rng, cfg.n_rf)
    est = estimate_stage1(y, cfg.paths)
    h_hat, uses_stage2 = est.denoised, 0
    if m < cfg.n_tx:
        sounder = est.basis
        if mode != "ideal":
            atoms = build_dictionary(cfg.n_rx, cfg.grid_size)
            sounder = design_sounder_omp(est.basis, atoms, cfg.n_rf).product
        y, uses_stage2 = observe(h[:, m:], sigma2, rng, cfg.n_rf, sounder)
        fit = recover_block(y, sounder) if mode == "pseudo-inverse" else sounder @ y
        h_hat = np.hstack([h_hat, fit])
    return _report(real, h_hat, est.basis, uses_stage1, uses_stage2)


def full_observation_baseline(real, sigma2, rng):
    """Genie floor: observe every entry once, then the stage-1 rank-``paths`` PCA.

    At one output per use it counts the n_rx * n_tx genie observations, not
    comparable with the sounding budget of the two-stage estimator; rows
    carry the ``full-observation`` tag to keep that explicit.
    """
    y, uses = observe(as_complex_matrix(real.h, "channel"), sigma2, rng, 1)
    est = estimate_stage1(y, real.paths)
    return _report(real, est.denoised, est.basis, uses, 0)


def _report(real, h_hat, basis, uses_stage1, uses_stage2):
    """Score an estimate and its column basis against the realization.

    Both bases come orthonormal (QR, ``eigh`` or SVD), as the distance requires. ``nmse`` rejects
    a non-finite estimate and is called by name: bench/test_bench.py patches ``pipeline.nmse``.
    """
    return EstimateReport(
        h_hat=h_hat,
        nmse=nmse(real.h, h_hat),
        subspace_dist=subspace_distance(real.basis, basis),
        channel_uses_stage1=uses_stage1,
        channel_uses_stage2=uses_stage2,
        channel_uses_total=uses_stage1 + uses_stage2,
    )
