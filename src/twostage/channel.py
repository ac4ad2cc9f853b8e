"""Sparse geometric channel model over half-wavelength uniform linear arrays.

A realization is a sum of a few planar-wave paths,

    H = sqrt(n_rx * n_tx / paths) * A_rx @ diag(gains) @ A_tx.T

with A_rx, A_tx the receive/transmit steering matrices (plain transpose on the
transmit side, matching the product form of the model). Path angles are drawn
uniformly on (0, 2*pi) and path gains are unit-variance complex Gaussians, so
the expected total channel energy is n_rx * n_tx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import as_integer, sample_complex_gaussian

__all__ = [
    "SystemConfig",
    "ChannelRealization",
    "ula_response",
    "steering_vector",
    "generate_channel",
]

# two AoDs whose sines are closer than this are redrawn; keeps the steering
# matrices at full column rank so the sampled-column identity stays well posed
MIN_SIN_GAP = 1e-6

# sparsity guard: paths <= MAX_PATH_RATIO * min(n_rx, n_tx)
MAX_PATH_RATIO = 0.5


@dataclass(frozen=True)
class SystemConfig:
    """The array scenario: array sizes, path count, RF chains and dictionary.

    ``grid_size`` is the steering-dictionary resolution used by the
    second-stage sounder design (defaults to twice the receive array size).
    The operating point (columns sounded in stage 1, noise variance) is an
    argument of each estimate, not part of the scenario.
    """

    n_rx: int = 32
    n_tx: int = 128
    paths: int = 4
    n_rf: int = 6
    grid_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.grid_size is None:
            object.__setattr__(self, "grid_size", 2 * self.n_rx)
        for name in ("n_rx", "n_tx", "paths", "n_rf", "grid_size", "seed"):
            as_integer(getattr(self, name), name)
        if self.n_rx < 1 or self.n_tx < 1:
            raise ValueError("array sizes must be positive")
        if self.n_rf < 2:
            raise ValueError("need at least two RF chains")
        limit = MAX_PATH_RATIO * min(self.n_rx, self.n_tx)
        if not 1 <= self.paths <= limit:
            raise ValueError(
                f"paths must be in [1, {limit:g}] for a {self.n_rx}x{self.n_tx} "
                f"array pair (sparsity ratio {MAX_PATH_RATIO})"
            )
        if self.n_rf < self.paths:
            raise ValueError("single-use recovery needs n_rf >= paths")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.grid_size < self.n_rf:
            raise ValueError(
                f"dictionary must offer at least n_rf={self.n_rf} atoms, "
                f"got grid_size={self.grid_size}"
            )


@dataclass(frozen=True)
class ChannelRealization:
    """One drawn channel together with the factors that produced it."""

    h: np.ndarray = field(repr=False)  # n_rx x n_tx
    aoa_angles: np.ndarray = field(repr=False)  # radians, one per path
    aod_angles: np.ndarray = field(repr=False)
    gains: np.ndarray = field(repr=False)  # complex path gains
    a_rx: np.ndarray = field(repr=False)  # n_rx x paths steering matrix
    a_tx: np.ndarray = field(repr=False)  # n_tx x paths

    @property
    def n_rx(self):
        return self.h.shape[0]

    @property
    def n_tx(self):
        return self.h.shape[1]

    @property
    def paths(self):
        return len(self.gains)

    @property
    def basis(self):
        """Orthonormal basis of the column space of h, from the receive steering.

        H = a_rx diag(gains) a_tx^T spans exactly col(a_rx): the departure
        angles are drawn distinct, so a_tx has full column rank.
        """
        return np.linalg.qr(self.a_rx)[0]


def ula_response(sines, n):
    """Responses of an n-element half-wavelength ULA, one column per sine.

    Entry (k, j) is exp(-1j * pi * k * sines[j]) / sqrt(n), so every column
    has unit norm and every entry has modulus 1 / sqrt(n).
    """
    k = np.arange(n)[:, None]
    return np.exp(-1j * np.pi * k * np.atleast_1d(sines)) / math.sqrt(n)


def steering_vector(theta, n):
    """Array response of an n-element half-wavelength ULA toward angle ``theta``."""
    if n < 1:
        raise ValueError("antenna count must be positive")
    if not np.isfinite(theta):
        raise ValueError("angle must be finite")
    return ula_response(math.sin(theta), n)[:, 0]


def _draw_distinct_angles(generator, count):
    # redraw the whole set while any two sines nearly coincide
    for _ in range(1000):
        angles = generator.uniform(0.0, 2.0 * np.pi, size=count)
        if count == 1:
            return angles
        s = np.sort(np.sin(angles))
        if np.min(np.diff(s)) >= MIN_SIN_GAP:
            return angles
    raise RuntimeError("could not draw distinct path angles")  # pragma: no cover


def generate_channel(cfg, rng):
    """Draw one random realization for the given scenario.

    Angles of arrival and departure are each redrawn as a set until all pairs
    of sines are separated by at least ``MIN_SIN_GAP``; gains are CN(0, 1).
    Draw order is AoA set, AoD set, then gains, so a stream state fixes the
    realization.
    """
    gen = rng.generator
    aoa = _draw_distinct_angles(gen, cfg.paths)
    aod = _draw_distinct_angles(gen, cfg.paths)
    gains = sample_complex_gaussian(rng, cfg.paths, 1, 1.0)[:, 0]
    a_rx = ula_response(np.sin(aoa), cfg.n_rx)
    a_tx = ula_response(np.sin(aod), cfg.n_tx)
    scale = math.sqrt(cfg.n_rx * cfg.n_tx / cfg.paths)
    h = scale * (a_rx * gains) @ a_tx.T
    return ChannelRealization(h=h, aoa_angles=aoa, aod_angles=aod, gains=gains,
                              a_rx=a_rx, a_tx=a_tx)

