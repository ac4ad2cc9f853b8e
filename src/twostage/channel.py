"""Sparse geometric channel model over half-wavelength uniform linear arrays.

A realization is a sum of a few planar-wave paths,

    H = sqrt(n_rx * n_tx / paths) * A_rx @ diag(gains) @ A_tx.T

with A_rx, A_tx the receive/transmit steering matrices (plain transpose on the
transmit side, matching the product form of the model). Path angles are drawn
uniformly on (0, 2*pi) and path gains are unit-variance complex Gaussians, so
the expected total channel energy is n_rx * n_tx.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import sample_complex_gaussian

__all__ = [
    "SystemConfig",
    "ChannelRealization",
    "ula_response",
    "steering_vector",
    "steering_matrix",
    "generate_channel",
    "save_realization",
    "load_realization",
]

# two AoDs whose sines are closer than this are redrawn; keeps the steering
# matrices at full column rank so the sampled-column identity stays well posed
MIN_SIN_GAP = 1e-6


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters for one estimation run.

    ``m`` is the number of channel columns sounded exhaustively in the first
    stage; ``grid_size`` is the steering-dictionary resolution used by the
    second-stage sounder design (defaults to twice the receive array size).
    """

    n_rx: int = 32
    n_tx: int = 128
    paths: int = 4
    n_rf: int = 6
    noise_var: float = 0.1
    m: int = 8
    grid_size: int | None = None
    seed: int = 0
    max_path_ratio: float = 0.5  # sparsity guard: paths <= ratio * min(n_rx, n_tx)

    def __post_init__(self):
        if self.n_rx < 1 or self.n_tx < 1:
            raise ValueError("array sizes must be positive")
        if self.n_rf < 2:
            raise ValueError("need at least two RF chains")
        if not 0 < self.max_path_ratio <= 1:
            raise ValueError("max_path_ratio must be in (0, 1]")
        limit = self.max_path_ratio * min(self.n_rx, self.n_tx)
        if not 1 <= self.paths <= limit:
            raise ValueError(
                f"paths must be in [1, {limit:g}] for a {self.n_rx}x{self.n_tx} "
                f"array pair (sparsity ratio {self.max_path_ratio})"
            )
        if self.n_rf < self.paths:
            raise ValueError("single-use recovery needs n_rf >= paths")
        if not self.paths <= self.m <= self.n_tx:
            raise ValueError(
                f"sampled column count m={self.m} must satisfy "
                f"{self.paths} <= m <= {self.n_tx}"
            )
        if not math.isfinite(self.noise_var):
            raise ValueError(f"noise variance must be finite, got {self.noise_var}")
        if self.noise_var < 0:
            raise ValueError("noise variance must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.grid_size is None:
            object.__setattr__(self, "grid_size", 2 * self.n_rx)
        if self.grid_size < self.n_rf:
            raise ValueError(
                f"dictionary must offer at least n_rf={self.n_rf} atoms, "
                f"got grid_size={self.grid_size}"
            )

    @property
    def snr(self):
        """Linear SNR under unit transmit power, 1 / noise_var."""
        return math.inf if self.noise_var == 0 else 1.0 / self.noise_var


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


def steering_matrix(angles, n):
    """Column-stacked steering vectors, one per angle."""
    return np.column_stack([steering_vector(t, n) for t in np.atleast_1d(angles)])


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
    a_rx = steering_matrix(aoa, cfg.n_rx)
    a_tx = steering_matrix(aod, cfg.n_tx)
    scale = math.sqrt(cfg.n_rx * cfg.n_tx / cfg.paths)
    h = scale * (a_rx * gains) @ a_tx.T
    return ChannelRealization(h=h, aoa_angles=aoa, aod_angles=aod, gains=gains,
                              a_rx=a_rx, a_tx=a_tx)


def _pairs(z):
    z = np.asarray(z, dtype=np.complex128)
    return [[float(v.real), float(v.imag)] for v in z.ravel()]


def _unpairs(pairs, shape):
    flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    return flat.reshape(shape)


def save_realization(real, path):
    """Write a realization to a JSON text fixture.

    Fields: n_rx, n_tx, paths, aoa_angles, aod_angles (radians), gains and h
    as [real, imag] pairs, h in row-major order.
    """
    doc = {
        "n_rx": int(real.n_rx),
        "n_tx": int(real.n_tx),
        "paths": int(real.paths),
        "aoa_angles": [float(t) for t in real.aoa_angles],
        "aod_angles": [float(t) for t in real.aod_angles],
        "gains": _pairs(real.gains),
        "h": _pairs(real.h),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_realization(path):
    """Read a fixture written by :func:`save_realization` and re-verify it.

    The steering factors are rebuilt from the stored angles; if the stored
    matrix does not match the factor product the fixture is rejected.
    """
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    n_rx, n_tx, paths = doc["n_rx"], doc["n_tx"], doc["paths"]
    aoa = np.asarray(doc["aoa_angles"], dtype=float)
    aod = np.asarray(doc["aod_angles"], dtype=float)
    gains = _unpairs(doc["gains"], (paths,))
    h = _unpairs(doc["h"], (n_rx, n_tx))
    a_rx = steering_matrix(aoa, n_rx)
    a_tx = steering_matrix(aod, n_tx)
    rebuilt = math.sqrt(n_rx * n_tx / paths) * (a_rx * gains) @ a_tx.T
    err = np.linalg.norm(h - rebuilt)
    if err > 1e-10 * max(1.0, np.linalg.norm(h)):
        raise ValueError(f"fixture is inconsistent with its factors (error {err:.3e})")
    return ChannelRealization(h=h, aoa_angles=aoa, aod_angles=aod, gains=gains,
                              a_rx=a_rx, a_tx=a_tx)
