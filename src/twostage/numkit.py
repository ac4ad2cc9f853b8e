"""Seeded random streams and the input check shared by every estimator stage.

All matrices are plain numpy complex128 arrays. ``as_complex_matrix`` checks
a matrix once, where it enters an estimator (the channel, and both arrays of
``nmse``); the stage functions that the estimators call take finite 2-D
complex arrays and do not check them. Every function that draws takes a plain
``numpy.random.Generator``; ``stream`` builds the seeded, keyed one that the
sweep gives each estimator, so Monte Carlo trials stay reproducible and
independent of execution order.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def as_complex_matrix(a, name="matrix"):
    """Coerce to a 2-D complex128 array; empty input is a ValueError, non-finite a LinAlgError."""
    out = np.asarray(a, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    # one pass over the data; a finite matrix whose energy overflows still passes
    if not math.isfinite(np.vdot(out, out).real) and not np.isfinite(out).all():
        bad = int(np.count_nonzero(~np.isfinite(out)))
        raise np.linalg.LinAlgError(f"{name} contains {bad} non-finite entries")
    return out


def as_integer(value, name):
    """``value`` as an int; a Python or numpy integer passes, anything else
    (a float, even 4.0, or a bool, which is an Integral) is a ValueError."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def stream(seed, *key):
    """The random stream of ``seed`` keyed by ``key``: numpy's counter-based Philox
    generator on ``SeedSequence(seed, spawn_key=key)``, so a given (seed, key)
    always yields the same draws, bit for bit, whatever other streams drew."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def sample_complex_gaussian(rng, rows, cols, variance):
    """i.i.d. circularly-symmetric complex Gaussian entries.

    Each entry has total variance ``variance``, split evenly between real and
    imaginary parts. The real block is drawn before the imaginary block, so a
    given stream state always produces the same matrix.
    """
    rows, cols = as_integer(rows, "rows"), as_integer(cols, "cols")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if not math.isfinite(variance) or variance < 0:
        raise ValueError(
            f"noise variance must be finite and non-negative, got {variance}")
    scale = math.sqrt(variance / 2.0)
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return scale * (re + 1j * im)
