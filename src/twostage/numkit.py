"""Seeded random streams and the input check shared by every estimator stage.

All matrices are plain numpy complex128 arrays. Public functions that take
matrices from outside the package check them once with ``as_complex_matrix``
and hand them to an unchecked body, which the pipeline calls directly on the
arrays it builds. The only stateful object is RngState, a seeded
counter-based stream (Philox) with keyed sub-streams, so Monte Carlo trials
stay reproducible and independent of execution order.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

__all__ = [
    "RngState",
    "as_complex_matrix",
    "as_integer",
    "sample_complex_gaussian",
]


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
    (a float, even 4.0, included) is a ValueError."""
    if type(value) is not int and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class RngState:
    """Seeded random stream with keyed, independent sub-streams.

    Backed by numpy's counter-based Philox generator through a SeedSequence,
    so a given (seed, key) pair always yields the same sample sequence,
    bit for bit. ``split`` derives a child stream without consuming from
    the parent, which keeps parallel Monte Carlo trials schedule-independent.
    """

    def __init__(self, seed, key=()):
        seed = as_integer(seed, "seed")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        key = tuple(as_integer(k, "stream key") for k in key)
        if any(k < 0 for k in key):
            raise ValueError("stream keys must be non-negative integers")
        self.seed = seed
        self.key = key
        self._sequence = np.random.SeedSequence(seed, spawn_key=key)

    @functools.cached_property  # a stream that only splits and names costs a hash
    def generator(self):
        return np.random.Generator(np.random.Philox(self._sequence))

    def split(self, *key):
        """Child stream keyed by extra integers, independent of the parent position."""
        return RngState(self.seed, self.key + key)

    def state_id(self):
        """Stable 32-bit identifier of this stream, used for report bookkeeping."""
        return int(self._sequence.generate_state(1, dtype=np.uint32)[0])


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
    re = rng.generator.standard_normal((rows, cols))
    im = rng.generator.standard_normal((rows, cols))
    return scale * (re + 1j * im)
