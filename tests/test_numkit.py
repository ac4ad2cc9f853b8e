import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twostage.channel import SystemConfig, generate_channel, ula_response
from twostage.numkit import as_complex_matrix, sample_complex_gaussian, stream
from twostage.pipeline import two_stage_estimate
from twostage.sounding import observe
from twostage.stage2 import build_dictionary, design_sounder_omp


# ---------------------------------------------------------------- validation


def test_as_complex_matrix_counts_nan_and_inf_entries():
    bad = np.ones((3, 4), dtype=complex)
    for entry, value, name, message in (((0, 1), np.nan, (), "matrix contains 1 non-finite"),
                                        ((2, 3), complex(1.0, np.inf), ("block",),
                                         "block contains 2 non-finite entries")):
        bad[entry] = value
        with pytest.raises(np.linalg.LinAlgError, match=message):
            as_complex_matrix(bad, *name)


def test_as_complex_matrix_passes_finite_entries_whose_energy_overflows():
    # the energy 4 * (1e200)^2 overflows to inf; pyproject turns a
    # RuntimeWarning into a failure, so passing also shows none was raised
    big = np.full((2, 2), 1e200 + 1e200j)
    assert not math.isfinite(np.vdot(big, big).real)
    np.testing.assert_array_equal(as_complex_matrix(big), big)


def test_as_complex_matrix_rejects_wrong_ndim():
    with pytest.raises(ValueError, match="2-D"):
        as_complex_matrix(np.ones(3))


def test_as_complex_matrix_rejects_empty():
    with pytest.raises(ValueError, match="at least one row and one column"):
        as_complex_matrix(np.ones((0, 3)))


# ------------------------------------------------------------ random streams


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; a stream that builds its generator
    # only when called keeps that import out of every run's set-up time
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")])))
    probe = "import sys, twostage.cli; print(sorted(n for n in sys.modules if 'numpy.random' in n))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_gaussian_moments():
    z = sample_complex_gaussian(stream(0), 100, 1000, 1.0)
    assert 0.98 <= np.mean(np.abs(z) ** 2) <= 1.02
    assert abs(np.mean(z)) <= 0.01
    assert 0.47 <= np.var(z.real) <= 0.53
    assert 0.47 <= np.var(z.imag) <= 0.53


def test_rng_rejects_bad_seed_and_keys():
    # numpy's SeedSequence rejects a negative seed or key and a float seed or
    # key, so a float cannot be truncated onto another stream
    for seed, key in ((-1, ()), (1, (-2,))):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            stream(seed, *key)
    for seed, key in ((1.5, ()), (1.0, ()), (0, (2.7,)), (0, (2.0,))):
        with pytest.raises(TypeError):
            stream(seed, *key)
    with pytest.raises(ValueError, match="matrix dimensions must be positive"):
        sample_complex_gaussian(stream(1), 0, 3, 1.0)


_CFG = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
_BLOCK = sample_complex_gaussian(stream(5), 8, 4, 1.0)


@pytest.mark.parametrize("call", [
    lambda: build_dictionary(32, 64.5),
    lambda: build_dictionary(32.0, 64),
    lambda: ula_response([0.1, 0.2], 4.0),
    lambda: two_stage_estimate(generate_channel(_CFG, stream(0)), _CFG, 8.0, 0.1,
                               stream(1)),
    lambda: design_sounder_omp(_BLOCK[:, :1], build_dictionary(8, 16), 6.0),
    lambda: sample_complex_gaussian(stream(0), 2.5, 3, 1.0),
    lambda: sample_complex_gaussian(stream(0), 2, 3.0, 1.0),
    # a bool is an Integral, but not a count: not one chain
    lambda: observe(_BLOCK, 0.1, stream(0), True),
], ids=["dictionary-grid", "dictionary-array", "ula", "two-stage-m", "omp-n_rf",
        "gaussian-rows", "gaussian-cols", "observe-n_rf-true"])
def test_primitives_reject_non_integer_counts(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_cached_builders_check_counts_before_the_cache_lookup():
    # 64.0 hashes like 64, so a check inside the cached body would never run
    shared = build_dictionary(32, 64)
    with pytest.raises(ValueError, match="grid size must be an integer"):
        build_dictionary(32, 64.0)
    assert build_dictionary(np.int64(32), np.int32(64)) is shared
