import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.channel import (
    MIN_SIN_GAP,
    SystemConfig,
    generate_channel,
    ula_response,
)
from twostage.numkit import stream
from twostage.subspace import estimate_stage1, subspace_distance


def _steering(theta, n):
    # the response toward one angle: the ULA column at its sine
    return ula_response(math.sin(theta), n)[:, 0]


def _small_cfg(**kw):
    base = dict(n_rx=8, n_tx=16, paths=2, n_rf=2)
    base.update(kw)
    return SystemConfig(**base)


# ------------------------------------------------------------------- config


def test_config_defaults_mirror_the_simulation_scenario():
    cfg = SystemConfig()
    assert (cfg.n_rx, cfg.n_tx, cfg.paths, cfg.n_rf) == (32, 128, 4, 6)
    assert cfg.grid_size == 64  # twice the receive array by default


def test_config_rejects_dense_path_counts():
    for paths in (5, 0):  # 5 > 0.5 * 8, and a channel has at least one path
        with pytest.raises(ValueError, match="paths must be in"):
            _small_cfg(paths=paths, n_rf=5)
    _small_cfg(paths=4, n_rf=4)  # the guard's edge is admitted


def test_config_dof_examples():
    # L (n_rx + n_tx - L) parameters of a rank-L channel
    for kw, dof in ((dict(n_rx=32, n_tx=128, paths=4, n_rf=6), 624),
                    (dict(n_rx=4, n_tx=4, paths=1, n_rf=2), 7),
                    (dict(n_rx=2, n_tx=2, paths=1, n_rf=2), 3),
                    (dict(n_rx=np.int64(32), n_tx=128, paths=np.int32(4), n_rf=6), 624)):
        assert SystemConfig(**kw).dof == dof, kw


def test_config_rejects_misc_bad_values():
    with pytest.raises(ValueError, match="need at least two RF chains"):
        _small_cfg(n_rf=1)
    with pytest.raises(ValueError, match="n_rf >= paths"):
        _small_cfg(paths=3)
    with pytest.raises(ValueError, match="atoms"):
        _small_cfg(n_rf=4, grid_size=3)
    with pytest.raises(ValueError, match="array sizes must be positive"):
        _small_cfg(n_rx=0)
    # a count must be an integer: 8.5 antennas would give grid_size=17.0
    for name, bad in (("n_rx", 8.5), ("n_tx", 16.0), ("paths", 2.5), ("paths", 2.0),
                      ("n_rf", 2.0), ("grid_size", 16.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            _small_cfg(**{name: bad})
    assert _small_cfg(n_rx=np.int64(8), grid_size=np.int32(16)).grid_size == 16


# ----------------------------------------------------------------- steering


@pytest.mark.parametrize("theta, expected", [
    (0.0, np.full(4, 0.5, dtype=complex)),
    (math.pi / 2, np.array([1.0, -1.0]) / math.sqrt(2)),
    # sin(pi/6) = 1/2, so the second entry is exp(-j pi / 2) = -j
    (math.pi / 6, np.array([1.0, -1.0j]) / math.sqrt(2)),
], ids=["broadside", "endfire", "thirty-degrees"])
def test_steering_examples(theta, expected):
    np.testing.assert_allclose(_steering(theta, len(expected)), expected, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(-10.0, 10.0), n=st.integers(1, 64))
def test_steering_entries_have_constant_modulus(theta, n):
    v = _steering(theta, n)
    np.testing.assert_allclose(np.abs(v), np.full(n, 1.0 / math.sqrt(n)), atol=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0)


# ----------------------------------------------------------------- channels


def test_channel_matches_path_sum_oracle():
    # independent reconstruction: sum of scaled rank-one path contributions
    cfg = _small_cfg()
    real = generate_channel(cfg, stream(3))
    scale = math.sqrt(cfg.n_rx * cfg.n_tx / cfg.paths)
    acc = np.zeros((cfg.n_rx, cfg.n_tx), dtype=complex)
    for l in range(cfg.paths):
        a_r = _steering(real.aoa_angles[l], cfg.n_rx)
        a_t = _steering(real.aod_angles[l], cfg.n_tx)
        acc += scale * real.gains[l] * np.outer(a_r, a_t)
    assert np.linalg.norm(real.h - acc) <= 1e-10 * np.linalg.norm(real.h)


def test_steering_factors_are_the_steering_vectors_bit_for_bit():
    cfg = _small_cfg(n_rx=16, n_tx=32, paths=4, n_rf=4)
    for i in range(20):
        real = generate_channel(cfg, stream(5, i))
        for l in range(cfg.paths):
            np.testing.assert_array_equal(
                real.a_rx[:, l], _steering(real.aoa_angles[l], cfg.n_rx))
            np.testing.assert_array_equal(
                real.a_tx[:, l], _steering(real.aod_angles[l], cfg.n_tx))


def test_channel_has_numerical_rank_at_most_paths():
    for cfg, streams in ((_small_cfg(paths=3, n_rf=3), [stream(0, i) for i in range(20)]),
                         (_small_cfg(paths=1), [stream(8)])):
        for rng in streams:
            s = np.linalg.svd(generate_channel(cfg, rng).h, compute_uv=False)
            assert s[cfg.paths] <= 1e-8 * s[0]


def test_angle_sines_respect_the_separation_floor():
    cfg = _small_cfg(paths=4, n_rf=4, n_rx=16)
    for i in range(100):
        real = generate_channel(cfg, stream(1, i))
        for angles in (real.aoa_angles, real.aod_angles):
            s = np.sort(np.sin(angles))
            assert np.min(np.diff(s)) >= MIN_SIN_GAP


def test_channel_energy_scaling_law():
    # E||H||_F^2 = n_rx * n_tx under unit-variance path gains
    cfg = _small_cfg()
    total = 0.0
    trials = 10_000
    for i in range(trials):
        total += np.linalg.norm(generate_channel(cfg, stream(5, i)).h) ** 2
    assert total / trials == pytest.approx(cfg.n_rx * cfg.n_tx, rel=0.03)


@pytest.mark.parametrize("n_rx, n_tx, paths, n_rf", [
    (32, 128, 4, 6),
    (32, 128, 6, 6),  # paths == n_rf
    (64, 16, 4, 5),
])
def test_steering_basis_spans_the_channel_column_space(n_rx, n_tx, paths, n_rf):
    cfg = SystemConfig(n_rx=n_rx, n_tx=n_tx, paths=paths, n_rf=n_rf)
    for i in range(50):
        real = generate_channel(cfg, stream(12, i))
        u = real.basis
        assert real.basis is u and not u.flags.writeable  # computed once, shared
        assert u.shape == (n_rx, paths)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(paths), atol=1e-12)
        assert subspace_distance(u, estimate_stage1(real.h, paths).basis) <= 1e-12


def test_sampled_columns_expose_the_receive_subspace():
    # without noise, m >= L sampled columns alone span the channel's column space
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    for i in range(150):
        m = (4, 5, 8)[i % 3]
        real = generate_channel(cfg, stream(300, i))
        sampled = estimate_stage1(real.h[:, :m], cfg.paths).basis
        assert subspace_distance(real.basis, sampled) <= 1e-10, (i, m)

