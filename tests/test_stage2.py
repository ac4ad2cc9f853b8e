import math

import numpy as np
import pytest

from twostage.channel import SystemConfig, generate_channel, steering_vector
from twostage.numkit import RngState, sample_complex_gaussian
from twostage.stage2 import (
    SteeringDictionary,
    build_dictionary,
    design_sounder_omp,
    estimate_remaining,
    sound_and_recover_block,
)
from twostage.subspace import estimate_stage1


# ---------------------------------------------------------------- dictionary


def test_two_element_dictionary_is_written_out():
    d = build_dictionary(2, 2)
    np.testing.assert_allclose(d.grid, [-1.0, 0.0])
    np.testing.assert_allclose(d.atoms[:, 0], np.array([1.0, np.exp(1j * np.pi)])
                               / math.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(d.atoms[:, 1], np.array([1.0, 1.0])
                               / math.sqrt(2), atol=1e-15)


def test_atoms_have_unit_norm_and_constant_modulus():
    d = build_dictionary(16, 32)
    np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(d.atoms), 1 / 4.0, atol=1e-12)


def test_grid_covers_the_sine_domain_uniformly():
    d = build_dictionary(8, 16)
    np.testing.assert_allclose(d.grid, -1.0 + 2.0 * np.arange(16) / 16)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_mutual_coherence_matches_the_dirichlet_kernel_peak(n):
    # worst-case inner product of the critical grid in closed form
    d = build_dictionary(n, 2 * n)
    gram = np.abs(d.atoms.conj().T @ d.atoms)
    np.fill_diagonal(gram, 0.0)
    expected = 1.0 / (n * math.sin(math.pi / (2 * n)))
    np.testing.assert_allclose(gram.max(), expected, rtol=1e-12)


def test_dictionary_is_built_once_and_read_only():
    d = build_dictionary(16, 32)
    assert build_dictionary(16, 32) is d
    fresh = build_dictionary.__wrapped__(16, 32)
    for shared, new in ((d.atoms, fresh.atoms), (d.grid, fresh.grid)):
        assert not shared.flags.writeable
        assert shared is not new
        assert shared.shape == new.shape and shared.tobytes() == new.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


def test_dictionary_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_dictionary(0, 8)
    with pytest.raises(ValueError):
        build_dictionary(8, 0)


# -------------------------------------------------------------- greedy design


def test_a_single_atom_target_is_matched_exactly():
    d = build_dictionary(16, 32)
    s = design_sounder_omp(d.atoms[:, 9:10], d, 1)
    assert s.selected == (9,)
    assert s.residual <= 1e-10
    assert s.digital.shape == (1, 1)
    np.testing.assert_allclose(abs(s.digital[0, 0]), 1.0, atol=1e-10)


def test_an_orthonormalized_atom_pair_is_recovered():
    d = build_dictionary(16, 32)
    target = np.linalg.qr(d.atoms[:, [5, 20]])[0]
    s = design_sounder_omp(target, d, 2)
    assert sorted(s.selected) == [5, 20]
    assert s.residual <= 1e-8


def test_analog_part_is_phase_only():
    rng = RngState(20)
    target = estimate_stage1(sample_complex_gaussian(rng, 16, 3, 1.0), 3).basis
    s = design_sounder_omp(target, build_dictionary(16, 32), 4)
    np.testing.assert_allclose(np.abs(s.analog), 1 / 4.0, atol=1e-12)
    np.testing.assert_allclose(s.product, s.analog @ s.digital, atol=1e-12)


def test_residual_path_never_increases_and_atoms_are_not_reused():
    rng = RngState(21)
    for trial in range(10):
        target = estimate_stage1(
            sample_complex_gaussian(rng.split(trial), 16, 2, 1.0), 2).basis
        s = design_sounder_omp(target, build_dictionary(16, 32), 6)
        path = np.asarray(s.residual_path)
        assert len(path) == 6
        assert np.all(np.diff(path) <= 1e-12)
        assert len(set(s.selected)) == 6
        assert s.residual == path[-1]


def test_design_rejects_impossible_requests():
    d = build_dictionary(16, 32)
    target = d.atoms[:, :3]
    with pytest.raises(ValueError, match="need n_rf"):
        design_sounder_omp(target, d, 2)
    with pytest.raises(ValueError, match="fewer than"):
        design_sounder_omp(d.atoms[:, :1], build_dictionary(16, 4), 5)
    with pytest.raises(ValueError, match="row count"):
        design_sounder_omp(np.ones((8, 1)), d, 1)
    atoms = d.atoms.copy()
    atoms[3, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        design_sounder_omp(target, SteeringDictionary(atoms=atoms, grid=d.grid), 4)


def test_doubling_the_grid_never_hurts_a_single_steering_target():
    # the doubled grid contains the critical one, and with one chain the
    # greedy step picks the globally best atom, so refinement only helps
    rng = RngState(3)
    for trial in range(50):
        theta = rng.split(trial).generator.uniform(0, 2 * np.pi)
        t = steering_vector(theta, 16)[:, None]
        coarse = design_sounder_omp(t, build_dictionary(16, 32), 1).residual
        fine = design_sounder_omp(t, build_dictionary(16, 64), 1).residual
        assert fine <= coarse + 1e-12


def test_doubling_the_grid_usually_helps_a_two_path_subspace_target():
    # greedy selection is not monotone under refinement once n_rf > 1, so
    # this holds for most draws rather than all of them
    not_worse = 0
    for trial in range(50):
        cfg = SystemConfig(n_rx=16, n_tx=32, paths=2, n_rf=2, seed=11)
        real = generate_channel(cfg, RngState(11, (trial,)))
        target = real.basis
        coarse = design_sounder_omp(target, build_dictionary(16, 32), 2).residual
        fine = design_sounder_omp(target, build_dictionary(16, 64), 2).residual
        if fine <= coarse + 1e-12:
            not_worse += 1
    assert not_worse >= 45


# ------------------------------------------------------------- block recovery


def _column_setup(seed, n=8, cols=4):
    rng = RngState(seed)
    h = sample_complex_gaussian(rng.split(0), n, cols, 1.0)
    w = estimate_stage1(sample_complex_gaussian(rng.split(1), n, 3, 1.0), 2).basis
    return h, w


def _per_column_reference(h, w, sigma2, rng, mode):
    # the recovery one channel use at a time: one noise draw and one solve each
    cols = []
    for j in range(h.shape[1]):
        noise = sample_complex_gaussian(rng, h.shape[0], 1, sigma2)[:, 0]
        y = w.conj().T @ (h[:, j] + noise)
        if mode == "paper-literal":
            cols.append(w @ y)
        else:
            cols.append(w @ np.linalg.solve(w.conj().T @ w, y))
    return np.column_stack(cols)


def test_recovery_matches_an_independent_projector_computation():
    h, _ = _column_setup(30)
    w = sample_complex_gaussian(RngState(30).split(2), 8, 2, 1.0)  # not orthonormal
    est = sound_and_recover_block(h[:, 1:2], w, 0.3, RngState(31), "pseudo-inverse")
    noise = sample_complex_gaussian(RngState(31), 8, 1, 0.3)[:, 0]
    oracle = (w @ np.linalg.pinv(w)) @ (h[:, 1] + noise)
    assert est.shape == (8, 1)
    np.testing.assert_allclose(est[:, 0], oracle, atol=1e-9)


def test_in_span_columns_are_exact_without_noise():
    _, w = _column_setup(32)
    coeffs = sample_complex_gaussian(RngState(33), 2, 3, 1.0)
    h = w @ coeffs
    for mode in ("pseudo-inverse", "paper-literal"):
        est = sound_and_recover_block(h, w, 0.0, RngState(0), mode)
        np.testing.assert_allclose(est, h, atol=1e-10)


def test_columns_orthogonal_to_the_combiner_recover_as_zero():
    _, w = _column_setup(38)
    full = np.linalg.svd(np.column_stack([w, w]))[0]
    h = full[:, 2:]  # orthogonal complement of col(w)
    est = sound_and_recover_block(h, w, 0.0, RngState(0))
    np.testing.assert_allclose(est, np.zeros((8, 6)), atol=1e-10)


def test_modes_agree_only_for_orthonormal_combiners():
    h, w = _column_setup(34)
    a = sound_and_recover_block(h, w, 0.1, RngState(35), "pseudo-inverse")
    b = sound_and_recover_block(h, w, 0.1, RngState(35), "paper-literal")
    np.testing.assert_allclose(a, b, atol=1e-10)
    skewed = w @ np.diag([2.0, 1.0])
    a = sound_and_recover_block(h, skewed, 0.0, RngState(0), "pseudo-inverse")
    b = sound_and_recover_block(h, skewed, 0.0, RngState(0), "paper-literal")
    assert np.linalg.norm(a - b) > 1e-3


def test_rank_deficient_combiner_is_reported():
    h, w = _column_setup(36)
    dup = np.column_stack([w[:, 0], w[:, 0]])
    with pytest.raises(ValueError, match="rank deficient"):
        sound_and_recover_block(h, dup, 0.0, RngState(0))


def test_column_recovery_argument_errors():
    h, w = _column_setup(37)
    with pytest.raises(ValueError, match="unknown recovery mode"):
        sound_and_recover_block(h, w, 0.1, RngState(0), "genie")
    with pytest.raises(ValueError, match="non-negative"):
        sound_and_recover_block(h, w, -0.1, RngState(0))
    with pytest.raises(ValueError, match="rows"):
        sound_and_recover_block(h, w[:5], 0.1, RngState(0))
    with pytest.raises(ValueError, match="at least one"):
        sound_and_recover_block(h[:, :0], w, 0.1, RngState(0))


def test_designed_sounder_product_recovers_an_in_dictionary_column():
    d = build_dictionary(8, 16)
    s = design_sounder_omp(d.atoms[:, 3:4], d, 1)
    h = (d.atoms[:, 3] * 2.5)[:, None]
    est = sound_and_recover_block(h, s.product, 0.0, RngState(0))
    np.testing.assert_allclose(est, h, atol=1e-9)


# --------------------------------------------------------- remaining columns


def test_everything_sounded_in_stage_one_leaves_nothing_to_do():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(40))
    block, uses = estimate_remaining(real.h, real.basis, 16, 0.0, cfg, RngState(41))
    assert block.shape == (8, 0)
    assert uses == 0


def test_each_remaining_column_costs_one_use():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(42))
    block, uses = estimate_remaining(real.h, real.basis, 5, 0.1, cfg, RngState(43))
    assert block.shape == (8, 11)
    assert uses == 11


def test_ideal_mode_with_the_true_basis_is_exact_without_noise():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(44))
    block, _ = estimate_remaining(real.h, real.basis, 4, 0.0, cfg, RngState(45),
                                  mode="ideal")
    np.testing.assert_allclose(block, real.h[:, 4:], atol=1e-9)


def test_remaining_estimation_rejects_underprovisioned_chains():
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)
    real = generate_channel(cfg, RngState(46))
    basis = real.basis
    wide = np.column_stack([basis, basis, basis])  # 6 > n_rf
    with pytest.raises(ValueError, match="n_rf"):
        estimate_remaining(real.h, wide, 4, 0.0, cfg, RngState(0))
    with pytest.raises(ValueError, match="wider"):
        estimate_remaining(real.h[:, :3], basis, 4, 0.0, cfg, RngState(0))


@pytest.mark.parametrize("mode", ["pseudo-inverse", "paper-literal", "ideal"])
def test_remaining_columns_match_a_per_column_loop(mode):
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    real = generate_channel(cfg, RngState(47))
    basis = real.basis
    block, uses = estimate_remaining(real.h, basis, 8, 0.1, cfg, RngState(48), mode=mode)
    if mode == "ideal":
        w, column_mode = basis, "pseudo-inverse"
    else:
        w = design_sounder_omp(basis, build_dictionary(32, cfg.grid_size), 6).product
        column_mode = mode
    ref = _per_column_reference(real.h[:, 8:], w, 0.1, RngState(48), column_mode)
    assert uses == 120
    np.testing.assert_allclose(block, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
