"""Monte Carlo sweep engine over SNR and sampled-column grids.

Every trial owns a random sub-stream keyed by (snr index, m index, trial), so
results do not depend on scheduling and the emitted CSV is byte-identical for
a given spec, serial or parallel. Failed trials are recorded as tagged rows
rather than dropped.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .channel import SystemConfig, generate_channel
from .numkit import RngState, as_integer, sample_complex_gaussian
from .pipeline import RECOVERY_MODES, full_observation_baseline, two_stage_estimate
from .sounding import dft_combiner, sound_and_invert_block
from .stage2 import build_dictionary, design_sounder_omp
from .subspace import estimate_stage1, interlacing_check, subspace_distance

__all__ = [
    "CSV_HEADER",
    "SweepSpec",
    "SweepRow",
    "SummaryRow",
    "noise_var_from_snr_db",
    "run_sweep",
    "summarize",
    "rows_to_csv",
    "write_rows",
    "run_checks",
    "check_combiner_independence",
    "check_sampled_column_subspace",
    "check_appended_column_interlacing",
    "check_sounder_constraints",
    "check_channel_uses",
    "check_noiseless_exactness",
]

# the channel's sub-stream key in a trial; _trial_estimators keys the estimates
_KEY_CHANNEL = 0

# what the estimator and the baseline raise on a bad draw or a bad spec;
# np.linalg.LinAlgError derives from ValueError, so this catches it too
_NUMERICAL_ERRORS = ValueError


def noise_var_from_snr_db(snr_db):
    """Noise variance for the given SNR in dB under unit transmit power.

    Raises ValueError for an SNR with no finite variance: NaN, -inf, or one
    low enough (below about -3080 dB) that the power overflows.
    """
    try:
        sigma2 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise ValueError(f"SNR {snr_db} dB gives no finite noise variance")
    return sigma2


@dataclass(frozen=True)
class SweepSpec:
    """One Monte Carlo experiment: an SNR x m grid, repeated trials per point."""

    scenario: SystemConfig
    snr_db_list: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    m_list: tuple = (4, 8, 16, 32)
    trials: int = 200
    modes: tuple = ("pseudo-inverse",)
    baseline: bool = True
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))
        object.__setattr__(self, "m_list",
                           tuple(as_integer(m, "m_list entry") for m in self.m_list))
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.snr_db_list:
            raise ValueError("need at least one SNR point")
        for snr_db in self.snr_db_list:
            noise_var_from_snr_db(snr_db)
        if not self.m_list:
            raise ValueError("need at least one sampled-column count")
        paths, n_tx = self.scenario.paths, self.scenario.n_tx
        for m in self.m_list:
            if not paths <= m <= n_tx:
                raise ValueError(f"m={m} must satisfy {paths} <= m <= {n_tx}")
        if as_integer(self.trials, "trials") < 1:
            raise ValueError("need at least one trial")
        if not self.modes:
            raise ValueError("need at least one recovery mode")
        for mode in self.modes:
            if mode not in RECOVERY_MODES:
                raise ValueError(f"unknown recovery mode {mode!r}")
        if as_integer(self.workers, "workers") < 1:
            raise ValueError("worker count must be positive")
        # a repeated grid value would put two cells under one CSV key
        for name in ("snr_db_list", "m_list", "modes"):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:  # == also matches 0.0 against -0.0
                    raise ValueError(f"{name} repeats {value!r}")


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, trial, mode) outcome."""

    snr_db: float
    m: int
    trial: int
    mode: str
    nmse: float
    subspace_dist: float
    channel_uses: int
    seed: int


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))
# a row's values in CSV column order
_ROW_VALUES = attrgetter(*(f.name for f in fields(SweepRow)))
# the canonical row order, shared by the sweep and the CSV
_ROW_ORDER = attrgetter("snr_db", "m", "trial", "mode")


@dataclass(frozen=True)
class SummaryRow:
    """Per (snr, m, mode) mean and standard error of both metrics."""

    snr_db: float
    m: int
    mode: str
    count: int
    nmse_mean: float
    nmse_stderr: float
    subspace_dist_mean: float
    subspace_dist_stderr: float


def _trial_estimators(modes, baseline):
    """A trial's estimates in draw order: (row label, stream key, estimator).

    Mode k draws on stream key 1 + k and the full-observation floor, when
    enabled, on key 999, each a child of the trial's root stream. Every
    estimator takes (real, cfg, m, sigma2, rng) and returns an EstimateReport.
    """
    table = [(mode, 1 + k, lambda real, cfg, m, sigma2, rng, mode=mode:
              two_stage_estimate(real, cfg, m, sigma2, rng, mode=mode))
             for k, mode in enumerate(modes)]
    if baseline:
        table.append(("full-observation", 999, lambda real, cfg, m, sigma2, rng:
                      full_observation_baseline(real, sigma2, rng)))
    return table


def _trial_rows(spec, si, mi, trial):
    """All rows for one trial at one grid point; numerical failures become tagged rows."""
    snr_db = spec.snr_db_list[si]
    m = spec.m_list[mi]
    sigma2 = noise_var_from_snr_db(snr_db)
    cfg = spec.scenario
    root = RngState(cfg.seed, (si, mi, trial))
    trial_seed = root.state_id()
    rows = []
    real = generate_channel(cfg, root.split(_KEY_CHANNEL))
    for label, key, estimate in _trial_estimators(spec.modes, spec.baseline):
        try:
            rep = estimate(real, cfg, m, sigma2, root.split(key))
            outcome = (label, rep.nmse, rep.subspace_dist, rep.channel_uses_total)
        except _NUMERICAL_ERRORS as exc:
            outcome = (f"{label}#error:{type(exc).__name__}", math.nan, math.nan, 0)
        rows.append(SweepRow(snr_db, m, trial, *outcome, trial_seed))
    return rows


def _trial_rows_star(args):
    """All rows for one ``(spec, keys)`` slice of ``(si, mi, trial)`` keys."""
    spec, keys = args
    return [row for si, mi, trial in keys for row in _trial_rows(spec, si, mi, trial)]


def run_sweep(spec):
    """Run every (snr, m, trial) task and return rows sorted canonically.

    The keys are dealt into ``min(workers, len(keys))`` strided slices, one
    per worker process; a single slice runs in this process.
    """
    keys = [(si, mi, trial)
            for si in range(len(spec.snr_db_list))
            for mi in range(len(spec.m_list))
            for trial in range(spec.trials)]
    workers = min(spec.workers, len(keys))
    slices = [(spec, keys[k::workers]) for k in range(workers)]
    if workers == 1:
        rows = _trial_rows_star(slices[0])
    else:
        import numpy.random  # noqa: F401  lazy in numpy; forked workers inherit it
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            rows = [row for group in pool.map(_trial_rows_star, slices) for row in group]
    rows.sort(key=_ROW_ORDER)
    return rows


def summarize(rows):
    """Group rows by (snr, m, mode); mean and standard error of both metrics."""
    if not rows:
        raise ValueError("no rows to summarize")
    groups = {}
    for row in rows:
        groups.setdefault((row.snr_db, row.m, row.mode), []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        n = len(members)
        # one array row per metric: each reduction runs over contiguous memory
        metrics = np.array([[r.nmse for r in members],
                            [r.subspace_dist for r in members]])
        means = metrics.mean(axis=1).tolist()
        errors = ([0.0, 0.0] if n == 1
                  else (metrics.std(axis=1, ddof=1) / math.sqrt(n)).tolist())
        out.append(SummaryRow(*key, n, means[0], errors[0], means[1], errors[1]))
    return out


def _fmt(value):
    # 17 significant digits round-trips float64 exactly
    return format(value, ".17g") if isinstance(value, float) else str(value)


def rows_to_csv(rows):
    lines = [CSV_HEADER]
    for r in sorted(rows, key=_ROW_ORDER):
        lines.append(",".join(map(_fmt, _ROW_VALUES(r))))
    return "\n".join(lines) + "\n"


def write_rows(rows, path):
    Path(path).write_text(rows_to_csv(rows), encoding="ascii")


def check_combiner_independence(rng):
    """Any full-rank combiner bank inverts to the same sounded block plus noise."""
    cfg = SystemConfig(n_rx=16, n_tx=24, paths=3, n_rf=4)
    worst = 0.0
    for i in range(50):
        h_s = generate_channel(cfg, rng.split(i, 0)).h[:, :6]
        noise = sample_complex_gaussian(rng.split(i, 1), 16, 6, 0.05)
        gaussian = sample_complex_gaussian(rng.split(i, 2), 16, 16, 1.0)
        for bank in (dft_combiner(16), gaussian):
            y_tilde = sound_and_invert_block(h_s, bank, noise)
            err = np.max(np.abs(y_tilde - h_s - noise))
            worst = max(worst, float(err))
    return worst <= 1e-9, (f"max entrywise deviation {worst:.3e} over 50 instances, "
                           f"2 banks")


def check_sampled_column_subspace(rng):
    """Without noise, m >= paths sampled columns span the channel's column space."""
    cfg = SystemConfig(n_rx=16, n_tx=48, paths=3, n_rf=4)
    worst = 0.0
    for i in range(100):
        m = (3, 4, 6)[i % 3]
        real = generate_channel(cfg, rng.split(i))
        d = subspace_distance(real.basis, estimate_stage1(real.h[:, :m], 3).basis)
        worst = max(worst, d)
    return worst <= 1e-10, (f"max distance {worst:.3e} over 100 noiseless draws, "
                            f"m in (3, 4, 6)")


def check_appended_column_interlacing(rng):
    """An appended in-span column moves the rank-th singular value inside its cap."""
    cfg = SystemConfig(n_rx=16, n_tx=48, paths=3, n_rf=4)
    lo = margin = math.inf
    for i in range(100):
        h_s = generate_channel(cfg, rng.split(i, 0)).h[:, :6]
        coeffs = sample_complex_gaussian(rng.split(i, 1), 6, 1, 1.0)[:, 0]
        delta, upper = interlacing_check(h_s, h_s @ coeffs, rank=3)
        lo = min(lo, delta)
        margin = min(margin, upper - delta)
    passed = lo >= -1e-9 and margin >= -1e-9
    return passed, f"100 draws, min delta {lo:.3e}, tightest cap margin {margin:.3e}"


def check_sounder_constraints(rng):
    """Sounders are constant-modulus, residuals never grow, in-dictionary targets fit."""
    worst_mod = 0.0
    monotone = True
    atoms = build_dictionary(16, 32)
    cfg = SystemConfig(n_rx=16, n_tx=48, paths=3, n_rf=5)
    for i in range(20):
        real = generate_channel(cfg, rng.split(i))
        sounder = design_sounder_omp(real.basis, atoms, 5)
        dev = np.max(np.abs(np.abs(sounder.analog) - 1.0 / math.sqrt(16)))
        worst_mod = max(worst_mod, float(dev))
        path = sounder.residual_path
        monotone = monotone and all(b <= a + 1e-12 for a, b in zip(path, path[1:]))
    target = np.linalg.qr(atoms[:, [5, 20]])[0]
    exact = design_sounder_omp(target, atoms, 2).residual
    passed = worst_mod <= 1e-12 and monotone and exact <= 1e-8
    return passed, (f"max modulus deviation {worst_mod:.3e} over 20 designs, residuals "
                    f"monotone: {monotone}, exact target residual {exact:.3e}")


def check_channel_uses(rng):
    """The reference-scale budget is exactly 152 / 168 uses, below the 624 parameters."""
    totals = {}
    for n_rf in (8, 6):
        cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=n_rf)
        rep = two_stage_estimate(generate_channel(cfg, rng.split(0)), cfg, 8, 0.01,
                                 rng.split(1))
        totals[n_rf] = (rep.channel_uses_total, rep.dof)
    # exact budgets below the exact parameter count
    passed = totals == {8: (152, 624), 6: (168, 624)}
    return passed, (f"{totals[8][0]} uses divisible, {totals[6][0]} with a partial use, "
                    f"parameter counts {totals[8][1]} and {totals[6][1]}")


def check_noiseless_exactness(rng):
    """Without noise, ``ideal`` mode recovers the reference-scale channel exactly."""
    cfg = SystemConfig(n_rx=32, n_tx=128, paths=4, n_rf=6)
    worst = 0.0
    for i in range(20):
        real = generate_channel(cfg, rng.split(i, 0))
        rep = two_stage_estimate(real, cfg, 8, 0.0, rng.split(i, 1), mode="ideal")
        worst = max(worst, rep.nmse)
    return worst <= 1e-18, f"max NMSE {worst:.3e} over 20 channels"


_CHECKS = (
    ("combiner-independence", check_combiner_independence),
    ("sampled-column-subspace", check_sampled_column_subspace),
    ("appended-column-interlacing", check_appended_column_interlacing),
    ("sounder-constraints", check_sounder_constraints),
    ("channel-use-accounting", check_channel_uses),
    ("noiseless-exactness", check_noiseless_exactness),
)


def run_checks(seed=0):
    """Deterministic oracle suite behind the ``check`` subcommand.

    Returns (name, passed, detail) triples. Each ``check_*`` function takes an
    RngState and returns (passed, detail); the acceptance tests call the same
    functions from their own root seeds.
    """
    rng = RngState(seed)
    return [(name, *check(rng.split(i))) for i, (name, check) in enumerate(_CHECKS)]
