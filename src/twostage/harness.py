"""Monte Carlo sweep engine over SNR and sampled-column grids.

Every trial owns a random sub-stream keyed by (snr index, m index, trial), and each
estimator a child of it keyed by its name, so no row depends on scheduling or on the
other modes listed, and a spec's CSV is byte-identical, serial or parallel. A trial's
np.linalg.LinAlgError becomes a tagged row, not a drop; any other exception stops the sweep.
"""

import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import SystemConfig, generate_channel
from .numkit import as_integer, stream
from .pipeline import RECOVERY_MODES, full_observation_baseline, two_stage_estimate

def noise_var_from_snr_db(snr_db):
    """Noise variance for the given SNR in dB under unit transmit power.

    Raises ValueError unless the SNR is a Python or numpy real (float() also reads a bool,
    str or bytes) with a finite variance: not NaN, -inf or below about -3080 dB (overflow).
    """
    if isinstance(snr_db, bool) or not isinstance(snr_db, (int, float, np.integer, np.floating)):
        raise ValueError(f"SNR must be a real number, got {snr_db!r}")
    try:  # as a numpy scalar, the power would overflow with a RuntimeWarning instead
        sigma2 = 10.0 ** (float(-snr_db) / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise ValueError(f"SNR {snr_db} dB gives no finite noise variance")
    return sigma2


@dataclass(frozen=True)
class SweepSpec:
    """One Monte Carlo experiment: an SNR x m grid, repeated trials per point from ``seed``."""

    scenario: SystemConfig
    snr_db_list: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    m_list: tuple = (4, 8, 16, 32)
    trials: int = 200
    modes: tuple = ("pseudo-inverse",)
    baseline: bool = True
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.baseline, (bool, np.bool_)):  # "no" is truthy
            raise ValueError(f"baseline must be a bool, got {self.baseline!r}")
        object.__setattr__(self, "baseline", bool(self.baseline))
        for name in ("snr_db_list", "m_list", "modes"):  # a string is one value per character
            if isinstance(value := getattr(self, name), str):
                raise ValueError(f"{name} must be a sequence, not the string {value!r}")
        for snr_db in (snrs := tuple(self.snr_db_list)):  # each raw entry, before float()
            noise_var_from_snr_db(snr_db)
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in snrs))
        object.__setattr__(self, "m_list",
                           tuple(as_integer(m, "m_list entry") for m in self.m_list))
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.snr_db_list:
            raise ValueError("need at least one SNR point")
        if not self.m_list:
            raise ValueError("need at least one sampled-column count")
        paths, n_tx = self.scenario.paths, self.scenario.n_tx
        for m in self.m_list:
            if not paths <= m <= n_tx:
                raise ValueError(f"m={m} must satisfy {paths} <= m <= {n_tx}")
        for name, least, error in (("trials", 1, "need at least one trial"),
                                   ("workers", 1, "worker count must be positive"),
                                   ("seed", 0, "seed must be non-negative")):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
            if getattr(self, name) < least:
                raise ValueError(error)
        if not self.modes:
            raise ValueError("need at least one recovery mode")
        for mode in self.modes:
            if mode not in RECOVERY_MODES:
                raise ValueError(f"unknown recovery mode {mode!r}")
        # a repeated grid value would put two cells under one CSV key
        for name in ("snr_db_list", "m_list", "modes"):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:  # == also matches 0.0 against -0.0
                    raise ValueError(f"{name} repeats {value!r}")


class SweepRow(NamedTuple):
    """One (grid point, trial, mode) outcome, its fields in CSV column order."""

    snr_db: float
    m: int
    trial: int
    mode: str
    nmse: float
    subspace_dist: float
    channel_uses: int
    seed: int


CSV_HEADER = ",".join(SweepRow._fields)
# the canonical row order, shared by the sweep and the CSV
_ROW_ORDER = attrgetter("snr_db", "m", "trial", "mode")


class SummaryRow(NamedTuple):
    """Per (snr, m, mode) mean and standard error of both metrics."""

    snr_db: float
    m: int
    mode: str
    count: int
    nmse_mean: float
    nmse_stderr: float
    subspace_dist_mean: float
    subspace_dist_stderr: float


def _trial_estimates(spec, si, mi, trial):
    """Trial ``trial`` of ``spec`` at (si, mi): its seed, its row labels, and the function
    that returns one label's EstimateReport. The trial is keyed (si, mi, trial) under the
    spec's seed, its seed is that ``SeedSequence``'s first 32-bit word, and each draw
    appends one key: the channel 0, a mode 1 plus its index in ``RECOVERY_MODES`` and
    the floor 999, whatever else ``spec`` lists."""
    cfg, m, seed = spec.scenario, spec.m_list[mi], spec.seed
    sigma2 = noise_var_from_snr_db(spec.snr_db_list[si])
    key = (si, mi, trial)
    real = generate_channel(cfg, stream(seed, *key, 0))
    def estimate(label):
        if label == "full-observation":
            return full_observation_baseline(real, sigma2, stream(seed, *key, 999))
        rng = stream(seed, *key, 1 + RECOVERY_MODES.index(label))
        return two_stage_estimate(real, cfg, m, sigma2, rng, mode=label)
    labels = spec.modes + (("full-observation",) if spec.baseline else ())
    seq = np.random.SeedSequence(seed, spawn_key=key)
    return int(seq.generate_state(1, dtype=np.uint32)[0]), labels, estimate


def _trial_rows(spec, si, mi, trial):
    """All rows for one trial at one grid point; a LinAlgError becomes a tagged row."""
    snr_db, m = spec.snr_db_list[si], spec.m_list[mi]
    trial_seed, labels, estimate = _trial_estimates(spec, si, mi, trial)
    rows = []
    for label in labels:
        try:
            rep = estimate(label)
            outcome = (label, rep.nmse, rep.subspace_dist, rep.channel_uses_total)
        except np.linalg.LinAlgError as exc:
            outcome = (f"{label}#error:{type(exc).__name__}", math.nan, math.nan, 0)
        rows.append(SweepRow(snr_db, m, trial, *outcome, trial_seed))
    return rows


def _trial_rows_star(args):
    """All rows for one ``(spec, keys)`` slice of ``(si, mi, trial)`` keys. bench/sweeptrace.py
    patches this name to collect the forked children's spans: keep it and its one argument."""
    spec, keys = args
    return [row for si, mi, trial in keys for row in _trial_rows(spec, si, mi, trial)]


def run_sweep(spec):
    """Run every (snr, m, trial) task and return rows sorted canonically.

    The keys are dealt into ``min(workers, len(keys))`` strided slices, one
    per forked child; a lone slice runs in this process. Each child writes every
    byte of its pickled rows, or exception and traceback, to its pipe and exits.
    """
    keys = [(si, mi, trial)
            for si in range(len(spec.snr_db_list))
            for mi in range(len(spec.m_list))
            for trial in range(spec.trials)]
    workers = min(spec.workers, len(keys))
    slices = [(spec, keys[k::workers]) for k in range(workers)]
    if workers == 1:
        return sorted(_trial_rows_star(slices[0]), key=_ROW_ORDER)
    import numpy.random  # noqa: F401  lazy in numpy; forked children inherit it
    children, pipes, payloads, statuses = [], [], None, []  # pids; read ends, one per slice
    try:
        for args in slices:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            # closed before the next fork, or if this one fails: EOF comes when the child ends
            with open(write_fd, "wb"):
                if (pid := os.fork()) == 0:  # the child reports its slice, then os._exit
                    try:
                        try:
                            report = pickle.dumps((_trial_rows_star(args), None))
                        except Exception as exc:
                            report = pickle.dumps((exc, traceback.format_exc()))
                        while report:  # a signal can cut a pipe write short
                            report = report[os.write(write_fd, report):]
                    finally:
                        os._exit(0)
            children.append(pid)
        payloads = [pipe.read() for pipe in pipes]
    finally:  # every child is reaped, so RUSAGE_CHILDREN counts it; none outlives this
        for pipe in pipes:
            pipe.close()
        for pid in children:
            if payloads is None:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    rows = []
    for pid, status, payload in zip(children, statuses, payloads):
        if status or not payload:
            raise RuntimeError(f"sweep child {pid} reported nothing, exit status {status}")
        result, trace = pickle.loads(payload)
        if trace is not None:  # the child's formatted traceback becomes the cause
            raise result from RuntimeError(trace)
        rows += result
    return sorted(rows, key=_ROW_ORDER)


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
        lines.append(",".join(map(_fmt, r)))
    return "\n".join(lines) + "\n"


def write_rows(rows, path):
    Path(path).write_text(rows_to_csv(rows), encoding="ascii")
