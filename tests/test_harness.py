import json
import math
import os
import pickle
import signal
import sys
import time
import uuid
from dataclasses import replace

import numpy as np
import pytest

from twostage import harness, pipeline
from twostage.channel import SystemConfig, generate_channel
from twostage.harness import (
    CSV_HEADER,
    SweepRow,
    SweepSpec,
    noise_var_from_snr_db,
    rows_to_csv,
    run_sweep,
    summarize,
    write_rows,
)
from twostage.numkit import stream
from twostage.pipeline import full_observation_baseline, two_stage_estimate


def _small_scenario():
    return SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2)


def _small_spec(**kw):
    spec = dict(scenario=_small_scenario(), snr_db_list=(0.0, 10.0), m_list=(4, 8),
                trials=3, modes=("pseudo-inverse", "ideal"), baseline=True)
    spec.update(kw)
    return SweepSpec(**spec)


# --------------------------------------------------------------------- noise


def test_noise_variance_from_snr():
    assert noise_var_from_snr_db(0.0) == 1.0
    np.testing.assert_allclose(noise_var_from_snr_db(10.0), 0.1, rtol=1e-15)
    np.testing.assert_allclose(noise_var_from_snr_db(-10.0), 10.0, rtol=1e-15)
    assert noise_var_from_snr_db(math.inf) == 0.0
    # -4000 dB overflows a float; a numpy scalar overflows the same way, not with a warning
    for bad in (math.nan, -math.inf, -4000.0, np.float64(-4000.0)):
        with pytest.raises(ValueError, match=f"SNR {bad} dB gives no finite"):
            noise_var_from_snr_db(bad)
    # float() would read True as 1 dB and parse "7"; a numpy float is a real number
    for bad in (True, np.True_, "7", b"3"):
        with pytest.raises(ValueError, match="SNR must be a real number"):
            noise_var_from_snr_db(bad)
    np.testing.assert_allclose(noise_var_from_snr_db(np.float32(10)), 0.1, rtol=1e-15)


# ---------------------------------------------------------------------- spec


def test_spec_coerces_sequences_and_validates():
    spec = SweepSpec(scenario=_small_scenario(), snr_db_list=[0, 10], m_list=[4],
                     trials=1, modes=["ideal"], baseline=False)
    assert spec.snr_db_list == (0.0, 10.0)
    assert spec.m_list == (4,)
    with pytest.raises(ValueError, match="SNR"):
        _small_spec(snr_db_list=())
    for bad in (math.nan, -math.inf, -4000.0):  # -4000 dB overflows a float
        with pytest.raises(ValueError, match="finite"):
            _small_spec(snr_db_list=(0.0, bad))
    assert _small_spec(snr_db_list=(math.inf,)).snr_db_list == (math.inf,)
    for bad in ((True,), (np.True_,), ("7",), (b"3",)):
        with pytest.raises(ValueError, match="must be a real number"):
            _small_spec(snr_db_list=bad)
    with pytest.raises(ValueError, match="sampled-column"):
        _small_spec(m_list=())
    with pytest.raises(ValueError, match="m="):
        _small_spec(m_list=(1,))
    with pytest.raises(ValueError, match="m="):
        _small_spec(m_list=(17,))
    # the scenario carries no m of its own, so any valid m_list is accepted
    wide = SweepSpec(scenario=SystemConfig(n_rx=8, n_tx=6, paths=2, n_rf=4),
                     m_list=(2, 4))
    assert wide.m_list == (2, 4)
    with pytest.raises(ValueError, match="trial"):
        _small_spec(trials=0)
    with pytest.raises(ValueError, match="mode"):
        _small_spec(modes=("genie",))
    with pytest.raises(ValueError, match="need at least one recovery mode"):
        _small_spec(modes=())
    with pytest.raises(ValueError, match="worker"):
        _small_spec(workers=0)
    # a non-integral count is rejected, not truncated or kept as a float
    for field, value in (("m_list", (4.5,)), ("trials", 1.5), ("workers", 2.0),
                         ("seed", 1.5), ("m_list", (True,)), ("trials", True),
                         ("workers", True), ("seed", True)):  # True is not seed 1
        with pytest.raises(ValueError, match="must be an integer"):
            _small_spec(**{field: value})
    with pytest.raises(ValueError, match="seed must be non-negative"):
        _small_spec(seed=-3)
    numpy_ints = _small_spec(m_list=(np.int64(4),), trials=np.int32(2))
    assert numpy_ints.m_list == (4,) and type(numpy_ints.m_list[0]) is int
    # a repeated grid value would give two cells one CSV key; -0.0 repeats 0.0
    for field, values, match in (("snr_db_list", (10.0, 0.0, 10.0), "repeats 10.0"),
                                 ("snr_db_list", (0.0, -0.0), "repeats -0.0"),
                                 ("m_list", (4, 8, 4), "repeats 4"),
                                 ("modes", ("ideal", "ideal"), "repeats 'ideal'")):
        with pytest.raises(ValueError, match=f"{field} {match}"):
            _small_spec(**{field: values})


@pytest.mark.parametrize("bad", ["no", 0, None])
def test_spec_rejects_a_baseline_that_is_not_a_bool(bad):
    # any truthy value would run the baseline, "no" among them
    with pytest.raises(ValueError, match="baseline must be a bool"):
        _small_spec(baseline=bad)
    assert _small_spec(baseline=np.bool_(False)).baseline == np.False_


@pytest.mark.parametrize("field, value", [("snr_db_list", "10"), ("m_list", "48"),
                                          ("modes", "ideal")])
def test_spec_rejects_a_bare_string_for_a_grid(field, value):
    # a string would be read one character at a time: "10" as 1 dB and 0 dB
    with pytest.raises(ValueError, match=f"{field} must be a sequence, not the string"):
        _small_spec(**{field: value})


# --------------------------------------------------------------------- sweep


def test_sweep_emits_one_row_per_trial_mode_and_baseline():
    rows = run_sweep(_small_spec())
    assert len(rows) == 2 * 2 * 3 * (2 + 1)
    keys = [(r.snr_db, r.m, r.trial, r.mode) for r in rows]
    assert keys == sorted(keys)
    modes = {r.mode for r in rows}
    assert modes == {"pseudo-inverse", "ideal", "full-observation"}
    assert all(np.isfinite(r.nmse) for r in rows)


def _trial_seed(seed, key):
    """A trial's CSV seed: the first 32-bit word of its SeedSequence."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, dtype=np.uint32)[0])


# the stream key of each estimator, fixed by its name
_STREAM_KEYS = {"pseudo-inverse": 1, "paper-literal": 2, "ideal": 3, "full-observation": 999}


def _replayed(spec, row):
    """The seed, nmse and subspace_dist of ``row``, rebuilt by the README recipe."""
    cfg, seed = spec.scenario, spec.seed
    key = (spec.snr_db_list.index(row.snr_db), spec.m_list.index(row.m), row.trial)
    real = generate_channel(cfg, stream(seed, *key, 0))
    sigma2 = noise_var_from_snr_db(row.snr_db)
    rng = stream(seed, *key, _STREAM_KEYS[row.mode])
    if row.mode == "full-observation":
        rep = full_observation_baseline(real, sigma2, rng)
    else:
        rep = two_stage_estimate(real, cfg, row.m, sigma2, rng, mode=row.mode)
    return _trial_seed(seed, key), rep.nmse, rep.subspace_dist


def test_every_row_replays_from_its_grid_indices_and_the_stream_keys():
    # trial key (snr index, m index, trial) under the seed, channel on key 0, each
    # estimator on its name's key: one seed per trial, distinct across trials
    spec = _small_spec(seed=4, modes=("ideal", "pseudo-inverse"))
    rows = run_sweep(spec)
    for row in rows:
        assert _replayed(spec, row) == (row.seed, row.nmse, row.subspace_dist)
    seeds = {(row.snr_db, row.m, row.trial): row.seed for row in rows}
    assert len(set(seeds.values())) == len(seeds) == 2 * 2 * 3


def test_a_mode_draws_the_same_rows_whatever_else_the_spec_lists():
    # a row's streams follow from what the row is, not from where its mode is listed
    alone = run_sweep(_small_spec(modes=("ideal",)))
    spec = _small_spec(modes=("paper-literal", "pseudo-inverse", "ideal"))
    listed = run_sweep(spec)
    assert alone == [row for row in listed if row.mode in ("ideal", "full-observation")]
    assert {row.mode for row in listed} == set(_STREAM_KEYS)
    for row in listed:  # the four keys, pinned
        assert _replayed(spec, row) == (row.seed, row.nmse, row.subspace_dist)


def test_a_trial_builds_one_generator_per_drawing_stream_and_none_for_the_root(
        monkeypatch):
    # the trial key only names the trial, by its seed; each drawing key builds one
    made, philox = [], np.random.Philox

    def counting_philox(sequence):
        made.append(sequence.spawn_key)
        return philox(sequence)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    spec = _small_spec(seed=4, trials=3, modes=pipeline.RECOVERY_MODES)
    rows = harness._trial_rows(spec, 1, 0, 2)
    children = [0, 1, 2, 3, 999]  # channel, one per mode, baseline
    assert made == [(1, 0, 2, key) for key in children]
    assert len(made) == 2 + len(spec.modes)
    assert {row.seed for row in rows} == {1994087735}  # the CSV seed column, pinned
    assert _trial_seed(4, (1, 0, 2)) == 1994087735
    monkeypatch.setattr(np.random, "Philox", philox)
    for key in children:
        direct = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(4, spawn_key=(1, 0, 2, key))))
        np.testing.assert_array_equal(stream(4, 1, 0, 2, key).standard_normal(16),
                                      direct.standard_normal(16))


def _raise(exc_type):
    def estimator(*args, **kwargs):
        raise exc_type("injected")
    return estimator


def test_failed_trials_become_tagged_rows_not_drops(monkeypatch):
    # a numerical failure inside the estimator must surface as a tagged row
    monkeypatch.setattr(harness, "two_stage_estimate", _raise(np.linalg.LinAlgError))
    spec = _small_spec(snr_db_list=(10.0,), m_list=(4,), trials=2,
                       modes=("pseudo-inverse",), baseline=False)
    rows = run_sweep(spec)
    assert len(rows) == 2
    assert all(r.mode == "pseudo-inverse#error:LinAlgError" for r in rows)
    assert all(math.isnan(r.nmse) and math.isnan(r.subspace_dist) for r in rows)
    assert all(r.channel_uses == 0 for r in rows)


def test_a_failed_baseline_becomes_a_tagged_row_beside_finite_modes(monkeypatch):
    # modes and baseline share one error path; the floor's failure leaves the
    # mode rows of its trial as they are without the floor
    spec = _small_spec(m_list=(4,), trials=1, modes=pipeline.RECOVERY_MODES)
    expected = harness._trial_rows(replace(spec, baseline=False), 0, 0, 0)
    monkeypatch.setattr(harness, "full_observation_baseline",
                        _raise(np.linalg.LinAlgError))
    *modes, floor = harness._trial_rows(spec, 0, 0, 0)
    assert modes == expected
    assert all(math.isfinite(r.nmse) and math.isfinite(r.subspace_dist) for r in modes)
    assert floor.mode == "full-observation#error:LinAlgError"
    assert math.isnan(floor.nmse) and math.isnan(floor.subspace_dist)
    assert floor.channel_uses == 0


def test_a_non_finite_stage_body_output_becomes_a_tagged_row(monkeypatch):
    # the stage functions run unchecked inside a trial; the estimate's own check
    # in nmse turns a NaN column into an error row, not an untagged NaN row
    recover = pipeline.recover_block

    def nan_column(*args, **kwargs):
        out = recover(*args, **kwargs)
        out[:, 2] = np.nan
        return out

    monkeypatch.setattr(pipeline, "recover_block", nan_column)
    spec = _small_spec(snr_db_list=(10.0,), m_list=(4,), trials=1,
                       modes=("pseudo-inverse",))
    error, baseline = harness._trial_rows(spec, 0, 0, 0)
    assert error.mode == "pseudo-inverse#error:LinAlgError"
    assert math.isnan(error.nmse) and math.isnan(error.subspace_dist)
    assert error.channel_uses == 0
    assert baseline.mode == "full-observation" and math.isfinite(baseline.nmse)


@pytest.mark.parametrize("name, exc_type", [
    pytest.param("two_stage_estimate", TypeError, id="two_stage_estimate"),
    # a defect's ValueError (a shape or broadcast error) is not a numerical failure
    pytest.param("two_stage_estimate", ValueError, id="two_stage_estimate-ValueError"),
    pytest.param("full_observation_baseline", TypeError, id="full_observation_baseline"),
    pytest.param("generate_channel", RuntimeError, id="generate_channel"),
])
def test_programming_errors_stop_the_sweep(monkeypatch, name, exc_type):
    monkeypatch.setattr(harness, name, _raise(exc_type))
    spec = _small_spec(snr_db_list=(10.0,), m_list=(4,), trials=1)
    with pytest.raises(exc_type, match="injected"):
        run_sweep(spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows it provokes
def test_an_overflowing_trial_is_finite_or_a_tagged_row():
    # below about -3060 dB the noise power overflows the float64 products of a
    # trial; each row is then finite or tagged, never an untagged inf or NaN
    spec = _small_spec(snr_db_list=(-3070.0,), m_list=(4, 16), trials=3,
                       modes=pipeline.RECOVERY_MODES)
    rows = run_sweep(spec)
    assert len(rows) == 24
    for r in rows:
        finite = math.isfinite(r.nmse) and math.isfinite(r.subspace_dist)
        assert finite or r.mode.endswith("#error:LinAlgError"), r


def test_sweeps_are_reproducible_and_schedule_independent():
    # 5 trials per cell split unevenly over 2 and 3 workers
    spec = _small_spec(trials=5, modes=pipeline.RECOVERY_MODES)
    serial = rows_to_csv(run_sweep(spec))
    assert rows_to_csv(run_sweep(spec)) == serial
    for workers in (2, 3):
        assert rows_to_csv(run_sweep(replace(spec, workers=workers))) == serial


def test_sweeps_fork_no_more_workers_than_trials(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    one_cell = dict(snr_db_list=(10.0,), m_list=(4,), modes=("ideal",), workers=4)
    assert len(run_sweep(_small_spec(trials=2, **one_cell))) == 4
    assert len(forks) == 2
    assert len(run_sweep(_small_spec(trials=1, **one_cell))) == 2
    assert len(forks) == 2  # a single trial runs in this process


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_exception_reaches_the_caller_with_its_traceback(monkeypatch):
    monkeypatch.setattr(harness, "generate_channel", _raise(RuntimeError))
    with pytest.raises(RuntimeError, match="injected") as caught:
        run_sweep(_small_spec(workers=2))
    # the cause carries the child's formatted traceback
    assert "generate_channel" in str(caught.value.__cause__)
    _assert_no_child_left()


def test_a_child_that_reports_nothing_is_named_with_its_exit_status(monkeypatch):
    monkeypatch.setattr(harness, "_trial_rows_star", lambda args: os._exit(3))
    with pytest.raises(RuntimeError, match=r"sweep child \d+ reported nothing, exit status 3"):
        run_sweep(_small_spec(workers=2))
    _assert_no_child_left()


def test_an_interrupted_sweep_kills_and_reaps_its_children(monkeypatch):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    # the children would sleep for a minute; the parent is interrupted while
    # it waits on their pipes (interval timers do not survive a fork)
    monkeypatch.setattr(harness, "_trial_rows_star", lambda args: time.sleep(60))
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_small_spec(workers=2))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_a_child_report_that_a_write_cuts_short_arrives_whole(monkeypatch):
    # write(2) on a pipe returns a short count when a handled signal lands
    # mid-write; this os.write takes at most 4,096 bytes a call
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:4096]))
    spec = _small_spec(trials=12, modes=pipeline.RECOVERY_MODES)
    serial = run_sweep(spec)
    assert len(pickle.dumps((serial[::2], None))) > 4096  # each child needs several writes
    assert rows_to_csv(run_sweep(replace(spec, workers=2))) == rows_to_csv(serial)
    _assert_no_child_left()


def test_a_failed_fork_closes_its_pipe_and_reaps_the_earlier_children(monkeypatch):
    # the second slice's fork fails, as EAGAIN under a process limit would
    forks, fork = [], os.fork

    def second_fork_fails():
        forks.append(None)
        if len(forks) % 2 == 0:
            raise BlockingIOError("injected")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    spec = _small_spec(snr_db_list=(10.0,), m_list=(4,), trials=2, workers=2)
    open_fds = len(os.listdir("/dev/fd"))
    for _ in range(5):
        with pytest.raises(BlockingIOError, match="injected"):
            run_sweep(spec)
    assert len(os.listdir("/dev/fd")) == open_fds
    _assert_no_child_left()


_WORKER_PROBE = {}


def _slice_recording_imports(args):
    """Stand-in for ``harness._trial_rows_star``: records the modules a slice loads."""
    before = set(sys.modules)
    rows = _WORKER_PROBE["task"](args)
    record = {"pid": os.getpid(), "grown": sorted(set(sys.modules) - before)}
    (_WORKER_PROBE["dir"] / f"slice-{uuid.uuid4().hex}.json").write_text(json.dumps(record))
    return rows


def test_forked_workers_import_nothing_while_they_run_trials(tmp_path, monkeypatch):
    # hide any numpy.random that earlier tests loaded, so this process is as
    # cold as a fresh `twostage sweep`; monkeypatch puts it back afterwards.
    # vars() because reading np.random would import it
    if "random" in vars(np):
        monkeypatch.delattr(np, "random")
    for name in [n for n in sys.modules if n.split(".")[:2] == ["numpy", "random"]]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(_WORKER_PROBE, "task", harness._trial_rows_star)
    monkeypatch.setitem(_WORKER_PROBE, "dir", tmp_path)
    monkeypatch.setattr(harness, "_trial_rows_star", _slice_recording_imports)
    run_sweep(_small_spec(snr_db_list=(10.0,), m_list=(4,), trials=2, workers=2))
    records = [json.loads(path.read_text()) for path in sorted(tmp_path.glob("slice-*"))]
    assert len(records) == 2
    for record in records:
        assert record["pid"] != os.getpid()  # ran in a forked worker
        assert record["grown"] == []


# ------------------------------------------------------------------- summary


def test_summary_mean_and_stderr_are_textbook():
    rows = [
        SweepRow(0.0, 4, 0, "ideal", 0.1, 0.3, 44, 7),
        SweepRow(0.0, 4, 1, "ideal", 0.3, 0.5, 44, 8),
    ]
    s, = summarize(rows)
    np.testing.assert_allclose(s.nmse_mean, 0.2, rtol=1e-15)
    np.testing.assert_allclose(s.nmse_stderr, 0.1, rtol=1e-12)
    np.testing.assert_allclose(s.subspace_dist_mean, 0.4, rtol=1e-15)
    assert s.count == 2
    # five rows, a group of one and a failed group, next to numpy's own figures
    nmse = [0.31, 0.017, 0.2, 1e-3, 0.08]
    dist = [0.5, 0.25, 0.125, 0.3, 0.7]
    rows = [SweepRow(0.0, 4, t, "ideal", a, b, 44, t)
            for t, (a, b) in enumerate(zip(nmse, dist))]
    rows.append(SweepRow(0.0, 8, 0, "ideal", 0.4, 0.6, 48, 9))
    rows += [SweepRow(0.0, 4, t, "ideal#error:ValueError", math.nan, math.nan, 0, t)
             for t in (5, 6)]
    five, failed, single = summarize(rows)
    assert (five.m, five.mode, five.count) == (4, "ideal", 5)
    for mean, stderr, values in ((five.nmse_mean, five.nmse_stderr, nmse),
                                 (five.subspace_dist_mean, five.subspace_dist_stderr,
                                  dist)):
        assert mean == pytest.approx(np.mean(values), rel=1e-15)
        assert stderr == pytest.approx(np.std(values, ddof=1) / math.sqrt(5), rel=1e-15)
    assert (single.m, single.count) == (8, 1)
    assert (single.nmse_mean, single.subspace_dist_mean) == (0.4, 0.6)
    assert single.nmse_stderr == single.subspace_dist_stderr == 0.0
    assert (failed.mode, failed.count) == ("ideal#error:ValueError", 2)
    assert all(math.isnan(v) for v in (failed.nmse_mean, failed.nmse_stderr,
                                       failed.subspace_dist_mean,
                                       failed.subspace_dist_stderr))
    with pytest.raises(ValueError, match="no rows"):
        summarize([])


def test_summary_identical_rows_have_zero_stderr():
    rows = [SweepRow(0.0, 4, t, "ideal", 0.1, 0.3, 44, 7) for t in range(2)]
    s, = summarize(rows)
    assert s.nmse_stderr == 0.0
    assert s.nmse_mean == pytest.approx(0.1)


# ----------------------------------------------------------------------- csv


def test_csv_layout_and_float_format():
    rows = [SweepRow(10.0, 4, 0, "ideal", 1 / 3, 0.5, 44, 7),
            SweepRow(-10.0, 8, 3, "pseudo-inverse#error:ValueError", math.nan, math.nan,
                     0, 12),
            SweepRow(-10.0, 8, 2, "ideal", 0.1 + 0.2, 2.0**-60, 40, 4294967295)]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "snr_db,m,trial,mode,nmse,subspace_dist,channel_uses,seed"
    assert lines[1:] == [
        "-10,8,2,ideal,0.30000000000000004,8.6736173798840355e-19,40,4294967295",
        "-10,8,3,pseudo-inverse#error:ValueError,nan,nan,0,12",
        "10,4,0,ideal,0.33333333333333331,0.5,44,7",
    ]
    assert text.endswith("\n")


def test_csv_floats_round_trip_exactly():
    rows = run_sweep(_small_spec(trials=2))
    lines = rows_to_csv(rows).splitlines()[1:]
    for row, line in zip(rows, lines):
        cells = line.split(",")
        assert float(cells[4]) == row.nmse
        assert float(cells[5]) == row.subspace_dist


def test_csv_is_sorted_no_matter_the_input_order():
    rows = run_sweep(_small_spec(trials=2))
    shuffled = list(reversed(rows))
    assert rows_to_csv(shuffled) == rows_to_csv(rows)


def test_written_file_matches_the_rendering(tmp_path):
    rows = run_sweep(_small_spec(trials=1))
    path = tmp_path / "rows.csv"
    write_rows(rows, path)
    assert path.read_text(encoding="ascii") == rows_to_csv(rows)
