import ast
import io
import json
import math
import os
import re
import shlex
import signal
import sys
import time
import uuid
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from twostage import cli, harness, pipeline
from twostage.channel import SystemConfig, generate_channel
from twostage.cli import _config_argv, build_parser, main
from twostage.harness import (
    CSV_HEADER,
    SweepRow,
    SweepSpec,
    noise_var_from_snr_db,
    rows_to_csv,
    run_checks,
    run_sweep,
    summarize,
    write_rows,
)
from twostage.numkit import RngState
from twostage.pipeline import full_observation_baseline, two_stage_estimate

ROOT = Path(__file__).resolve().parents[1]


def _small_scenario():
    return SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2, seed=0)


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
    for bad in (math.nan, -math.inf, -4000.0):  # -4000 dB overflows a float
        with pytest.raises(ValueError, match=f"SNR {bad} dB gives no finite"):
            noise_var_from_snr_db(bad)


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
    for field, value in (("m_list", (4.5,)), ("trials", 1.5), ("workers", 2.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            _small_spec(**{field: value})
    numpy_ints = _small_spec(m_list=(np.int64(4),), trials=np.int32(2))
    assert numpy_ints.m_list == (4,) and type(numpy_ints.m_list[0]) is int
    # a repeated grid value would give two cells one CSV key; -0.0 repeats 0.0
    for field, values, match in (("snr_db_list", (10.0, 0.0, 10.0), "repeats 10.0"),
                                 ("snr_db_list", (0.0, -0.0), "repeats -0.0"),
                                 ("m_list", (4, 8, 4), "repeats 4"),
                                 ("modes", ("ideal", "ideal"), "repeats 'ideal'")):
        with pytest.raises(ValueError, match=f"{field} {match}"):
            _small_spec(**{field: values})


# --------------------------------------------------------------------- sweep


def test_sweep_emits_one_row_per_trial_mode_and_baseline():
    rows = run_sweep(_small_spec())
    assert len(rows) == 2 * 2 * 3 * (2 + 1)
    keys = [(r.snr_db, r.m, r.trial, r.mode) for r in rows]
    assert keys == sorted(keys)
    modes = {r.mode for r in rows}
    assert modes == {"pseudo-inverse", "ideal", "full-observation"}
    assert all(np.isfinite(r.nmse) for r in rows)


def test_rows_of_one_trial_share_their_stream_seed():
    rows = run_sweep(_small_spec())
    by_trial = {}
    for r in rows:
        by_trial.setdefault((r.snr_db, r.m, r.trial), set()).add(r.seed)
    assert all(len(seeds) == 1 for seeds in by_trial.values())
    assert len({next(iter(s)) for s in by_trial.values()}) == len(by_trial)


def test_every_row_replays_from_its_grid_indices_and_the_stream_keys():
    # the recipe in the README: root RngState(seed, (snr index, m index, trial));
    # channel on key 0, mode k on key 1 + k, baseline on key 999
    cfg = SystemConfig(n_rx=8, n_tx=16, paths=2, n_rf=2, seed=4)
    spec = _small_spec(scenario=cfg, modes=("ideal", "pseudo-inverse"))
    for row in run_sweep(spec):
        root = RngState(4, (spec.snr_db_list.index(row.snr_db),
                            spec.m_list.index(row.m), row.trial))
        real = generate_channel(cfg, root.split(0))
        sigma2 = noise_var_from_snr_db(row.snr_db)
        if row.mode == "full-observation":
            rep = full_observation_baseline(real, sigma2, root.split(999))
        else:
            rep = two_stage_estimate(real, cfg, row.m, sigma2,
                                     root.split(1 + spec.modes.index(row.mode)),
                                     mode=row.mode)
        assert root.state_id() == row.seed
        assert (rep.nmse, rep.subspace_dist) == (row.nmse, row.subspace_dist)


def test_a_trial_builds_one_generator_per_drawing_stream_and_none_for_the_root(
        monkeypatch):
    # the root stream only names the trial and splits; each child draws
    made, philox = [], np.random.Philox

    def counting_philox(sequence):
        made.append(sequence.spawn_key)
        return philox(sequence)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    spec = _small_spec(scenario=replace(_small_scenario(), seed=4), trials=3,
                       modes=pipeline.RECOVERY_MODES)
    rows = harness._trial_rows(spec, 1, 0, 2)
    children = [0, 1, 2, 3, 999]  # channel, one per mode, baseline
    assert made == [(1, 0, 2, key) for key in children]
    assert len(made) == 2 + len(spec.modes)
    assert {row.seed for row in rows} == {1994087735}  # the CSV seed column, pinned
    assert RngState(4, (1, 0, 2)).state_id() == 1994087735
    monkeypatch.setattr(np.random, "Philox", philox)
    root = RngState(4, (1, 0, 2))
    for key in children:
        direct = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(4, spawn_key=(1, 0, 2, key))))
        np.testing.assert_array_equal(root.split(key).generator.standard_normal(16),
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
    # the stage bodies run unchecked inside a trial; the estimate's own check
    # in nmse turns a NaN column into an error row, not an untagged NaN row
    recover = pipeline._recover_block

    def nan_column(*args, **kwargs):
        out = recover(*args, **kwargs)
        out[:, 2] = np.nan
        return out

    monkeypatch.setattr(pipeline, "_recover_block", nan_column)
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


def test_summary_single_row_has_zero_stderr():
    s, = summarize([SweepRow(0.0, 4, 0, "ideal", 0.1, 0.3, 44, 7)])
    assert s.nmse_stderr == 0.0
    assert s.subspace_dist_stderr == 0.0


def test_summary_identical_rows_have_zero_stderr():
    rows = [SweepRow(0.0, 4, t, "ideal", 0.1, 0.3, 44, 7) for t in range(2)]
    s, = summarize(rows)
    assert s.nmse_stderr == 0.0
    assert s.nmse_mean == pytest.approx(0.1)


def test_summary_groups_failures_separately_and_rejects_emptiness():
    rows = [
        SweepRow(0.0, 4, 0, "ideal", 0.1, 0.3, 44, 7),
        SweepRow(0.0, 4, 1, "ideal#error:ValueError", math.nan, math.nan, 0, 8),
    ]
    summary = summarize(rows)
    assert [s.mode for s in summary] == ["ideal", "ideal#error:ValueError"]
    assert summary[0].count == summary[1].count == 1
    with pytest.raises(ValueError, match="no rows"):
        summarize([])


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


# -------------------------------------------------------------------- config


def test_config_parsing(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# comment line\n"
        "nr = 8\n"
        "snr-db = 0, 10   # trailing comment\n"
        "\n"
        "TRIALS=5\n"
    )
    assert _config_argv(path, build_parser()) == [
        "sweep", "--nr=8", "--snr-db", "0", "10", "--trials=5"]


def test_config_rejects_lines_without_assignment(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nr = 8\njust words\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        _config_argv(path, build_parser())


# -------------------------------------------------------------------- checks


@pytest.mark.parametrize("seed", (0, 7))
def test_builtin_checks_all_pass(seed):
    results = run_checks(seed=seed)
    assert [name for name, _, _ in results] == [
        "combiner-independence",
        "sampled-column-subspace",
        "appended-column-interlacing",
        "sounder-constraints",
        "channel-use-accounting",
        "noiseless-exactness",
    ]
    assert all(passed for _, passed, _ in results)


# ----------------------------------------------------------------------- cli


def test_cli_estimate_prints_a_report(capsys):
    code = main(["estimate", "--nr", "8", "--nt", "16", "--paths", "2",
                 "--nrf", "2", "--m", "4", "--snr-db", "10", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nmse:" in out and "channel_uses:" in out
    assert "full-observation" not in out


def test_cli_estimate_with_baseline_prints_both_reports(capsys):
    code = main(["estimate", "--nr", "8", "--nt", "16", "--paths", "2",
                 "--nrf", "2", "--m", "4", "--snr-db", "10", "--baseline"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("nmse:") == 2
    assert "full-observation" in out


def test_cli_sweep_honors_config_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "nr = 8\nnt = 16\npaths = 2\nnrf = 2\n"
        "m = 4\nsnr-db = 0\ntrials = 50\nbaseline = no\n"
    )
    out_csv = tmp_path / "rows.csv"
    code = main(["sweep", "--config", str(cfg), "--trials", "2",
                 "--out", str(out_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote 2 rows" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def _usage_error(capsys, argv, match):
    """Run the CLI on ``argv``; it must exit 2 with an argparse error line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert re.search(f"twostage: error: {match}", captured.err), captured.err
    return captured


def test_cli_sweep_rejects_unknown_config_keys(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sweep", _raise(AssertionError))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bogus = 1\n")
    _usage_error(capsys, ["sweep", "--config", str(cfg)], "unknown config key")
    # a repeated key, in either spelling, would silently drop the first value
    for text, key in (("m = 4\nm = 8\n", "m"), ("snr-db = 0\nsnr_db = 10\n", "snr_db")):
        cfg.write_text(text)
        _usage_error(capsys, ["sweep", "--config", str(cfg)],
                     re.escape(f"{cfg}:2: repeated key '{key}'"))


def test_cli_sweep_rejects_a_config_path_it_cannot_read(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_sweep", _raise(AssertionError))
    for path in (tmp_path / "missing.cfg", tmp_path):
        captured = _usage_error(capsys, ["sweep", "--config", str(path)],
                                re.escape(f"--config {path}: "))
        assert "Traceback" not in captured.err and captured.out == ""


def test_cli_sweep_rejects_repeated_grid_values_before_the_first_trial(monkeypatch,
                                                                       capsys):
    trials = []
    monkeypatch.setattr(harness, "_trial_rows", lambda *a: trials.append(a) or [])
    _usage_error(capsys, ["sweep", "--nr", "8", "--nt", "16", "--paths", "2", "--nrf",
                          "2", "--m", "4", "--snr-db", "10", "10", "--trials", "2",
                          "--no-baseline"], "snr_db_list repeats 10.0")
    assert trials == []


def test_cli_sweep_with_a_nan_snr_fails_before_the_first_trial(tmp_path, monkeypatch,
                                                              capsys):
    trials = []
    monkeypatch.setattr(harness, "_trial_rows", lambda *a: trials.append(a) or [])
    out_csv = tmp_path / "bad.csv"
    for snr_db in ("nan", "-4000"):  # -4000 dB overflows the noise variance
        _usage_error(capsys, ["sweep", "--nr", "8", "--nt", "16", "--paths", "2",
                              "--nrf", "2", "--m", "4", "--snr-db", snr_db,
                              "--trials", "1", "--out", str(out_csv)],
                     f"SNR {float(snr_db)} dB gives no finite")
    assert trials == []
    assert not out_csv.exists()


def test_cli_sweep_with_an_unwritable_out_fails_before_the_first_trial(tmp_path,
                                                                      monkeypatch,
                                                                      capsys):
    monkeypatch.setattr(cli, "run_sweep", _raise(AssertionError))
    for out in (tmp_path / "no" / "such" / "dir" / "x.csv", tmp_path):
        _usage_error(capsys, ["sweep", "--nr", "8", "--nt", "16", "--paths", "2",
                              "--nrf", "2", "--m", "4", "--trials", "1",
                              "--out", str(out)],
                     re.escape(f"--out {out} is not a file in an existing directory"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("snr_db", ["nan", "-4000"])
def test_cli_estimate_rejects_an_snr_without_finite_noise(monkeypatch, capsys, snr_db):
    monkeypatch.setattr(harness, "two_stage_estimate", _raise(AssertionError))
    captured = _usage_error(capsys, ["estimate", "--nr", "8", "--nt", "16", "--paths",
                                     "2", "--nrf", "2", "--m", "4", "--snr-db", snr_db],
                            f"SNR {float(snr_db)} dB gives no finite")
    assert captured.out == ""


def test_cli_estimate_rejects_fewer_sounded_columns_than_paths(capsys):
    _usage_error(capsys, ["estimate", "--paths", "4", "--m", "2"],
                 re.escape("m=2 must satisfy 4 <= m <= 128"))


def test_cli_estimate_rejects_its_arguments_before_any_draw(monkeypatch, capsys):
    made, philox = [], np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda seq: made.append(seq) or philox(seq))
    _usage_error(capsys, ["estimate", "--paths", "4", "--m", "2"],
                 re.escape("m=2 must satisfy 4 <= m <= 128"))
    assert made == []


def test_cli_check_rejects_a_negative_seed(capsys):
    _usage_error(capsys, ["check", "--seed", "-1"], "seed must be non-negative")


def test_cli_sweep_lets_a_value_error_from_a_trial_reach_the_caller(monkeypatch):
    # only argument resolution is a usage error; a ValueError raised while the
    # sweep runs comes from a defect and keeps its traceback, not exit status 2
    monkeypatch.setattr(harness, "two_stage_estimate", _raise(ValueError))
    with pytest.raises(ValueError, match="injected"):
        main(["sweep", "--nr", "8", "--nt", "16", "--paths", "2", "--nrf", "2",
              "--m", "4", "--snr-db", "10", "--trials", "1"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows it provokes
def test_cli_estimate_raises_a_numerical_failure_with_its_traceback():
    # -3060 dB passes the spec, but the 32x128 trial's products overflow float64
    with pytest.raises(np.linalg.LinAlgError):
        main(["estimate", "--snr-db", "-3060"])


def test_cli_check_reports_all_passes(capsys):
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "6/6 checks passed" in out
    assert "FAIL" not in out


class _Stop(Exception):
    pass


def _captured_spec(monkeypatch, argv):
    """The spec that ``twostage`` would sweep for ``argv``, without running it."""
    seen = []

    def stop(spec):
        seen.append(spec)
        raise _Stop

    monkeypatch.setattr(cli, "run_sweep", stop)
    with pytest.raises(_Stop):
        main(argv)
    return seen[0]


def test_cli_estimate_defaults_are_the_library_defaults(capsys):
    assert main(["estimate"]) == 0
    cfg = SystemConfig()
    rng = RngState(cfg.seed)
    rep = two_stage_estimate(generate_channel(cfg, rng.split(0)), cfg, 8, 0.1,
                             rng.split(1))
    expected = io.StringIO()
    cli._print_report(rep, cfg.seed, expected)
    assert capsys.readouterr().out == expected.getvalue()


def test_cli_estimate_floor_draws_on_the_sweep_baseline_key(capsys):
    assert main(["estimate", "--baseline", "--seed", "3"]) == 0
    cfg = SystemConfig(seed=3)
    real = generate_channel(cfg, RngState(3).split(0))
    floor = full_observation_baseline(real, 0.1, RngState(3).split(999))
    expected = io.StringIO()
    cli._print_report(floor, 3, expected)
    assert capsys.readouterr().out.endswith("\n\n" + expected.getvalue())


_DEFAULT_SPEC = SweepSpec(scenario=SystemConfig())


def test_cli_sweep_defaults_are_the_dataclass_defaults(monkeypatch):
    assert _captured_spec(monkeypatch, ["sweep"]) == _DEFAULT_SPEC


def test_reference_sweep_config_resolves_to_the_default_spec(monkeypatch):
    # bench/ sweeps this file; it spells out every default
    path = ROOT / "scripts" / "reference_sweep.cfg"
    assert _captured_spec(monkeypatch, ["sweep", "--config", str(path)]) == _DEFAULT_SPEC


# every sweep setting off its default, once as flags and once as config lines
_EVERY_SETTING = (("nr", "16"), ("nt", "40"), ("paths", "3"), ("nrf", "5"),
                  ("seed", "7"), ("grid-size", "48"), ("m", "3 6 12"),
                  ("snr-db", "-3.5 12"), ("trials", "9"),
                  ("mode", "ideal paper-literal"), ("workers", "2"))


def test_config_file_and_flags_resolve_to_the_same_spec(tmp_path, monkeypatch):
    cfg = tmp_path / "every.cfg"
    cfg.write_text("".join(f"{key} = {value.replace(' ', ', ')}\n"
                           for key, value in _EVERY_SETTING) + "baseline = no\n")
    flags = [tok for key, value in _EVERY_SETTING for tok in [f"--{key}", *value.split()]]
    from_flags = _captured_spec(monkeypatch, ["sweep", *flags, "--no-baseline"])
    assert from_flags == SweepSpec(
        scenario=SystemConfig(n_rx=16, n_tx=40, paths=3, n_rf=5, seed=7, grid_size=48),
        m_list=(3, 6, 12), snr_db_list=(-3.5, 12.0), trials=9,
        modes=("ideal", "paper-literal"), baseline=False, workers=2)
    assert _captured_spec(monkeypatch, ["sweep", "--config", str(cfg)]) == from_flags


def test_cli_flags_override_the_config_file_wherever_they_stand(tmp_path, monkeypatch,
                                                                capsys):
    out_csv = tmp_path / "rows with spaces.csv"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("nr = 8\nnt = 16\npaths = 2\nnrf = 2\nm = 4\nsnr-db = 0\n"
                   f"trials = 50\nbaseline = no\nout = {out_csv}\n")
    for argv in (["--trials", "2", "--config", str(cfg)],
                 ["--config", str(cfg), "--trials", "2"]):
        assert _captured_spec(monkeypatch, ["sweep", *argv]).trials == 2
    assert _captured_spec(monkeypatch, ["sweep", "--config", str(cfg)]).trials == 50
    monkeypatch.undo()
    # a single-valued key keeps its whole value, spaces included
    assert main(["sweep", "--trials", "2", "--config", str(cfg)]) == 0
    assert len(out_csv.read_text().splitlines()) == 3


@pytest.mark.parametrize("line, flag", [("trials = many", "--trials"),
                                        ("mode = bogus", "--mode"),
                                        ("baseline = maybe", "--baseline")])
def test_cli_sweep_rejects_bad_config_values_naming_the_flag(tmp_path, monkeypatch,
                                                             capsys, line, flag):
    monkeypatch.setattr(cli, "run_sweep", _raise(AssertionError))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"nr = 8\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg)])
    assert exc.value.code == 2
    assert f"error: argument {flag}" in capsys.readouterr().err


def _readme_commands():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```[a-z]*\n(.*?)```", text, re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("twostage ")]


def test_readme_commands_parse_and_resolve(monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(ROOT)
    for argv in commands:
        try:
            args = build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        if args.command == "sweep":
            _captured_spec(monkeypatch, argv[1:])


def test_readme_python_examples_run():
    # one namespace: the second block uses real, cfg and rng from the first
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert namespace["report"].channel_uses_total == 168
    assert namespace["h_rest"].shape == (32, 120)


def test_sources_parse_under_the_oldest_supported_python():
    # pyproject.toml requires Python >= 3.10; reject syntax that 3.10 lacks
    sources = sorted((ROOT / "src" / "twostage").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_readme_layout_states_the_source_line_count():
    stated = re.search(r"src/twostage/\s+([\d,]+) lines in all",
                       (ROOT / "README.md").read_text())
    assert stated is not None
    lines = sum(len(path.read_text().splitlines())
                for path in (ROOT / "src" / "twostage").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == lines
    assert lines < 1362  # the line budget in ROADMAP.md
