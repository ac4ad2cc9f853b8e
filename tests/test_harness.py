import io
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from twostage import cli, harness
from twostage.channel import SystemConfig, generate_channel
from twostage.cli import build_parser, main, read_config
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


def _raise(exc_type):
    def estimator(*args, **kwargs):
        raise exc_type("injected")
    return estimator


def test_failed_trials_become_tagged_rows_not_drops(monkeypatch):
    # a numerical failure inside the estimator must surface as a tagged row
    monkeypatch.setattr(harness, "two_stage_estimate", _raise(ValueError))
    spec = _small_spec(snr_db_list=(10.0,), m_list=(4,), trials=2,
                       modes=("pseudo-inverse",), baseline=False)
    rows = run_sweep(spec)
    assert len(rows) == 2
    assert all(r.mode == "pseudo-inverse#error:ValueError" for r in rows)
    assert all(math.isnan(r.nmse) and math.isnan(r.subspace_dist) for r in rows)
    assert all(r.channel_uses == 0 for r in rows)


@pytest.mark.parametrize("name, exc_type", [
    pytest.param("two_stage_estimate", TypeError, id="two_stage_estimate"),
    pytest.param("full_observation_baseline", TypeError, id="full_observation_baseline"),
    pytest.param("generate_channel", RuntimeError, id="generate_channel"),
])
def test_programming_errors_stop_the_sweep(monkeypatch, name, exc_type):
    monkeypatch.setattr(harness, name, _raise(exc_type))
    spec = _small_spec(snr_db_list=(10.0,), m_list=(4,), trials=1)
    with pytest.raises(exc_type, match="injected"):
        run_sweep(spec)


def test_sweeps_are_reproducible_and_schedule_independent():
    spec = _small_spec(snr_db_list=(10.0,), m_list=(4,), trials=4,
                       modes=("pseudo-inverse",), baseline=False)
    serial = run_sweep(spec)
    again = run_sweep(spec)
    parallel = run_sweep(_small_spec(snr_db_list=(10.0,), m_list=(4,), trials=4,
                                     modes=("pseudo-inverse",), baseline=False,
                                     workers=2))
    assert serial == again
    assert rows_to_csv(serial) == rows_to_csv(parallel)


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
    row = SweepRow(10.0, 4, 0, "ideal", 1 / 3, 0.5, 44, 7)
    text = rows_to_csv([row])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "snr_db,m,trial,mode,nmse,subspace_dist,channel_uses,seed"
    assert lines[1] == "10,4,0,ideal,0.33333333333333331,0.5,44,7"
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
    assert read_config(path) == {"nr": "8", "snr_db": "0, 10", "trials": "5"}


def test_config_rejects_lines_without_assignment(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nr = 8\njust words\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        read_config(path)


# -------------------------------------------------------------------- checks


def test_builtin_checks_all_pass():
    results = run_checks(seed=0)
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
    monkeypatch.setattr(cli, "two_stage_estimate", _raise(AssertionError))
    captured = _usage_error(capsys, ["estimate", "--nr", "8", "--nt", "16", "--paths",
                                     "2", "--nrf", "2", "--m", "4", "--snr-db", snr_db],
                            f"SNR {float(snr_db)} dB gives no finite")
    assert captured.out == ""


def test_cli_estimate_rejects_fewer_sounded_columns_than_paths(capsys):
    _usage_error(capsys, ["estimate", "--paths", "4", "--m", "2"],
                 re.escape("m=2 must satisfy 4 <= m <= 128"))


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
    cli._print_report(rep, expected)
    assert capsys.readouterr().out == expected.getvalue()


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
