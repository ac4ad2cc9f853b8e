"""The command line front end: ``twostage estimate`` and ``twostage sweep``."""

import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twostage import cli, harness
from twostage.channel import SystemConfig, generate_channel
from twostage.cli import build_parser, main
from twostage.harness import CSV_HEADER, SweepSpec
from twostage.numkit import RngState
from twostage.pipeline import full_observation_baseline, two_stage_estimate

ROOT = Path(__file__).resolve().parents[1]

_CONFIG = "sweep --config {tmp}/sweep.cfg"

# argv, the text of {tmp}/sweep.cfg (None writes no file) and the error message;
# {tmp} stands for the test's directory
_REJECTED = [
    pytest.param(_CONFIG, "bogus = 1", "{tmp}/sweep.cfg:1: unknown config key 'bogus'",
                 id="config-unknown-key"),
    pytest.param(_CONFIG, "snr = 0", "{tmp}/sweep.cfg:1: unknown config key 'snr'",
                 id="config-abbreviated-key"),
    pytest.param(_CONFIG, "m = 4\nm = 8", "{tmp}/sweep.cfg:2: repeated key 'm'",
                 id="config-repeated-key"),
    pytest.param(_CONFIG, "snr-db = 0\nsnr_db = 10",
                 "{tmp}/sweep.cfg:2: repeated key 'snr_db'",
                 id="config-key-in-two-spellings"),
    pytest.param(_CONFIG, "nr = 8\njust words",
                 "{tmp}/sweep.cfg:2: expected 'key = value', got 'just words'",
                 id="config-line-without-assignment"),
    pytest.param("sweep --config {tmp}/missing.cfg", None,
                 "--config {tmp}/missing.cfg: No such file or directory",
                 id="config-missing-path"),
    pytest.param("sweep --config {tmp}", None, "--config {tmp}: Is a directory",
                 id="config-path-is-a-directory"),
    pytest.param(_CONFIG, "trials = many", "argument --trials", id="config-trials-many"),
    pytest.param(_CONFIG, "mode = bogus", "argument --mode", id="config-mode-bogus"),
    pytest.param(_CONFIG, "baseline = maybe", "argument --baseline",
                 id="config-baseline-maybe"),
    pytest.param("sweep --snr-db 10 10", None, "snr_db_list repeats 10.0",
                 id="sweep-repeated-snr"),
    pytest.param("sweep --snr-db nan --out {tmp}/rows.csv", None,
                 "SNR nan dB gives no finite noise variance", id="sweep-nan-snr"),
    pytest.param("sweep --snr-db -4000 --out {tmp}/rows.csv", None,
                 "SNR -4000.0 dB gives no finite noise variance",
                 id="sweep-overflowing-snr"),
    pytest.param("sweep --out {tmp}/no/dir/rows.csv", None,
                 "--out {tmp}/no/dir/rows.csv is not a file in an existing directory",
                 id="sweep-out-in-a-missing-directory"),
    pytest.param("sweep --out {tmp}", None,
                 "--out {tmp} is not a file in an existing directory",
                 id="sweep-out-is-a-directory"),
    pytest.param("sweep --seed -1", None, "seed must be non-negative",
                 id="sweep-negative-seed"),
    pytest.param("estimate --snr-db nan", None,
                 "SNR nan dB gives no finite noise variance", id="estimate-nan-snr"),
    pytest.param("estimate --snr-db -4000", None,
                 "SNR -4000.0 dB gives no finite noise variance",
                 id="estimate-overflowing-snr"),
    pytest.param("estimate --paths 4 --m 2", None, "m=2 must satisfy 4 <= m <= 128",
                 id="estimate-fewer-columns-than-paths"),
    pytest.param("estimate --seed -1", None, "seed must be non-negative",
                 id="estimate-negative-seed"),
]


@pytest.mark.parametrize("argv, config, message", _REJECTED)
def test_a_rejected_setting_exits_2_before_any_draw(tmp_path, monkeypatch, capsys, argv,
                                                    config, message):
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config + "\n")
    files = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(np.random, "Philox", lambda seq: pytest.fail("a stream drew"))
    monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("the sweep ran"))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv.split()])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    last = err.splitlines()[-1]
    message = message.format(tmp=tmp_path)
    if message.startswith("argument --"):  # argparse's wording after the flag varies
        assert last.startswith(f"twostage sweep: error: {message}"), err
    else:
        assert last == f"twostage: error: {message}", err
    assert sorted(tmp_path.rglob("*")) == files  # nothing written, at --out or elsewhere


def test_a_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    # stdout is a pipe whose read end is closed, never fd 1, so the flush in
    # main fails with EPIPE and the redirect to devnull lands on the pipe
    opened, os_open = [], os.open

    def recording_open(*args):
        opened.append(os_open(*args))
        return opened[-1]

    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        patch.setattr(os, "open", recording_open)
        assert main(["estimate"]) == 1
    assert opened
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)

def _raise(exc_type):
    def estimator(*args, **kwargs):
        raise exc_type("injected")
    return estimator


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


@pytest.mark.parametrize("argv", [
    ["estimate", "--seed", "3", "--baseline"],
    ["sweep", "--nr", "8", "--nt", "16", "--paths", "2", "--nrf", "2", "--m", "4",
     "--snr-db", "10", "--trials", "2", "--workers", "2"],
], ids=["estimate", "sweep"])
def test_cli_exits_quietly_when_the_reader_closed_the_pipe(argv):
    # the read end is closed before the run, so the first write to stdout
    # fails with EPIPE, whether stdout is block-buffered or unbuffered
    for unbuffered in ("", "1"):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "twostage.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


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
    rep = two_stage_estimate(real, cfg, 8, 0.1, RngState(3).split(1))
    floor = full_observation_baseline(real, 0.1, RngState(3).split(999))
    expected = io.StringIO()
    cli._print_report(rep, 3, expected)
    expected.write("\n")
    cli._print_report(floor, 3, expected)
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
    # comments, blank lines, a key's case and the spaces around '=' do not count
    cfg = tmp_path / "every.cfg"
    cfg.write_text("# every setting\n\n"
                   + "".join(f"{key} = {value.replace(' ', ', ')}   # {key}\n"
                             for key, value in _EVERY_SETTING) + "BASELINE=no\n")
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
    assert "wrote 2 rows" in capsys.readouterr().out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


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
