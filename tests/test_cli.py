"""The command line front end: ``twostage estimate`` and ``twostage sweep``."""

import os
import sys

import numpy as np
import pytest

from twostage import cli
from twostage.cli import main

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
