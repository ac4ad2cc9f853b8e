"""Importing twostage pins BLAS to one thread unless the variable is already set."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# prints the three variables after the import, then the process's thread count
# after a matmul large enough for a threaded BLAS to fan out ("-" off Linux)
_PROBE = """
import os, sys
import twostage
import numpy as np
a = np.ones((256, 256), dtype=complex)
(a @ a).sum()
print(*(os.environ.get(v, "unset") for v in {variables!r}))
print(len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else "-")
"""


def _probe(**preset):
    """(variables after ``import twostage``, thread count) in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(variables=BLAS_VARIABLES)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    variables, threads = proc.stdout.splitlines()
    return variables.split(), threads


def test_import_pins_blas_to_one_thread():
    variables, threads = _probe()
    assert variables == ["1", "1", "1"]
    if sys.platform.startswith("linux"):
        assert threads == "1"


def test_an_explicit_blas_setting_survives_the_import():
    variables, _ = _probe(OPENBLAS_NUM_THREADS="2")
    assert variables == ["2", "1", "1"]
