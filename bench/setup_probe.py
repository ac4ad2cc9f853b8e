"""Set-up probe: print the monotonic clock when the first trial could start.

Run as ``python3 bench/setup_probe.py sweep <flags>`` in a fresh interpreter.
It imports ``twostage.cli``, replaces the ``run_sweep`` that the CLI calls
with a stop, and runs the CLI, so the time covers interpreter start, the
import, the argument and config parse and the spec build. The caller reads
its own clock before starting the process; both use CLOCK_MONOTONIC.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import twostage.cli as cli  # noqa: E402


class _Ready(Exception):
    pass


def _stop(spec):
    raise _Ready


cli.run_sweep = _stop
try:
    cli.main(sys.argv[1:])
except _Ready:
    print(time.monotonic_ns())
else:
    sys.exit("setup probe: the sweep never reached run_sweep")
