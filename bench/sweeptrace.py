"""Per-function spans around the twostage modules, installed from outside.

The package imports functions by name (``from .numkit import
as_complex_matrix``), so a function has to be wrapped under every name it is
bound to: in its defining module and in each module that imported it. A
wrapper records one span per call and keeps three numbers per function in
memory: calls, total time, and self time (total minus the time of the child
spans it encloses).

Pool workers started by fork inherit the wrappers. Each one sends its totals
back through a spool file that it rewrites after every task; the parent merges
and deletes the files after each sweep.
"""

from __future__ import annotations

import importlib
import json
import os
from pathlib import Path
from time import perf_counter_ns

# (defining module, name): every function whose spans the trace reports
TRACED = (
    ("cli", "main"),
    ("harness", "run_sweep"),
    ("harness", "_trial_rows"),
    ("harness", "write_rows"),
    ("harness", "summarize"),
    ("channel", "generate_channel"),
    ("pipeline", "two_stage_estimate"),
    ("pipeline", "full_observation_baseline"),
    ("pipeline", "nmse"),
    ("sounding", "sound_columns_stage1"),
    ("sounding", "invert_combiner"),
    ("subspace", "estimate_stage1"),
    ("subspace", "column_basis"),
    ("subspace", "subspace_distance"),
    ("stage2", "estimate_remaining"),
    ("stage2", "build_dictionary"),
    ("stage2", "design_sounder_omp"),
    ("stage2", "sound_and_recover_column"),
    ("numkit", "as_complex_matrix"),
    ("numkit", "RngState"),
    ("numkit", "svd"),
    ("numkit", "truncate_rank"),
    ("numkit", "spectral_norm"),
    ("numkit", "min_norm_solve"),
    ("numkit", "sample_complex_gaussian"),
)

MODULES = ("cli", "harness", "channel", "pipeline", "sounding", "subspace",
           "stage2", "numkit")

PACKAGE = "twostage"


def span_names():
    return [f"{module}.{name}" for module, name in TRACED]


class Tracer:
    """Span totals for the traced functions of one process, plus its workers."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.owner_pid = os.getpid()
        self.stack = []  # time spent in children, one slot per open span
        self.stats = {key: [0, 0, 0] for key in span_names()}  # calls, total, self
        self.worker_pid = None  # set in a pool worker by its first task
        self._patched = []  # (module, attribute, original)
        self._task = None

    def wrap(self, fn, key):
        stack = self.stack
        stat = self.stats[key]

        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter_ns() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += spent
                stat[2] += spent - child
                if stack:
                    stack[-1] += spent

        return traced

    def install(self):
        """Wrap every binding of every traced function that exists."""
        originals = {}
        for module, name in TRACED:
            defining = importlib.import_module(f"{PACKAGE}.{module}")
            if hasattr(defining, name):
                originals[id(getattr(defining, name))] = f"{module}.{name}"
        for module in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            for attr, value in list(vars(mod).items()):
                key = originals.get(id(value))
                if key is not None:
                    self._patch(mod, attr, self.wrap(value, key))
        harness = importlib.import_module(f"{PACKAGE}.harness")
        if hasattr(harness, "_trial_rows_star"):
            self._task = harness._trial_rows_star
            self._patch(harness, "_trial_rows_star", pool_task)
        global _ACTIVE
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        _ACTIVE = None

    def _patch(self, mod, attr, value):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def reset(self):
        self.stack.clear()
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]

    def _spool_worker_totals(self):
        path = self.spool_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.stats))
        os.replace(tmp, path)

    def collect_workers(self):
        """Merge and delete the workers' spool files; returns how many there were."""
        paths = sorted(self.spool_dir.glob("spans-*.json"))
        for path in paths:
            for key, (calls, total, own) in json.loads(path.read_text()).items():
                stat = self.stats[key]
                stat[0] += calls
                stat[1] += total
                stat[2] += own
            path.unlink()
        return len(paths)


_ACTIVE = None


def pool_task(args):
    """Stand-in for ``harness._trial_rows_star`` that reports worker spans.

    A module-level function so the pool can pickle it by name. In a forked
    worker the inherited totals and open spans belong to the parent, so the
    first task clears them.
    """
    tracer = _ACTIVE
    if os.getpid() == tracer.owner_pid:
        return tracer._task(args)
    if tracer.worker_pid != os.getpid():
        tracer.worker_pid = os.getpid()
        tracer.reset()
    rows = tracer._task(args)
    tracer._spool_worker_totals()
    return rows
