"""Correctness gate: the sweep CSV against the grid and the pinned cell means.

``reference.json`` holds, for every workload and every pinned program seed,
the mean NMSE and mean subspace distance of each (snr_db, m, mode) cell, as
the program computed them when the benchmark was defined. ``pin.py`` writes
it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

CSV_HEADER = "snr_db,m,trial,mode,nmse,subspace_dist,channel_uses,seed"
ERROR_TAG = "#error:"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Loose enough for reordered floating-point sums (moves of about 1e-15),
# tight enough that any change to what the estimator computes shows.
REL_TOL = 1e-9


def parse_rows(text):
    """CSV text to a list of (snr_db, m, mode, nmse, dist) tuples, strings kept."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"expected 8 fields, got {line!r}")
        snr, m, _trial, mode, nmse, dist, _uses, _seed = fields
        rows.append((snr, m, mode, float(nmse), float(dist)))
    return rows


def error_rows(rows):
    return sum(1 for row in rows if ERROR_TAG in row[2])


def cell_means(rows):
    """Mean NMSE and mean distance per "snr_db,m,mode" cell, in row order."""
    cells = {}
    for snr, m, mode, nmse, dist in rows:
        cells.setdefault(f"{snr},{m},{mode}", []).append((nmse, dist))
    return {key: [math.fsum(v[0] for v in vals) / len(vals),
                  math.fsum(v[1] for v in vals) / len(vals)]
            for key, vals in cells.items()}


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def check(rows, expected_rows, pinned):
    """Problems found in one sweep's rows; an empty list means it passed."""
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    for snr, m, mode, nmse, dist in rows:
        if ERROR_TAG in mode:
            continue
        if not (math.isfinite(nmse) and math.isfinite(dist)):
            problems.append(f"non-finite metric in cell {snr},{m},{mode}")
        elif not 0.0 <= dist <= 1.0:
            problems.append(f"subspace_dist {dist!r} outside [0, 1] in {snr},{m},{mode}")
    got = cell_means(rows)
    if set(got) != set(pinned):
        missing = sorted(set(pinned) - set(got))
        extra = sorted(set(got) - set(pinned))
        problems.append(f"cells differ: missing {missing[:3]}, unexpected {extra[:3]}")
    for key in sorted(set(got) & set(pinned)):
        for label, value, want in zip(("nmse", "dist"), got[key], pinned[key]):
            if not math.isclose(value, want, rel_tol=REL_TOL):
                problems.append(f"mean {label} of {key} is {value!r}, pinned {want!r}")
    return problems
