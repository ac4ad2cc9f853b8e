"""Pin the cell means the correctness gate compares against.

    python3 bench/pin.py

Runs every workload's sweep once for each pinned program seed and writes
reference.json. Run it only when the program is meant to compute different
numbers, and say so in the change that does it.
"""

import io
import json
import contextlib
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import run


def main():
    cli = run.import_cli()
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                         capture_output=True, text=True).stdout.strip() or None
    pinned = {"pinned_at": sha, "rel_tol": gate.REL_TOL, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as work_dir:
        out = Path(work_dir) / "sweep.csv"
        for name, workload in run.WORKLOADS.items():
            seeds = {}
            for seed in range(run.PINNED_SEEDS):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(run.sweep_argv(workload, seed, out))
                rows = gate.parse_rows(out.read_text())
                if code != 0 or len(rows) != workload.rows_per_sweep or gate.error_rows(rows):
                    sys.exit(f"pin: {name} seed {seed} did not give a clean full grid")
                seeds[str(seed)] = gate.cell_means(rows)
            pinned["workloads"][name] = {"trials": workload.trials, "seeds": seeds}
            print(f"pinned {name}: {len(seeds)} seeds x {len(seeds['0'])} cells")
    gate.REFERENCE_PATH.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
