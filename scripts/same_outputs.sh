#!/usr/bin/env bash
# Byte-identity check against another revision: this tree must write the same
# sweep CSVs and print the same estimates as REV, byte for byte.
#
#   scripts/same_outputs.sh REV      # for example: scripts/same_outputs.sh HEAD~1
#
# REV goes into a temporary git worktree. In each tree, every benchmark
# workload's sweep flags are read from that tree's bench/run.py, as the CI step
# does, and run at --trials 2 with --workers 1, 2 and 3 and --seed 0 and 5; then
# `estimate --seed 3 --baseline` runs in each recovery mode. Every output is
# cmp'd against REV's, the script exits non-zero at the first difference, and the
# worktree is removed either way. Set TMPDIR to put the scratch files elsewhere.
set -euo pipefail

rev=${1:?usage: scripts/same_outputs.sh REV}
here=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
    git -C "$here" worktree remove --force "$tmp/tree" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$here" worktree add --quiet --detach "$tmp/tree" "$rev"
export PYTHONDONTWRITEBYTECODE=1

cli() {  # cli TREE ARGS...: the twostage CLI of TREE's src
    (cd "$1" && PYTHONPATH="$1/src" python3 -m twostage.cli "${@:2}")
}

workloads() {  # one line per workload in TREE's bench/run.py: its name, then its flags
    python3 - "$1/bench" <<'EOF'
import sys
sys.path.insert(0, sys.argv[1])
import run
for workload in run.WORKLOADS.values():
    print(workload.name, *workload.flags)
EOF
}

outputs() {  # outputs TREE DIR: every output of TREE, one file each in DIR
    mkdir -p "$2"
    workloads "$1" > "$2.workloads"
    # the --workers given after a workload's flags overrides its own
    while read -r name flags; do
        for seed in 0 5; do
            for workers in 1 2 3; do
                cli "$1" sweep $flags --trials 2 --workers "$workers" --seed "$seed" \
                    --out "$2/$name-seed$seed-workers$workers.csv" > /dev/null
            done
        done
    done < "$2.workloads"
    for mode in pseudo-inverse paper-literal ideal; do
        cli "$1" estimate --seed 3 --baseline --mode "$mode" > "$2/estimate-$mode.txt"
    done
}

outputs "$tmp/tree" "$tmp/rev"
outputs "$here" "$tmp/here"
diff <(ls "$tmp/rev") <(ls "$tmp/here")
for path in "$tmp/here"/*; do
    cmp "$tmp/rev/${path##*/}" "$path"
done
echo "same outputs as $rev: $(ls "$tmp/here" | wc -l) files"
