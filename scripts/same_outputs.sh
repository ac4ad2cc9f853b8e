#!/usr/bin/env bash
# Byte-identity check of the program's observable outputs: its sweep CSVs and
# its estimate printouts.
#
#   scripts/same_outputs.sh          # this tree: no worker count or mode list moves a row
#   scripts/same_outputs.sh REV      # that, and every output the same as REV's (e.g. HEAD~1)
#
# A tree's outputs: every benchmark workload's sweep flags, read from that tree's
# bench/run.py, run at --trials 2 with --workers 1, 2 and 3 and --seed 0 and 5
# (3 workers deal a 28-cell grid's 56 trials into uneven slices, and the
# wide-block m = N_t cell runs no stage 2); the modes-parallel flags once more
# with --mode ideal alone, at --seed 0; and `estimate --seed 3 --baseline` in each
# recovery mode. In this tree, the workers-2 and workers-3 CSVs must cmp equal
# to the workers-1 CSV, and the ideal-only CSV must equal the header and ideal
# rows of the three-mode one. With REV, REV goes into a temporary git worktree,
# yields the same set of outputs, and each must cmp equal to this tree's. The
# script exits non-zero at the first difference, and removes the worktree either
# way. Set TMPDIR to put the scratch files elsewhere.
set -euo pipefail

rev=${1:-}
here=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
    [ -z "$rev" ] || git -C "$here" worktree remove --force "$tmp/tree" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
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
    # a --workers or --mode given after a workload's flags overrides its own
    while read -r name flags; do
        for seed in 0 5; do
            for workers in 1 2 3; do
                cli "$1" sweep $flags --trials 2 --workers "$workers" --seed "$seed" \
                    --out "$2/$name-seed$seed-workers$workers.csv" > /dev/null
            done
        done
        if [ "$name" = modes-parallel ]; then
            cli "$1" sweep $flags --trials 2 --seed 0 --mode ideal \
                --out "$2/$name-seed0-ideal.csv" > /dev/null
        fi
    done < "$2.workloads"
    for mode in pseudo-inverse paper-literal ideal; do
        cli "$1" estimate --seed 3 --baseline --mode "$mode" > "$2/estimate-$mode.txt"
    done
}

outputs "$here" "$tmp/here"
for path in "$tmp/here"/*-workers1.csv; do  # no row depends on the worker count
    cmp "$path" "${path%1.csv}2.csv"
    cmp "$path" "${path%1.csv}3.csv"
done
three="$tmp/here/modes-parallel-seed0-workers1.csv"  # nor a mode's rows on the other modes
cmp "$tmp/here/modes-parallel-seed0-ideal.csv" <(head -1 "$three"; grep ,ideal, "$three")
echo "outputs independent of worker count and mode list: $(ls "$tmp/here" | wc -l) files"

[ -n "$rev" ] || exit 0
git -C "$here" worktree add --quiet --detach "$tmp/tree" "$rev"
outputs "$tmp/tree" "$tmp/rev"
diff <(ls "$tmp/rev") <(ls "$tmp/here")
for path in "$tmp/here"/*; do
    cmp "$tmp/rev/${path##*/}" "$path"
done
echo "same outputs as $rev: $(ls "$tmp/here" | wc -l) files"
