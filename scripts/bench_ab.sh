#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark between two revisions.
#
#   scripts/bench_ab.sh BASE HEAD [--workload W[,W...]] [--pairs N] [--seconds S]
#
# BASE and HEAD are git revisions; WORKTREE stands for the checkout as it
# is now (tracked and staged files, uncommitted edits included; with any
# untracked file present it refuses, exit 2). Each is exported with
# `git archive` into its own tree in a new directory under $TMPDIR
# (default /tmp) and built through its own `perfbench/run.sh` into its
# own CARGO_TARGET_DIR, so the two builds share nothing.
#
# For every workload (default: all in HEAD's BENCHMARK.json) the script
# runs N pairs (default 10) of `--trace 0` runs of S seconds (default 30).
# Both runs of a pair use the same seed, a fresh one per pair (taken from
# the clock, then counting up), and pairs alternate which revision goes
# first, so slow drift of the host lands on both sides. It prints each
# pair's end-to-end metrics, per metric the medians and the interquartile
# range of both sides, the median change and the number of pairs HEAD
# won, then the host block of the runs. Run records stay in the
# directory it names. It exits 1 if any run is not correct or has failed
# ops, 2 on bad usage or untracked files.
set -euo pipefail

usage() {
    sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
base_rev=$1
head_rev=$2
shift 2
workloads=""
pairs=10
seconds=30
seed=$(( $(date +%s) % 1000000 ))
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) workloads=${2//,/ } ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        *) usage ;;
    esac
    shift 2
done
for n in "$pairs" "$seconds"; do
    [[ $n =~ ^[0-9]+$ ]] || usage
done
[ "$pairs" -ge 1 ] || usage

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
dir=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
echo "bench_ab: working in $dir" >&2

# Export one revision into "$dir/$side"; WORKTREE snapshots the checkout
# through `git stash create`, which records it without touching it.
export_rev() {
    local side=$1 rev=$2 commit
    if [ "$rev" = WORKTREE ]; then
        # `git stash create` leaves untracked files out, so the snapshot
        # would silently differ from the checkout.
        if git -C "$repo" status --porcelain | grep -q '^??'; then
            git -C "$repo" status --porcelain | grep '^??' >&2
            echo "bench_ab: untracked files above are not in a WORKTREE snapshot; git add (or remove) them first" >&2
            exit 2
        fi
        commit=$(git -C "$repo" stash create)
        commit=${commit:-$(git -C "$repo" rev-parse HEAD)}
    else
        commit=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
    fi
    mkdir "$dir/$side"
    git -C "$repo" archive "$commit" | tar -x -C "$dir/$side"
    # On stdout: the exported trees have no .git, so the runs' own
    # provenance cannot name the revision.
    echo "$side: $rev = $commit"
}

# Run perfbench of one side; all further arguments go to perfbench.
bench() {
    local side=$1
    shift
    (cd "$dir/$side" && CARGO_TARGET_DIR="$dir/target-$side" bash perfbench/run.sh "$@")
}

export_rev base "$base_rev"
export_rev head "$head_rev"
for side in base head; do
    echo "building $side" >&2
    # The binary answers bare usage with exit 2; only a missing binary
    # means the build failed.
    bench "$side" >"$dir/build-$side.log" 2>&1 || true
    if [ ! -x "$dir/target-$side/release/perfbench" ]; then
        cat "$dir/build-$side.log" >&2
        echo "bench_ab: $side did not build" >&2
        exit 1
    fi
done

if [ -z "$workloads" ]; then
    workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$dir/head/BENCHMARK.json")
fi

runs="$dir/runs"
mkdir -p "$runs"
for w in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        s=$((seed + i))
        if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
        for side in $order; do
            echo "$w pair $((i + 1))/$pairs seed $s: $side" >&2
            bench "$side" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
                >"$runs/$w-$i-$side.out" 2>"$runs/$w-$i-$side.err" || true
        done
        echo "$order" >"$runs/$w-$i.order"
    done
done

python3 - "$dir/head/BENCHMARK.json" "$runs" "$pairs" "$seed" $workloads <<'PY'
import json
import statistics
import sys

spec_path, runs, pairs, seed, *workloads = sys.argv[1:]
pairs, seed = int(pairs), int(seed)
spec = json.load(open(spec_path))
metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]


def load(w, i, side):
    """(provenance, result) of one run; None for a run without output."""
    path = f"{runs}/{w}-{i}-{side}.out"
    try:
        lines = [l for l in open(path).read().splitlines() if l.strip()]
        return json.loads(lines[0])["provenance"], json.loads(lines[-1])
    except (OSError, IndexError, KeyError, ValueError):
        return None, None


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


bad = []
host = None
for w in workloads:
    print(f"\n== {w}: {pairs} pairs, seeds {seed}..{seed + pairs - 1}")
    print(f"{'pair':>4} {'side':>4} {'ran':>5} " + " ".join(f"{n:>19}" for n, _ in metrics))
    vals = {side: {n: [] for n, _ in metrics} for side in ("base", "head")}
    wins = {n: 0 for n, _ in metrics}
    for i in range(pairs):
        order = open(f"{runs}/{w}-{i}.order").read().split()
        row = {}
        for side in ("base", "head"):
            prov, res = load(w, i, side)
            if res is None or not res.get("correct") or res.get("failed", 1) != 0:
                bad.append(f"{w} pair {i + 1} {side}: " + (
                    "no result" if res is None
                    else f"correct={res.get('correct')} failed={res.get('failed')}"))
                continue
            host = host or prov
            row[side] = {n: res["metrics"][n]["value"] for n, _ in metrics}
            ran = "first" if order[0] == side else "2nd"
            print(f"{i + 1:>4} {side:>4} {ran:>5} "
                  + " ".join(f"{row[side][n]:>19.6g}" for n, _ in metrics))
        if len(row) < 2:
            continue
        for n, better in metrics:
            b, h = row["base"][n], row["head"][n]
            vals["base"][n].append(b)
            vals["head"][n].append(h)
            if (h > b) if better == "higher" else (h < b):
                wins[n] += 1
    done = len(vals["base"][metrics[0][0]])
    if done == 0:
        continue
    print(f"{'metric':>20} {'better':>6} {'base median':>12} {'base IQR':>21} "
          f"{'head median':>12} {'head IQR':>21} {'change':>8} {'head wins':>9}")
    for n, better in metrics:
        b, h = vals["base"][n], vals["head"][n]
        mb, mh = statistics.median(b), statistics.median(h)
        qb, qh = quartiles(b), quartiles(h)
        change = (mh - mb) / mb * 100 if mb else 0.0
        print(f"{n:>20} {better:>6} {mb:>12.4g} {qb[0]:>10.4g}-{qb[1]:<10.4g} "
              f"{mh:>12.4g} {qh[0]:>10.4g}-{qh[1]:<10.4g} {change:>+7.1f}% {wins[n]:>5}/{done}")

if host:
    print("\nhost: " + ", ".join(f"{k}={host[k]}" for k in ("nproc", "cpu", "rustc", "profile")))
for b in bad:
    print("FAILED RUN: " + b)
sys.exit(1 if bad else 0)
PY
