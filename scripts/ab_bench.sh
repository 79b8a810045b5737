#!/usr/bin/env bash
#
# Interleaved A/B of nomap_bench: a base revision against this checkout.
#
# Usage: scripts/ab_bench.sh <base-rev> <workload> [pairs] [seconds]
#
#   base-rev  any git revision (commit, tag, branch, HEAD~1)
#   workload  paper-suite | paper-suite-jit | cold-start | serve
#   pairs     runs per side (default 6)
#   seconds   --seconds of each run (default 8)
#
# Exports <base-rev> with `git archive` into a separate tree, builds
# nomap_bench there and in this checkout with the flags
# nomap_bench/run.py uses (RelWithDebInfo, the nomap_bench.cmake
# project hook), then runs the two binaries alternately, swapping
# which goes first every pair so neither side always runs on a
# warmer or quieter host. For each end-to-end metric in
# BENCHMARK.json it prints each side's median and quartiles, the ratio
# of the medians (change/base) and how many pairs the change won in
# the metric's better direction.
#
# Report only: it judges nothing against the bounds. It exits nonzero
# only when a run reports "correct": false (or a build fails).
#
# Trees, builds and per-run JSON live under
# ${CARGO_TARGET_DIR:-.bench_build}/ab/ (relative to the repository
# root unless absolute), next to run.py's own build.

set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    sed -n '3,10p' "$0" >&2
    exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BASE_REV="$1"
WORKLOAD="$2"
PAIRS="${3:-6}"
SECONDS_PER_RUN="${4:-8}"
SEED=1

TARGET="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$TARGET" = /* ]] || TARGET="$ROOT/$TARGET"
WORK="$TARGET/ab"
BASE_SRC="$WORK/base-src"
BASE_BUILD="$WORK/base"
HEAD_BUILD="$WORK/head"
OUT="$WORK/out"

base_sha="$(git -C "$ROOT" rev-parse --verify "$BASE_REV^{commit}")"

# A new base revision gets a fresh tree and build: git archive stamps
# every file with the commit time, which need not be newer than the
# objects an earlier base left behind.
mkdir -p "$WORK"
if [[ "$(cat "$WORK/base.rev" 2>/dev/null)" != "$base_sha" ]]; then
    rm -rf "$BASE_SRC" "$BASE_BUILD"
    mkdir -p "$BASE_SRC"
    git -C "$ROOT" archive --format=tar "$base_sha" | tar -x -C "$BASE_SRC"
    echo "$base_sha" > "$WORK/base.rev"
fi

build() {
    local src="$1" dir="$2"
    if [[ ! -f "$dir/CMakeCache.txt" ]]; then
        cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            "-DCMAKE_PROJECT_nomap_INCLUDE=$src/nomap_bench/nomap_bench.cmake" \
            >&2
    fi
    cmake --build "$dir" -j4 --target nomap_bench >&2
}

echo "ab_bench: building base ${base_sha:0:12}" >&2
build "$BASE_SRC" "$BASE_BUILD"
echo "ab_bench: building this checkout" >&2
build "$ROOT" "$HEAD_BUILD"

rm -rf "$OUT"
mkdir -p "$OUT/base" "$OUT/head"

run_side() {
    local side="$1" pair="$2" bin
    if [[ "$side" == base ]]; then
        bin="$BASE_BUILD/nomap_bench/nomap_bench"
    else
        bin="$HEAD_BUILD/nomap_bench/nomap_bench"
    fi
    # A failed check still prints its JSON line; the summary reads it.
    "$bin" "--workload=$WORKLOAD" "--seed=$SEED" \
        "--seconds=$SECONDS_PER_RUN" "--out-dir=$OUT/$side" \
        > "$OUT/$side/run.$pair.log" 2>&1 || true
    tail -n 1 "$OUT/$side/run.$pair.log" > "$OUT/$side/result.$pair.json"
    echo "ab_bench: pair $pair $side done" >&2
}

for ((pair = 1; pair <= PAIRS; ++pair)); do
    if ((pair % 2)); then
        run_side base "$pair"
        run_side head "$pair"
    else
        run_side head "$pair"
        run_side base "$pair"
    fi
done

python3 - "$ROOT/BENCHMARK.json" "$OUT" "$PAIRS" "$WORKLOAD" \
    "${base_sha:0:12}" <<'PY'
import json
import statistics
import sys

spec_path, out, pairs, workload, base = sys.argv[1:]
pairs = int(pairs)
with open(spec_path) as f:
    spec = json.load(f)


def load(side, pair):
    path = f"{out}/{side}/result.{pair}.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {"correct": False, "metrics": {}}


runs = {side: [load(side, p) for p in range(1, pairs + 1)]
        for side in ("base", "head")}
incorrect = [f"{side} pair {i + 1}"
             for side, results in runs.items()
             for i, r in enumerate(results) if r.get("correct") is not True]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


print(f"ab_bench: {workload}, base {base} vs this checkout, "
      f"{pairs} interleaved pairs")
print("median [q1, q3] per side; ratio = change/base of the medians; wins =")
print("pairs where the change beat the base in the metric's better direction")
print(f"{'metric':<12} {'base':>30} {'change':>30} {'ratio':>6} {'wins':>6}")
for metric in spec["end_to_end"]:
    name = metric["name"]
    values = {side: [r["metrics"].get(name, {}).get("value")
                     for r in results]
              for side, results in runs.items()}
    paired = [(b, h) for b, h in zip(values["base"], values["head"])
              if b is not None and h is not None]
    if not paired:
        print(f"{name:<12} {'-':>30} {'-':>30} {'-':>6} {'-':>6}")
        continue
    base_vals = [b for b, _ in paired]
    head_vals = [h for _, h in paired]
    base_med = statistics.median(base_vals)
    lower = metric["better"] == "lower"
    wins = sum(1 for b, h in paired if (h < b if lower else h > b))
    ratio = (statistics.median(head_vals) / base_med if base_med
             else float("nan"))
    print(f"{name:<12} {describe(base_vals):>30} {describe(head_vals):>30} "
          f"{ratio:>6.3f} {wins:>3}/{len(paired)}")
if incorrect:
    print("ab_bench: correct=false in " + ", ".join(incorrect))
    sys.exit(1)
PY
