#!/usr/bin/env bash
# Builds the benchmarks in Release mode and produces four JSON reports:
#
#   BENCH_hotpath.json  micro_hotpath google-benchmark results
#                       (indexed vs forced full scan, seed and Table 2
#                       geometries; zero-event fast path off vs on on
#                       the hit-dominated stream) plus end-to-end
#                       fig8_speedup timings.
#   BENCH_scaling.json  ext_directory_scaling cores x fabric sweep
#                       (snoop bus vs directory, 2-32 simulated cores);
#                       the run fails if the directory fabric is not
#                       at least as fast as the bus from 8 cores up.
#   BENCH_modes.json    ext_mode_crossover commit-mode sweep (full
#                       HMTX with unbounded sets vs best-effort HTM
#                       with the serialized fallback, rising stores
#                       per transaction on both fabrics); the run
#                       fails if no crossover exists on either fabric.
#   BENCH_serving.json  ext_kv_serving open-loop KV/OLTP serving sweep
#                       (1.2M requests: modes x fabrics x Zipf skew x
#                       write mix with streaming p50/p99/p999) plus
#                       the streaming-vs-naive host-throughput profile
#                       ci/check.sh gates against; the run fails if no
#                       cell shows best-effort degrading p999 >= 1.2x
#                       vs lazy HMTX.
#
# Run from the repository root:
#
#   bench/run_bench.sh [build-dir] [hotpath.json] [scaling.json]
#                      [modes.json] [serving.json]
#
# A smoke ctest (bench_hotpath_smoke) asserting indexed/full-scan
# behavioural identity runs as part of the normal test suite; this
# script is the measurement companion.

set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build-release"}
OUT=${2:-"$ROOT/BENCH_hotpath.json"}
SCALING_OUT=${3:-"$ROOT/BENCH_scaling.json"}
MODES_OUT=${4:-"$ROOT/BENCH_modes.json"}
SERVING_OUT=${5:-"$ROOT/BENCH_serving.json"}
RUNS=${FIG8_RUNS:-3}

# Configure through the release preset so the benchmark binaries get
# the same flags as CI; a custom build dir falls back to an explicit
# Release configure. Either way micro_hotpath bakes in its build type
# and the JSON gate below rejects anything but "Release" — a debug
# binary here once produced plausible-looking but 10x-slow baselines.
if [[ "$BUILD" == "$ROOT/build-release" ]]; then
    (cd "$ROOT" && cmake --preset release)
else
    cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" -j \
    --target micro_hotpath fig8_speedup ext_directory_scaling \
    ext_mode_crossover ext_kv_serving

echo "== ext_directory_scaling (cores x fabric sweep) =="
"$BUILD/bench/ext_directory_scaling" "$SCALING_OUT"

echo "== ext_mode_crossover (commit-mode write-set sweep) =="
"$BUILD/bench/ext_mode_crossover" "$MODES_OUT"

echo "== ext_kv_serving (open-loop serving sweep, 1.2M requests) =="
"$BUILD/bench/ext_kv_serving" "$SERVING_OUT"

echo "== micro_hotpath smoke (behavioural identity + speedup bound) =="
"$BUILD/bench/micro_hotpath" --smoke

# Five repetitions: ci/check.sh gates the median aggregate, and only
# when this host's fingerprint (CPU count, MHz, caches) matches.
echo "== micro_hotpath =="
MICRO_JSON=$(mktemp)
"$BUILD/bench/micro_hotpath" \
    --benchmark_out="$MICRO_JSON" --benchmark_out_format=json \
    --benchmark_min_time=0.2 --benchmark_repetitions=5

echo "== fig8_speedup (best of $RUNS, user CPU seconds) =="
FIG8_TIMES=()
for _ in $(seq "$RUNS"); do
    t0=$(date +%s%N)
    "$BUILD/bench/fig8_speedup" > /dev/null
    t1=$(date +%s%N)
    FIG8_TIMES+=($(((t1 - t0) / 1000000)))
done
printf 'fig8_speedup wall ms: %s\n' "${FIG8_TIMES[*]}"

python3 - "$MICRO_JSON" "$OUT" "${FIG8_TIMES[@]}" <<'EOF'
import json
import sys

micro_path, out_path, *times = sys.argv[1:]
with open(micro_path) as f:
    micro = json.load(f)

# Never record debug-build timings: micro_hotpath exports the build
# type of this tree (the library's own "library_build_type" context
# field describes the system libbenchmark, not us).
build_type = micro.get("context", {}).get("hmtx_build_type")
if build_type != "Release":
    sys.exit(f"FATAL: micro_hotpath built as {build_type!r}, "
             "expected 'Release'; refusing to write baselines")

# Summarize the indexed vs full-scan ratios at Table 2 geometry
# (benchmark args are /<table2>/<fullscan>), on the median of the
# repetitions.
by_name = {b["run_name"]: b["real_time"]
           for b in micro.get("benchmarks", [])
           if b.get("aggregate_name") == "median"}
ratios = {}
for op in ("BM_AbortAll", "BM_VidReset", "BM_EagerCommit"):
    idx = by_name.get(f"{op}/1/0")
    full = by_name.get(f"{op}/1/1")
    if idx and full:
        ratios[op] = round(full / idx, 1)

# Zero-event fast path (DESIGN.md section 13): per-access speedup of
# the hit-dominated stream with the fast path on vs off. ci/check.sh
# gates this at >= 1.20x on every release run.
fp_off = by_name.get("BM_HitFastPath/0")
fp_on = by_name.get("BM_HitFastPath/1")
fastpath = round(fp_off / fp_on, 2) if fp_off and fp_on else None

out = {
    "fig8_wall_ms": [int(t) for t in times],
    "fig8_best_ms": min(int(t) for t in times),
    "table2_index_speedups": ratios,
    "fastpath_hit_speedup": fastpath,
    "micro_hotpath": micro,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=1)
print(f"wrote {out_path}")
print(f"Table 2 indexed-vs-fullscan speedups: {ratios}")
EOF
