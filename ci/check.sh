#!/usr/bin/env bash
# Tier-1 gate: builds and runs the full test suite in the Release
# configuration and again under ASan+UBSan (see CMakePresets.json).
# Run from anywhere:
#
#   ci/check.sh [preset ...]
#
# With no arguments both presets run; pass a subset (e.g. `ci/check.sh
# release`) to iterate faster. Any test failure or sanitizer report
# fails the script.

set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
    PRESETS=(release asan-ubsan)
fi

JOBS=$(nproc 2>/dev/null || echo 4)
cd "$ROOT"

for preset in "${PRESETS[@]}"; do
    echo "==== preset: $preset ===="
    cmake --preset "$preset"
    if [ "$preset" = release ]; then
        # The release build must compile without a single warning. It
        # builds from clean so every translation unit reports, not just
        # the ones an incremental build happens to recompile.
        BUILD_LOG=$(mktemp)
        cmake --build --preset "$preset" -j "$JOBS" --clean-first 2>&1 \
            | tee "$BUILD_LOG"
        if grep -q 'warning:' "$BUILD_LOG"; then
            grep 'warning:' "$BUILD_LOG" >&2
            rm -f "$BUILD_LOG"
            echo "FATAL: the release build printed compiler warnings" >&2
            exit 1
        fi
        rm -f "$BUILD_LOG"
    else
        cmake --build --preset "$preset" -j "$JOBS"
    fi
    # Halt on the first error inside the sanitizer runtime rather
    # than limping on with corrupted state.
    UBSAN_OPTIONS=halt_on_error=1 \
    ASAN_OPTIONS=detect_leaks=1 \
        ctest --preset "$preset" -j "$JOBS"
done

# Golden-model differential fuzzing (DESIGN.md §10): a fixed-seed
# batch beyond what the fuzz_smoke ctest already covered, split across
# the commit-mode cell groups — half the budget runs every cell on one
# schedule, a quarter leans on the best-effort pair and a quarter on
# the limited-set pair (disjoint seed ranges, so the focused batches
# are not a subset of the first). Override FUZZ_SCHEDULES for longer
# campaigns (FUZZ_SCHEDULES=0 skips).
FUZZ_SCHEDULES=${FUZZ_SCHEDULES:-2000}
if printf '%s\n' "${PRESETS[@]}" | grep -qx release \
    && [ "$FUZZ_SCHEDULES" -gt 0 ]; then
    FUZZ_BIN="$ROOT/build-release/tests/fuzz/hmtx_fuzz"
    if [ ! -x "$FUZZ_BIN" ]; then
        echo "FATAL: $FUZZ_BIN missing after the release build" >&2
        exit 1
    fi
    FUZZ_HALF=$((FUZZ_SCHEDULES / 2))
    FUZZ_QUARTER=$((FUZZ_SCHEDULES / 4))
    fuzz_batch() { # <label> <cells> <seed0> <schedules>
        echo "==== fuzz ($1 cells): $4 differential schedules ===="
        if ! "$FUZZ_BIN" --schedules "$4" --ops 160 \
            --cells "$2" --seed0 "$3" \
            --corpus-out "$ROOT/tests/fuzz/corpus"; then
            echo "FATAL: differential fuzzing ($1 cells) diverged;" \
                 "shrunken replay written to tests/fuzz/corpus" \
                 "(rerun with hmtx_fuzz --replay <file>" \
                 "--cells $2)" >&2
            exit 1
        fi
    }
    fuzz_batch all all 1 "$FUZZ_HALF"
    [ "$FUZZ_QUARTER" -gt 0 ] && \
        fuzz_batch best-effort btx 500001 "$FUZZ_QUARTER"
    [ "$FUZZ_QUARTER" -gt 0 ] && \
        fuzz_batch limited-set ltd 600001 "$FUZZ_QUARTER"
    # A small batch from a distinct seed range through the --threads
    # batch mode (worker threads claiming seeds from a shared counter),
    # which must report exactly what a single-threaded campaign would.
    echo "==== fuzz (all cells, --threads 2): 400 differential schedules ===="
    if ! "$FUZZ_BIN" --schedules 400 --ops 120 --seed0 900001 \
        --threads 2 --corpus-out "$ROOT/tests/fuzz/corpus"; then
        echo "FATAL: threaded differential fuzzing diverged; shrunken" \
             "replay written to tests/fuzz/corpus" >&2
        exit 1
    fi
fi

# Bounded-exhaustive model checking (DESIGN.md §14): enumerate every
# interleaving of MC_BUDGET small 2-core programs per cell group and
# replay each through the differential matrix, sleep-set-pruned. A
# divergence writes a flattened witness to tests/fuzz/corpus exactly
# like a fuzz divergence. Override MC_BUDGET for longer campaigns
# (MC_BUDGET=0 skips).
MC_BUDGET=${MC_BUDGET:-300}
if printf '%s\n' "${PRESETS[@]}" | grep -qx release \
    && [ "$MC_BUDGET" -gt 0 ]; then
    MC_BIN="$ROOT/build-release/tests/fuzz/hmtx_mc"
    if [ ! -x "$MC_BIN" ]; then
        echo "FATAL: $MC_BIN missing after the release build" >&2
        exit 1
    fi
    mc_batch() { # <label> <cells> <seed0> <extra args...>
        local label=$1 cells=$2 seed0=$3
        shift 3
        echo "==== model check ($label cells): $MC_BUDGET programs ===="
        if ! "$MC_BIN" --programs "$MC_BUDGET" --cells "$cells" \
            --seed0 "$seed0" --corpus-out "$ROOT/tests/fuzz/corpus" \
            "$@"; then
            echo "FATAL: bounded-exhaustive model checking ($label" \
                 "cells) diverged; shrunken replay written to" \
                 "tests/fuzz/corpus (rerun with hmtx_fuzz --replay" \
                 "<file> --cells $cells)" >&2
            exit 1
        fi
    }
    mc_batch all all 1 --ops 6
    mc_batch best-effort btx 100001 --ops 7
    mc_batch limited-set ltd 200001 --ops 7
    mc_batch delivery-order all 300001 --ops 5 --delivery 3
fi

# Bench smoke + host-speed gates (Release timings only; the sanitizer
# build's numbers are meaningless). Every gate here holds on any host:
# the fast-path gate compares two cells of one process, and the
# perfbench floors compare host rates that perfbench scales to a
# reference speed with its calibration kernel (perfbench/README.md).
# A failing gate is reported at the end, so every gate still gives its
# verdict on the same run.
GATE_FAILED=0
if printf '%s\n' "${PRESETS[@]}" | grep -qx release; then
    echo "==== bench: hot-path smoke + fast-path gate ===="
    cmake --build --preset release -j "$JOBS" --target micro_hotpath
    if ! "$ROOT/build-release/bench/micro_hotpath" --smoke; then
        echo "FATAL: micro_hotpath --smoke failed to run" >&2
        exit 1
    fi
    CI_MICRO_JSON=$(mktemp)
    if ! "$ROOT/build-release/bench/micro_hotpath" \
        --benchmark_filter='BM_HitFastPath' \
        --benchmark_out="$CI_MICRO_JSON" \
        --benchmark_out_format=json --benchmark_min_time=0.2 \
        --benchmark_repetitions=5 > /dev/null; then
        echo "FATAL: micro_hotpath benchmark run failed" >&2
        exit 1
    fi
    # The zero-event hit fast path (DESIGN.md section 13) must keep the
    # hit-dominated stream >= 20% faster than the full per-access walk,
    # on the medians of 5 repetitions.
    if ! python3 - "$CI_MICRO_JSON" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    cur = json.load(f)
if cur.get("context", {}).get("hmtx_build_type") != "Release":
    sys.exit("FATAL: fast-path gate ran on a non-Release build")
med = {b["run_name"]: (b["real_time"], b.get("time_unit", "ns"))
       for b in cur.get("benchmarks", [])
       if b.get("aggregate_name") == "median"}
off, on = med.get("BM_HitFastPath/0"), med.get("BM_HitFastPath/1")
if off is None or on is None:
    sys.exit("FATAL: BM_HitFastPath cells missing from the gated run")
if off[1] != on[1]:
    sys.exit(f"FATAL: BM_HitFastPath time units differ "
             f"({off[1]} vs {on[1]})")
speedup = off[0] / on[0]
print(f"  BM_HitFastPath (median of 5): off {off[0]:.1f}{off[1]}, on "
      f"{on[0]:.1f}{on[1]} ({speedup:.2f}x)")
if speedup < 1.20:
    sys.exit(f"FATAL: fast path only {speedup:.2f}x faster on the "
             "hit-dominated stream (gate: >= 1.20x)")
print("fast-path speedup gate: ok")
EOF
    then
        GATE_FAILED=1
    fi
    rm -f "$CI_MICRO_JSON"

    # Each perfbench workload must run correctly (every pass reproduces
    # its simulated-identity digest and nothing fails) and keep its
    # primary calibrated host rate at or above its floor. The rate is
    # a median over timed passes, and a median of one or two passes is
    # a single sample: a run that times fewer than 3 passes fails the
    # gate. The kv workloads take 2-4.5 s a pass, so they run 15 s.
    # A floor is the median of 5 calibrated runs (seed 1, the gate's
    # --seconds) divided by 1.25, the BENCHMARK.json bound; measured on
    # 2026-10-20 on a 4-vCPU Intel Xeon VM: the kv and check-matrix
    # floors on 3055aec plus the flat CacheSystem bookkeeping tables,
    # the paper-loops floor on eca89fc plus the event heap and MemOp.
    # check-matrix's schedules/s covers the CacheSystem bulk
    # commit/abort/VID-reset walks.
    perf_gate() { # <workload> <metric> <floor> <seconds>
        echo "==== bench: perfbench $1 ($2 >= $3) ===="
        local out
        if ! out=$(python3 "$ROOT/perfbench/run.py" --workload "$1" \
            --seed 1 --seconds "$4" --trace 0); then
            echo "FATAL: perfbench $1 failed to run" >&2
            GATE_FAILED=1
            return
        fi
        if ! python3 - "$1" "$2" "$3" "$out" <<'EOF'
import json
import re
import sys

workload, metric, floor, out = sys.argv[1:]
lines = out.splitlines()
res = json.loads(lines[-1])
rate = res["metrics"][metric]["value"]
passes = 0
for line in lines:
    if line.startswith(f"metric {metric} "):
        m = re.search(r"median of (\d+) passes", line)
        passes = int(m.group(1)) if m else 0
print(f"  {workload}: correct={res['correct']} failed={res['failed']} "
      f"{metric}={rate:.0f} (floor {float(floor):.0f}, median of "
      f"{passes} passes)")
if res["correct"] is not True or res["failed"] != 0:
    sys.exit(f"FATAL: perfbench {workload} did not run correctly")
if passes < 3:
    sys.exit(f"FATAL: perfbench {workload} timed {passes} passes; "
             "its floor needs a median of at least 3")
if rate < float(floor):
    sys.exit(f"FATAL: perfbench {workload} {metric} is below its "
             "floor (> 25% slower than the measured median)")
EOF
        then
            GATE_FAILED=1
        fi
    }
    perf_gate paper-loops host_accesses_per_s 4461693 5   # median 5577117
    perf_gate kv-hot-keys host_requests_per_s 450461 15    # median 563076
    perf_gate kv-scan-writes host_requests_per_s 291271 15 # median 364089
    perf_gate check-matrix host_schedules_per_s 832 5      # median 1041
fi

if [ "$GATE_FAILED" -ne 0 ]; then
    echo "FATAL: a host-speed gate failed (see its report above)" >&2
    exit 1
fi
echo "All presets green."
