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
    cmake --build --preset "$preset" -j "$JOBS"
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

# Bench smoke + hot-path regression gate (Release timings only; the
# sanitizer build's numbers are meaningless). An absolute baseline
# only means something on the host that recorded it, so the gate
# first compares the google-benchmark host fingerprint (CPU count,
# MHz, cache sizes) against BENCH_hotpath.json. On the same host it
# fails on a >25% slowdown of the median of 5 repetitions of the
# indexed Table-2-geometry bulk ops; on a different host it fails
# with "re-baseline here first" and prints both fingerprints. The
# same-process fast-path speedup gate needs no baseline and runs
# either way.
if printf '%s\n' "${PRESETS[@]}" | grep -qx release; then
    if [ ! -f "$ROOT/BENCH_hotpath.json" ]; then
        # A silently skipped gate looks exactly like a passing one in
        # CI logs; a missing baseline must be loud.
        echo "FATAL: BENCH_hotpath.json baseline is missing;" \
             "regenerate it with bench/run_bench.sh (or" \
             "restore the committed copy) — refusing to skip the" \
             "hot-path regression gate" >&2
        exit 1
    fi
    echo "==== bench: commit-mode crossover smoke ===="
    cmake --build --preset release -j "$JOBS" \
        --target ext_mode_crossover
    CI_MODES_JSON=$(mktemp)
    if ! "$ROOT/build-release/bench/ext_mode_crossover" \
        "$CI_MODES_JSON" > /dev/null; then
        echo "FATAL: ext_mode_crossover found no HMTX/best-effort" \
             "crossover (or failed to converge) — the bounded-mode" \
             "capacity behaviour regressed" >&2
        exit 1
    fi
    rm -f "$CI_MODES_JSON"

    echo "==== bench: hot-path regression gate ===="
    cmake --build --preset release -j "$JOBS" --target micro_hotpath
    if ! "$ROOT/build-release/bench/micro_hotpath" --smoke; then
        echo "FATAL: micro_hotpath --smoke failed to run" >&2
        exit 1
    fi
    CI_MICRO_JSON=$(mktemp)
    if ! "$ROOT/build-release/bench/micro_hotpath" \
        --benchmark_filter='BM_(EagerCommit|AbortAll)/1/0|BM_HitFastPath' \
        --benchmark_out="$CI_MICRO_JSON" \
        --benchmark_out_format=json --benchmark_min_time=0.2 \
        --benchmark_repetitions=5; then
        echo "FATAL: micro_hotpath benchmark run failed" >&2
        exit 1
    fi
    # A failure here is reported at the end, so the serving gate
    # below still gives its verdict on the same run.
    if ! python3 - "$CI_MICRO_JSON" "$ROOT/BENCH_hotpath.json" <<'EOF'
import json
import sys

cur_path, base_path = sys.argv[1:]
with open(cur_path) as f:
    cur = json.load(f)
with open(base_path) as f:
    base = json.load(f).get("micro_hotpath", {})

if cur.get("context", {}).get("hmtx_build_type") != "Release":
    sys.exit("FATAL: regression gate ran on a non-Release build")

def fingerprint(report):
    ctx = report.get("context", {})
    return {"num_cpus": ctx.get("num_cpus"),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            "caches": [[c.get("type"), c.get("level"), c.get("size"),
                        c.get("num_sharing")]
                       for c in ctx.get("caches", [])]}

def times(report):
    """Median aggregate per benchmark; a report recorded without
    repetitions contributes its single iteration instead."""
    out = {}
    for b in report.get("benchmarks", []):
        run_type = b.get("run_type", "iteration")
        if run_type == "aggregate" and b.get("aggregate_name") == "median":
            out[b["run_name"]] = (b["real_time"], b.get("time_unit", "ns"))
        elif run_type == "iteration" and b.get("repetitions", 1) == 1:
            out[b["name"]] = (b["real_time"], b.get("time_unit", "ns"))
    return out

cur_t = times(cur)
failures = []

# Fast-path speedup gate (DESIGN.md section 13): the zero-event hit
# fast path must keep the hit-dominated stream >= 20% faster than the
# full per-access walk. Both cells run in this same process, so the
# gate needs no baseline and holds on any host.
off, on = cur_t.get("BM_HitFastPath/0"), cur_t.get("BM_HitFastPath/1")
if off is None or on is None:
    sys.exit("FATAL: BM_HitFastPath cells missing from the gated run")
if off[1] != on[1]:
    sys.exit(f"FATAL: BM_HitFastPath time units differ "
             f"({off[1]} vs {on[1]})")
fp_speedup = off[0] / on[0]
print(f"  BM_HitFastPath (median of 5): off {off[0]:.1f}{off[1]}, on "
      f"{on[0]:.1f}{on[1]} ({fp_speedup:.2f}x)")
if fp_speedup < 1.20:
    failures.append(f"fast path only {fp_speedup:.2f}x faster on the "
                    "hit-dominated stream (gate: >= 1.20x)")
else:
    print("fast-path speedup gate: ok")

cur_fp, base_fp = fingerprint(cur), fingerprint(base)
if cur_fp != base_fp:
    print(f"  this host:          {json.dumps(cur_fp)}")
    print(f"  BENCH_hotpath.json: {json.dumps(base_fp)}")
    failures.append("host fingerprint differs from BENCH_hotpath.json, "
                    "so its timings say nothing about this host; "
                    "re-baseline here first: bench/run_bench.sh")
else:
    base_t = times(base)
    regressed = False
    for name in ("BM_EagerCommit/1/0", "BM_AbortAll/1/0"):
        c, b = cur_t.get(name), base_t.get(name)
        if c is None or b is None:
            sys.exit(f"FATAL: {name} missing from current run or "
                     "baseline")
        if c[1] != b[1]:
            sys.exit(f"FATAL: {name} time units differ "
                     f"({c[1]} vs {b[1]})")
        ratio = c[0] / b[0]
        verdict = "FAIL" if ratio > 1.25 else "ok"
        print(f"  {name} (median of 5): {c[0]:.1f}{c[1]} vs baseline "
              f"{b[0]:.1f}{b[1]} ({ratio:.2f}x) {verdict}")
        regressed |= ratio > 1.25
    if regressed:
        failures.append("hot-path benchmarks regressed >25% vs "
                        "BENCH_hotpath.json")
    else:
        print("bench regression gate: ok")

if failures:
    sys.exit("\n".join("FATAL: " + f for f in failures))
EOF
    then
        HOTPATH_FAILED=1
    fi
fi

# Serving throughput floor (DESIGN.md section 15): one streaming gate
# cell of the KV/OLTP serving engine (60k requests, lazy/snoop-bus;
# the run itself verifies the oracle and the attempt accounting, so
# this doubles as the serving smoke). Host requests/sec must stay
# within 25% of the committed BENCH_serving.json profile.
if printf '%s\n' "${PRESETS[@]}" | grep -qx release; then
    if [ ! -f "$ROOT/BENCH_serving.json" ]; then
        echo "FATAL: BENCH_serving.json baseline is missing;" \
             "regenerate it with bench/run_bench.sh (or restore the" \
             "committed copy) — refusing to skip the serving" \
             "throughput gate" >&2
        exit 1
    fi
    echo "==== bench: serving smoke + throughput floor ===="
    cmake --build --preset release -j "$JOBS" --target ext_kv_serving
    CI_SERVE_LINE=$("$ROOT/build-release/bench/ext_kv_serving" --gate)
    echo "  $CI_SERVE_LINE"
    python3 - "$ROOT/BENCH_serving.json" "${CI_SERVE_LINE##* }" <<'EOF'
import json
import sys

base_path, rate = sys.argv[1:]
cur = float(rate)
with open(base_path) as f:
    base = json.load(f)
ref = float(base["profile"]["streaming_requests_per_sec"])
ratio = cur / ref
print(f"  serving gate cell: {cur:.0f} req/s vs baseline "
      f"{ref:.0f} req/s ({ratio:.2f}x)")
if cur < ref / 1.25:
    sys.exit("FATAL: serving engine host throughput regressed >25% "
             "vs BENCH_serving.json")
print("serving throughput gate: ok")
EOF
fi

if [ "${HOTPATH_FAILED:-0}" -ne 0 ]; then
    echo "FATAL: the hot-path gate failed (see its report above)" >&2
    exit 1
fi
echo "All presets green."
