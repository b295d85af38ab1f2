/**
 * @file
 * Microbenchmarks of the simulator's protocol hot paths, comparing
 * the indexed implementation (address presence filter + speculative
 * line registry) against the pre-index behaviour
 * (MachineConfig::forceFullScan, which walks every cache slot).
 *
 * Two geometries are measured: a small "seed" L2 (256 KB, 4 Ki
 * resident lines) and the paper's Table 2 L2 (32 MB, populated with
 * 64 Ki resident lines). Cache sets materialize slots lazily, so a
 * full scan costs O(resident lines); with the indexes every bulk
 * operation — eager commit, abortAll, vidReset — visits only the
 * handful of speculative/dirty lines regardless of how much clean
 * data the caches hold.
 *
 * Run with --smoke for a fast self-check (used as a ctest): it runs
 * an identical operation script in both modes, asserts the
 * architectural statistics are bit-identical, and asserts the indexed
 * bulk operations are at least 2x faster at Table 2 geometry.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/common.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace hmtx;

constexpr Addr kSpecBase = 0x100000;
constexpr Addr kBackBase = 0xA00000;

sim::MachineConfig
makeCfg(bool table2, bool fullScan)
{
    sim::MachineConfig cfg; // Table 2 defaults
    if (!table2)
        cfg.l2SizeKB = 256; // small seed-style geometry
    cfg.forceFullScan = fullScan;
    return cfg;
}

/** Clean resident lines to load per geometry (most of the L2). */
unsigned
backgroundLines(bool table2)
{
    return table2 ? 65536 : 4096;
}

/**
 * Fills the L2 with clean non-speculative background lines. These are
 * exactly the lines a full-scan bulk walk wastes time skipping and
 * the registry never holds.
 */
void
populateBackground(sim::CacheSystem& sys, unsigned lines)
{
    for (unsigned i = 0; i < lines; ++i)
        sys.load(0, kBackBase + Addr{i} * 64, 8, 0);
}

/** Issues @p n speculative stores spread over cores and VIDs 1..8. */
void
specStores(sim::CacheSystem& sys, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        sys.store(i % 4, kSpecBase + Addr{i} * 64, i + 1, 8,
                  1 + (i % 8));
}

/** Lines in the hit-dominated stream's working set (fits the L1). */
constexpr unsigned kHitLines = 64;

/**
 * Issues @p accesses store+load pairs from one core over kHitLines
 * speculative lines at a fixed VID. After the first lap every access
 * is a pure L1 hit on a line already in the exact required state —
 * the stream the §13 fast path retires without touching the protocol
 * walk or the event machinery.
 */
void
hitStream(sim::CacheSystem& sys, unsigned accesses)
{
    for (unsigned i = 0; i < accesses; ++i) {
        const Addr la = kSpecBase + Addr{i % kHitLines} * 64;
        sys.store(0, la, i, 8, 1);
        benchmark::DoNotOptimize(sys.load(0, la, 8, 1));
    }
}

// --- benchmarks ------------------------------------------------------------
//
// Args: {table2 geometry (0/1), forceFullScan (0/1)}

void
BM_AbortAll(benchmark::State& state)
{
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, makeCfg(state.range(0), state.range(1)));
    populateBackground(sys, backgroundLines(state.range(0)));
    for (auto _ : state) {
        specStores(sys, 64);
        benchmark::DoNotOptimize(sys.abortAll());
    }
}
BENCHMARK(BM_AbortAll)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

void
BM_VidReset(benchmark::State& state)
{
    // Lazy commit (the default): commit() is a cheap watermark bump
    // and the deferred reconcile work lands in vidReset()'s walk.
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, makeCfg(state.range(0), state.range(1)));
    populateBackground(sys, backgroundLines(state.range(0)));
    for (auto _ : state) {
        specStores(sys, 64);
        for (Vid v = 1; v <= 8; ++v)
            sys.commit(v);
        benchmark::DoNotOptimize(sys.vidReset());
    }
}
BENCHMARK(BM_VidReset)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

void
BM_VidResetDirtyBg(benchmark::State& state)
{
    // Serving-shaped variant of BM_VidReset: the background lines are
    // dirty *committed* table data (a KV store's working set stays
    // dirty-in-cache for the whole run), not clean fills. Bulk walks
    // must not pay for them — vidReset/commit/abort only act on
    // speculative lines, so with the class-split registry the reset
    // walk scales with the window's speculative footprint, not the
    // dirty working set. Arg: table2 geometry (0/1); indexed mode
    // only (the full-scan cost is BM_VidReset's story).
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, makeCfg(state.range(0), false));
    const unsigned lines = backgroundLines(state.range(0));
    for (unsigned i = 0; i < lines; ++i)
        sys.store(0, kBackBase + Addr{i} * 64, i, 8, 0);
    for (auto _ : state) {
        specStores(sys, 64);
        for (Vid v = 1; v <= 8; ++v)
            sys.commit(v);
        benchmark::DoNotOptimize(sys.vidReset());
    }
}
BENCHMARK(BM_VidResetDirtyBg)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void
BM_EagerCommit(benchmark::State& state)
{
    // Naive commit processing (§4.4): every commit walks the caches.
    auto cfg = makeCfg(state.range(0), state.range(1));
    cfg.txMode = TxMode::EagerHmtx;
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, cfg);
    populateBackground(sys, backgroundLines(state.range(0)));
    for (auto _ : state) {
        specStores(sys, 64);
        for (Vid v = 1; v <= 8; ++v)
            benchmark::DoNotOptimize(sys.commit(v));
        sys.vidReset();
    }
}
BENCHMARK(BM_EagerCommit)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

void
BM_AccessThroughput(benchmark::State& state)
{
    // Mixed load/store stream over a working set larger than the L1:
    // exercises findLocal, the presence-filtered findRemote/snoop
    // path, fills and evictions.
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, makeCfg(state.range(0), state.range(1)));
    constexpr unsigned kLines = 4096; // 256 KB working set
    Addr a = 0;
    for (auto _ : state) {
        sys.store(a % 4, kBackBase + (a % kLines) * 64, a, 8, 0);
        benchmark::DoNotOptimize(
            sys.load((a + 1) % 4, kBackBase + (a % kLines) * 64, 8,
                     0));
        ++a;
    }
    state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_AccessThroughput)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1});

void
BM_HitFastPath(benchmark::State& state)
{
    // Hit-dominated per-access cost with the zero-event fast path off
    // (arg 0) and on (arg 1); ci/check.sh gates on the on/off ratio.
    // Both runs are architecturally bit-identical — only host time
    // and the sim.fastpath.* diagnostics differ.
    auto cfg = makeCfg(true, false);
    cfg.fastPath = state.range(0);
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, cfg);
    hitStream(sys, kHitLines); // warm lap: fills and plants tags
    unsigned i = 0;
    for (auto _ : state) {
        const Addr la = kSpecBase + Addr{i % kHitLines} * 64;
        sys.store(0, la, i, 8, 1);
        benchmark::DoNotOptimize(sys.load(0, la, 8, 1));
        ++i;
    }
    state.SetItemsProcessed(2 * state.iterations());
    state.counters["fast_hit_rate"] = sys.fastStats().hitRate();
}
BENCHMARK(BM_HitFastPath)->Arg(0)->Arg(1);

// --- smoke self-check ------------------------------------------------------

/** One deterministic protocol workout; returns its wall time. */
double
runScript(sim::CacheSystem& sys, unsigned rounds)
{
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < rounds; ++r) {
        specStores(sys, 64);
        sys.abortAll();
        specStores(sys, 64);
        for (Vid v = 1; v <= 8; ++v)
            sys.commit(v);
        sys.vidReset();
    }
    sys.flushDirtyToMemory();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

int
smoke()
{
    // Table 2 geometry. The cross-check itself is a full scan, so it
    // runs once after the timed section rather than per operation.
    sim::EventQueue eq1, eq2;
    sim::CacheSystem indexed(eq1, makeCfg(true, false));
    sim::CacheSystem fullScan(eq2, makeCfg(true, true));
    populateBackground(indexed, backgroundLines(true));
    populateBackground(fullScan, backgroundLines(true));

    constexpr unsigned kRounds = 50;
    double tIdx = runScript(indexed, kRounds);
    double tFull = runScript(fullScan, kRounds);
    indexed.verifyIndexes();
    fullScan.verifyIndexes();

    if (!(indexed.stats() == fullScan.stats())) {
        std::fprintf(stderr,
                     "FAIL: indexed and full-scan statistics "
                     "diverge\n");
        return 1;
    }
    indexed.checkInvariants();
    fullScan.checkInvariants();

    const double ratio = tFull / tIdx;
    std::printf("smoke: indexed %.3fs, full-scan %.3fs, ratio "
                "%.1fx (snoop filter rate %.2f)\n",
                tIdx, tFull, ratio,
                indexed.indexStats().snoopFilterRate());
    if (ratio < 2.0) {
        std::fprintf(stderr,
                     "FAIL: indexed bulk ops only %.1fx faster than "
                     "full scans (expected >= 2x)\n",
                     ratio);
        return 1;
    }

    // Fast-path cross-check (DESIGN.md §13): the hit-dominated stream
    // must be architecturally bit-identical with the fast path on and
    // off, and with it on it must actually retire on the fast path.
    // Timing is gated in Release by ci/check.sh, not here.
    auto offCfg = makeCfg(true, false);
    offCfg.fastPath = false;
    auto onCfg = makeCfg(true, false);
    onCfg.fastPath = true;
    sim::EventQueue eqOff, eqOn;
    sim::CacheSystem fpOff(eqOff, offCfg);
    sim::CacheSystem fpOn(eqOn, onCfg);
    constexpr unsigned kHitAccesses = 10000;
    hitStream(fpOff, kHitAccesses);
    hitStream(fpOn, kHitAccesses);
    if (!(fpOff.stats() == fpOn.stats())) {
        std::fprintf(stderr,
                     "FAIL: fast path on/off statistics diverge\n");
        return 1;
    }
    if (fpOff.fastStats().attempts != 0) {
        std::fprintf(stderr,
                     "FAIL: fast probes attempted while disabled\n");
        return 1;
    }
    const double hitRate = fpOn.fastStats().hitRate();
    std::printf("smoke: fast-path hit rate %.3f on the hit stream\n",
                hitRate);
    if (hitRate < 0.9) {
        std::fprintf(stderr,
                     "FAIL: fast-path hit rate %.3f on a "
                     "hit-dominated stream (expected >= 0.9)\n",
                     hitRate);
        return 1;
    }
    fpOff.checkInvariants();
    fpOn.checkInvariants();

    std::printf("smoke: OK\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            return smoke();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // Build type of *this tree*, not of the benchmark library;
    // ci/check.sh rejects timings from a non-Release build.
#ifdef HMTX_BUILD_TYPE
    benchmark::AddCustomContext("hmtx_build_type", HMTX_BUILD_TYPE);
#else
    benchmark::AddCustomContext("hmtx_build_type", "unknown");
#endif
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
