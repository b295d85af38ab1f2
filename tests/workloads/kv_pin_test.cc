/**
 * @file
 * Pins what the serving engine reports. A change to the memory
 * system's bookkeeping (how the presence filter, the wrong-path shadow
 * marks or the per-VID read/write sets are stored) must not move a
 * single request counter, percentile or Figure 9 set-size total: the
 * constants below were captured from runKvServe() while those tables
 * were still node-based hash containers.
 *
 * Two seeds run through every commit mode on the serving smoke
 * geometry with the fast path armed, Zipf 1.2 keys and strided scans,
 * so the limited-set K bound, best-effort fallback and spills all
 * fire.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "sim/config.hh"
#include "workloads/kv_serve.hh"

namespace
{

using namespace hmtx;
using workloads::KvServeParams;
using workloads::KvServeResult;
using workloads::runKvServe;

constexpr std::size_t kCounters = 25;
using Counters = std::array<std::uint64_t, kCounters>;

constexpr const char* kNames[kCounters] = {
    "serve.issued",        "serve.committed",
    "serve.aborted",       "serve.drains",
    "serve.lockRestarts",  "serve.nonSpecFallbacks",
    "serve.windowResets",  "serve.batches",
    "serve.idleCycles",    "latency.sum",
    "latency.p50",         "latency.p99",
    "latency.p999",        "latency.max",
    "makespan",            "sys.commits",
    "sys.aborts",          "sys.capacityAborts",
    "sys.readSetLines",    "sys.writeSetLines",
    "sys.combinedSetLines", "sys.maxCombinedSetLines",
    "sys.l1Hits",          "tx.fallbackEntries",
    "tx.limitedSetAborts",
};

struct PinRow
{
    std::uint64_t seed;
    TxMode mode;
    Counters want;
};

constexpr PinRow kRows[] = {
    {3, TxMode::LazyHmtx,
     {776, 400, 376, 13, 0, 0, 1, 8, 103810, 1566019, 3840, 9728, 10752,
      10789, 151659, 400, 104, 0, 709, 489, 709, 12, 913, 0, 0}},
    {3, TxMode::EagerHmtx,
     {776, 400, 376, 13, 0, 0, 1, 8, 96033, 1608147, 3968, 9728, 10752,
      10997, 151705, 400, 104, 0, 709, 489, 709, 12, 913, 0, 0}},
    {3, TxMode::BestEffort,
     {551, 400, 151, 0, 15, 0, 1, 8, 52724, 4437537, 10752, 24576, 26624,
      27486, 158976, 400, 57, 21, 411, 195, 411, 2, 854, 52, 0}},
    {3, TxMode::LimitedSet,
     {706, 400, 306, 11, 0, 22, 1, 8, 105008, 1552265, 3840, 9728, 10752,
      10951, 151659, 400, 89, 0, 445, 225, 445, 2, 1093, 0, 0}},
    {11, TxMode::LazyHmtx,
     {936, 400, 536, 18, 0, 0, 1, 8, 118943, 1557294, 3840, 10240, 11264,
      11730, 155054, 400, 144, 0, 602, 383, 602, 12, 1278, 0, 0}},
    {11, TxMode::EagerHmtx,
     {936, 400, 536, 18, 0, 0, 1, 8, 112039, 1585830, 3840, 10240, 11776,
      11854, 155104, 400, 144, 0, 602, 383, 602, 12, 1278, 0, 0}},
    {11, TxMode::BestEffort,
     {566, 400, 166, 0, 10, 0, 1, 8, 95655, 1913586, 4608, 12288, 12800,
      13024, 157336, 400, 63, 12, 387, 178, 387, 2, 828, 58, 0}},
    {11, TxMode::LimitedSet,
     {882, 400, 482, 16, 0, 14, 1, 8, 118645, 1535388, 3840, 10240, 10752,
      10910, 155006, 400, 129, 0, 434, 215, 434, 2, 1378, 0, 0}},
};

sim::MachineConfig
pinConfig(TxMode mode)
{
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    cfg.vidBits = 8;
    cfg.fastPath = true;
    cfg.txMode = mode;
    if (mode == TxMode::BestEffort) {
        cfg.btxMaxRetries = 2;
        cfg.btxAbortThreshold = 8;
        cfg.unboundedSpecSets = false;
    } else if (mode == TxMode::LimitedSet) {
        cfg.limitedSetK = 4;
        cfg.unboundedSpecSets = false;
    } else {
        cfg.unboundedSpecSets = true;
    }
    cfg.validate();
    return cfg;
}

Counters
measure(std::uint64_t seed, TxMode mode)
{
    KvServeParams p;
    p.requests = 400;
    p.tableBuckets = 2048;
    p.keys = 8192;
    p.zipfTheta = 1.2;
    p.writeRatio = 0.3;
    p.transferShare = 0.15;
    p.scanShare = 0.05;
    p.arrivalMeanGap = 1500;
    p.seed = seed;
    const KvServeResult r = runKvServe(pinConfig(mode), p);
    EXPECT_TRUE(r.oracleOk) << "seed " << seed;
    const sim::ServeStats& s = r.serve;
    return {s.issued,
            s.committed,
            s.aborted,
            s.drains,
            s.lockRestarts,
            s.nonSpecFallbacks,
            s.windowResets,
            s.batches,
            s.idleCycles,
            s.latency.sum(),
            s.latency.percentile(0.50),
            s.latency.percentile(0.99),
            s.latency.percentile(0.999),
            s.latency.max(),
            r.makespan,
            r.sys.commits,
            r.sys.aborts,
            r.sys.capacityAborts,
            r.sys.readSetLines,
            r.sys.writeSetLines,
            r.sys.combinedSetLines,
            r.sys.maxCombinedSetLines,
            r.sys.l1Hits,
            r.tx.fallbackEntries,
            r.tx.limitedSetAborts};
}

TEST(KvPin, ServeCountersAtFixedSeeds)
{
    for (const PinRow& w : kRows) {
        const Counters got = measure(w.seed, w.mode);
        for (std::size_t i = 0; i < kCounters; ++i)
            EXPECT_EQ(got[i], w.want[i])
                << "seed " << w.seed << " mode " << txModeName(w.mode)
                << " " << kNames[i];
    }
}

} // namespace
