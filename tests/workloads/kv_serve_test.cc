/**
 * @file
 * Deterministic smoke tests for the KV/OLTP serving engine
 * (src/workloads/kv_serve.hh): streaming-percentile exactness against
 * a full sort recompute, oracle + accounting invariants across commit
 * modes, and the O(1)-memory discipline of the request path.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "workloads/kv_serve.hh"

namespace
{

using namespace hmtx;
using workloads::KvServeParams;
using workloads::KvServeResult;
using workloads::runKvServe;

/** The bench's serving geometry (bench/ext_kv_serving.cc): a tiny
 *  hierarchy so the strided scans genuinely overflow it. */
sim::MachineConfig
smokeConfig(TxMode mode)
{
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    cfg.vidBits = 8;
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

KvServeParams
smokeParams(std::uint64_t requests)
{
    KvServeParams p;
    p.requests = requests;
    p.tableBuckets = 2048;
    p.keys = 8192;
    p.zipfTheta = 0.9;
    p.writeRatio = 0.5;
    p.transferShare = 0.15;
    p.scanShare = 0.05;
    p.arrivalMeanGap = 1500;
    p.burstDuty = 1.0;
    p.seed = 7;
    return p;
}

/** consistent() plus the oracle verdict, with a readable message. */
void
expectClean(const KvServeResult& r, const char* what)
{
    EXPECT_TRUE(r.oracleOk)
        << what << ": final table diverged from the oracle";
    EXPECT_TRUE(r.serve.consistent())
        << what << ": issued " << r.serve.issued << " != committed "
        << r.serve.committed << " + aborted " << r.serve.aborted;
}

// The streaming histogram must agree with a full sort of the same
// samples at every reported percentile: nearest-rank, quantized to
// the sample's bucket floor (sim::LatencyHistogram::bucketFloor).
TEST(KvServe, StreamingPercentilesMatchSortRecompute)
{
    KvServeParams p = smokeParams(4000);
    p.recordLatencies = true;
    const KvServeResult r =
        runKvServe(smokeConfig(TxMode::LazyHmtx), p);
    expectClean(r, "lazy recorded");

    std::vector<std::uint64_t> lat = r.recordedLatencies;
    ASSERT_EQ(lat.size(), p.requests);
    ASSERT_EQ(r.serve.latency.count(), p.requests);
    std::sort(lat.begin(), lat.end());

    for (const double q : {0.5, 0.99, 0.999}) {
        auto rank = static_cast<std::uint64_t>(
            q * static_cast<double>(lat.size()));
        if (static_cast<double>(rank) <
            q * static_cast<double>(lat.size()))
            ++rank; // ceil
        if (rank == 0)
            rank = 1;
        const std::uint64_t exact = lat[rank - 1];
        EXPECT_EQ(r.serve.latency.percentile(q),
                  sim::LatencyHistogram::bucketFloor(exact))
            << "q=" << q;
    }
    EXPECT_EQ(r.serve.latency.max(), lat.back());
    EXPECT_EQ(r.serve.latency.min(), lat.front());
}

// Oracle + accounting across the commit-mode axis, including both
// bounded machines actually exercising their bounds on this workload:
// best-effort must capacity-abort into the fallback lock (scans
// overflow the hierarchy) and limited-set must route over-K scans
// onto the non-speculative path.
TEST(KvServe, OracleAndAccountingAcrossModes)
{
    const KvServeResult lazy =
        runKvServe(smokeConfig(TxMode::LazyHmtx), smokeParams(3000));
    expectClean(lazy, "lazy");
    EXPECT_EQ(lazy.serve.requests, 3000u);
    EXPECT_EQ(lazy.serve.committed, 3000u);
    EXPECT_GT(lazy.sys.specSpills, 0u)
        << "unbounded HMTX should absorb scan overflow by spilling";

    const KvServeResult btx =
        runKvServe(smokeConfig(TxMode::BestEffort), smokeParams(3000));
    expectClean(btx, "best-effort");
    EXPECT_EQ(btx.serve.committed, 3000u);
    EXPECT_GT(btx.sys.capacityAborts, 0u);
    EXPECT_GT(btx.tx.fallbackEntries, 0u);
    EXPECT_GT(btx.serve.lockRestarts, 0u)
        << "mid-body lock engagement must restart the body (a "
           "speculative prefix under the lock is flushable and its "
           "stores would be silently lost)";

    const KvServeResult ltd =
        runKvServe(smokeConfig(TxMode::LimitedSet), smokeParams(3000));
    expectClean(ltd, "limited-set");
    EXPECT_EQ(ltd.serve.committed, 3000u);
    EXPECT_GT(ltd.serve.nonSpecFallbacks, 0u)
        << "scans exceed K=4 and must take the non-speculative path";
}

// Identical (config, params) pairs must be bit-identical: the engine
// is deterministic, which is what makes ext_kv_serving's printed
// tables reproducible and lets perfbench check a simulated-identity
// digest on every pass.
TEST(KvServe, Deterministic)
{
    const KvServeResult a =
        runKvServe(smokeConfig(TxMode::BestEffort), smokeParams(2000));
    const KvServeResult b =
        runKvServe(smokeConfig(TxMode::BestEffort), smokeParams(2000));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.serve.issued, b.serve.issued);
    EXPECT_EQ(a.serve.aborted, b.serve.aborted);
    EXPECT_EQ(a.serve.latency.percentile(0.999),
              b.serve.latency.percentile(0.999));
}

// The streaming request path keeps no per-request state: the per-core
// scratch high-water mark must not move with the request count, and
// no latency samples may be retained unless explicitly recorded.
TEST(KvServe, StreamingMemoryIndependentOfRunLength)
{
    const KvServeResult small =
        runKvServe(smokeConfig(TxMode::LazyHmtx), smokeParams(2000));
    const KvServeResult large =
        runKvServe(smokeConfig(TxMode::LazyHmtx), smokeParams(6000));
    expectClean(small, "2k streaming");
    expectClean(large, "6k streaming");
    EXPECT_GT(small.scratchHighWater, 0u);
    EXPECT_EQ(small.scratchHighWater, large.scratchHighWater)
        << "request-path memory must be independent of run length";
    EXPECT_TRUE(small.recordedLatencies.empty());
    EXPECT_TRUE(large.recordedLatencies.empty());
}

} // namespace
