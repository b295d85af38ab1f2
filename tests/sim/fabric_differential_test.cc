/**
 * @file
 * Cross-fabric differential testing of the Interconnect seam: the
 * HMTX version rules are fabric-independent, so an identical access
 * stream driven through a SnoopBus system and a DirectoryFabric
 * system must produce identical *functional* results — per-access
 * values and outcomes, memory images, abort generations, commit
 * watermarks, and every architectural statistic except the
 * directory's own lookup counter. Only timing (latency, which never
 * feeds back into raw streams) may differ.
 *
 * Two identically configured systems driven by one stream must
 * agree on everything, the architectural statistics included.
 *
 * Also exercises the numCores-parametric orchestration: 8-, 16- and
 * 32-core machines must run fig8-style parallel workloads to
 * completion on both fabrics with matching checksums.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <thread>
#include <tuple>

#include "runtime/executors.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "workloads/stress.hh"

namespace hmtx
{
namespace
{

/** Full memory image as an ordered map for direct comparison. */
std::map<Addr, sim::LineData>
memImage(sim::CacheSystem& sys)
{
    std::map<Addr, sim::LineData> img;
    sys.memory().forEachLine(
        [&](Addr a, const sim::LineData& d) { img[a] = d; });
    return img;
}

/** Stats with the fabric-specific lookup counter masked out. */
sim::SysStats
fabricNeutral(const sim::SysStats& s)
{
    sim::SysStats n = s;
    n.dirLookups = 0; // the only counter the fabric choice may change
    return n;
}

/**
 * Drives an identical randomized protocol stream into two systems,
 * comparing every functional outcome as it goes. Latency is
 * deliberately NOT compared: that is exactly what the fabrics own.
 * The stream stays legal by construction: commits are consecutive,
 * vidReset only runs when all VIDs used since the last reset have
 * committed or aborted. Ends with an abort + flush so the final
 * memory images are complete.
 */
void
driveIdenticalStreams(sim::CacheSystem& a, sim::CacheSystem& b,
                      std::uint64_t seed, unsigned ops)
{
    std::mt19937_64 rng(seed);
    auto rnd = [&](std::uint64_t n) { return rng() % n; };

    const Vid maxVid = 48; // stay clear of the wrap guard
    const unsigned cores = a.config().numCores;
    bool outstanding = false;

    for (unsigned i = 0; i < ops; ++i) {
        ASSERT_EQ(a.lcVid(), b.lcVid()) << "op " << i;
        const Vid lc = a.lcVid();
        const unsigned kind = rnd(100);
        const CoreId core = CoreId(rnd(cores));
        const Addr addr = 0x1000 + rnd(96) * 64 + rnd(8) * 8;

        if (kind < 40) { // speculative access in the open window
            const Vid vid = Vid(lc + 1 + rnd(4));
            if (vid > maxVid)
                continue;
            outstanding = true;
            sim::AccessResult ra, rb;
            if (rnd(2)) {
                ra = a.load(core, addr, 8, vid);
                rb = b.load(core, addr, 8, vid);
            } else {
                const std::uint64_t v = rng();
                ra = a.store(core, addr, v, 8, vid);
                rb = b.store(core, addr, v, 8, vid);
            }
            ASSERT_EQ(ra.value, rb.value) << "op " << i;
            ASSERT_EQ(ra.aborted, rb.aborted) << "op " << i;
            ASSERT_EQ(ra.l1Hit, rb.l1Hit) << "op " << i;
            ASSERT_EQ(ra.needSla, rb.needSla) << "op " << i;
        } else if (kind < 70) { // non-speculative access
            sim::AccessResult ra, rb;
            if (rnd(2)) {
                ra = a.load(core, addr, 8, 0);
                rb = b.load(core, addr, 8, 0);
            } else {
                const std::uint64_t v = rng();
                ra = a.store(core, addr, v, 8, 0);
                rb = b.store(core, addr, v, 8, 0);
            }
            ASSERT_EQ(ra.value, rb.value) << "op " << i;
            ASSERT_EQ(ra.aborted, rb.aborted) << "op " << i;
        } else if (kind < 85) { // commit the next VID
            if (lc + 1 > maxVid)
                continue;
            a.commit(Vid(lc + 1));
            b.commit(Vid(lc + 1));
        } else if (kind < 92) { // global abort
            a.abortAll();
            b.abortAll();
            outstanding = false;
        } else { // drain the window and reset
            if (outstanding)
                continue; // uncommitted spec VIDs may be live
            if (a.lcVid() != 0) {
                a.vidReset();
                b.vidReset();
            }
        }
        // A committed-past-the-window stream ends the round early.
        if (a.lcVid() >= maxVid) {
            a.abortAll();
            b.abortAll();
            a.vidReset();
            b.vidReset();
            outstanding = false;
        }
        ASSERT_EQ(a.abortGen(), b.abortGen()) << "op " << i;
    }

    a.abortAll();
    b.abortAll();
    a.flushDirtyToMemory();
    b.flushDirtyToMemory();

    EXPECT_EQ(a.lcVid(), b.lcVid());
    EXPECT_EQ(a.abortGen(), b.abortGen());
    EXPECT_EQ(memImage(a), memImage(b));
    a.checkInvariants();
    b.checkInvariants();
}

/** Cross-fabric differential: everything but the directory's own
 *  lookup counter must match. */
void
runFabricDifferential(sim::CacheSystem& a, sim::CacheSystem& b,
                      std::uint64_t seed, unsigned ops)
{
    driveIdenticalStreams(a, b, seed, ops);
    EXPECT_TRUE(fabricNeutral(a.stats()) == fabricNeutral(b.stats()));
    EXPECT_GT(b.stats().dirLookups, 0u)
        << "the directory fabric must actually have been exercised";
    EXPECT_EQ(a.stats().dirLookups, 0u)
        << "the snoop bus must never consult a directory";
}

class FabricDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FabricDifferential, RandomStreamMatchesAcrossFabrics)
{
    sim::MachineConfig snoop;
    snoop.l2SizeKB = 256;
    sim::MachineConfig dir = snoop;
    dir.fabric = sim::Fabric::Directory;
    dir.dirBanks = 8;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, snoop);
    sim::CacheSystem b(eqb, dir);
    runFabricDifferential(a, b, GetParam(), 3000);
}

TEST_P(FabricDifferential, EightCoreStreamMatchesAcrossFabrics)
{
    // Wider machine: more L1s in the snoop set, more directory
    // sharers — the functional results must still be identical.
    sim::MachineConfig snoop;
    snoop.numCores = 8;
    snoop.l2SizeKB = 256;
    sim::MachineConfig dir = snoop;
    dir.fabric = sim::Fabric::Directory;
    dir.dirBanks = 16;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, snoop);
    sim::CacheSystem b(eqb, dir);
    runFabricDifferential(a, b, GetParam() * 17 + 3, 2000);
}

TEST_P(FabricDifferential, UnboundedSetsMatchAcrossFabrics)
{
    // Tiny caches + unbounded speculative sets: spills and refills
    // through the overflow table join the differential surface.
    sim::MachineConfig snoop;
    snoop.l1SizeKB = 4;
    snoop.l1Assoc = 2;
    snoop.l2SizeKB = 32;
    snoop.l2Assoc = 4;
    snoop.unboundedSpecSets = true;
    sim::MachineConfig dir = snoop;
    dir.fabric = sim::Fabric::Directory;
    dir.dirBanks = 4;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, snoop);
    sim::CacheSystem b(eqb, dir);
    runFabricDifferential(a, b, GetParam() * 31 + 7, 1500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricDifferential,
                         ::testing::Range<std::uint64_t>(1, 5));

// --- same-configuration determinism --------------------------------------

/**
 * Same-configuration differential: *every* architectural statistic —
 * the directory counter included — must be bit-identical, along with
 * values, outcomes, memory images and abort generations, and both
 * systems' indexes must stay consistent.
 */
void
runShardDifferential(sim::CacheSystem& a, sim::CacheSystem& b,
                     std::uint64_t seed, unsigned ops)
{
    driveIdenticalStreams(a, b, seed, ops);
    EXPECT_TRUE(a.stats() == b.stats())
        << "one configuration must give one set of statistics";
    EXPECT_NO_THROW(a.verifyIndexes());
    EXPECT_NO_THROW(b.verifyIndexes());
}

/**
 * (seed, bank count). The cache system has a single bank, so the
 * count is always 1 and each case compares two identically
 * configured systems. The suite and case names are those of the
 * former sequential-vs-sharded sweep, whose 1-bank cells these are.
 */
using ShardParam = std::tuple<std::uint64_t, unsigned>;

class ShardDifferential : public ::testing::TestWithParam<ShardParam>
{};

TEST_P(ShardDifferential, SnoopBusStreamMatchesSequentialInline)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    sim::MachineConfig cfg;
    cfg.l2SizeKB = 256;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, cfg);
    sim::CacheSystem b(eqb, cfg);
    runShardDifferential(a, b, seed * 7 + 1, 2500);
}

TEST_P(ShardDifferential, DirectoryStreamMatchesSequentialThreaded)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    sim::MachineConfig cfg;
    cfg.l2SizeKB = 256;
    cfg.fabric = sim::Fabric::Directory;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, cfg);
    sim::CacheSystem b(eqb, cfg);
    runShardDifferential(a, b, seed * 11 + 5, 2000);
}

TEST_P(ShardDifferential, UnboundedSetsMatchSequentialThreaded)
{
    // Tiny caches + overflow traffic: overflow-table spills and
    // refills and memory writebacks join the surface.
    const std::uint64_t seed = std::get<0>(GetParam());
    sim::MachineConfig cfg;
    cfg.l1SizeKB = 4;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 32;
    cfg.l2Assoc = 4;
    cfg.unboundedSpecSets = true;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, cfg);
    sim::CacheSystem b(eqb, cfg);
    runShardDifferential(a, b, seed * 13 + 2, 1500);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, ShardDifferential,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 4),
                       ::testing::Values(1u)));

// --- numCores-parametric orchestration ----------------------------------

/** Runs the chaos workload on @p cores cores under both fabrics and
 *  checks both complete with the reference checksum. */
void
runManyCores(unsigned cores, bool doall)
{
    workloads::StressWorkload::Params p;
    p.iterations = 4 * cores;
    p.scratchWords = 24;
    p.conflictRate = 0.1;
    p.seed = 13 + cores;

    sim::MachineConfig seqCfg;
    workloads::StressWorkload ws(p);
    runtime::ExecResult seq = runtime::Runner::runSequential(ws, seqCfg);

    for (sim::Fabric f : {sim::Fabric::SnoopBus, sim::Fabric::Directory}) {
        sim::MachineConfig cfg;
        cfg.numCores = cores;
        cfg.fabric = f;
        cfg.dirBanks = 16;
        workloads::StressWorkload w(p);
        runtime::ExecResult r = doall
            ? runtime::Runner::runDoall(w, cfg, cores)
            : runtime::Runner::runPipeline(w, cfg, cores - 1);
        EXPECT_EQ(r.checksum, seq.checksum)
            << cores << " cores, fabric " << int(f);
        EXPECT_EQ(r.stats.idleCores, 0u)
            << "full-width schedules must occupy every core";
        EXPECT_GT(r.transactions, 0u);
    }
}

TEST(ManyCoreOrchestration, EightCoresCompleteOnBothFabrics)
{
    runManyCores(8, /*doall=*/false);
    runManyCores(8, /*doall=*/true);
}

TEST(ManyCoreOrchestration, SixteenCoresCompleteOnBothFabrics)
{
    runManyCores(16, /*doall=*/false);
    runManyCores(16, /*doall=*/true);
}

TEST(ManyCoreOrchestration, ThirtyTwoCoresCompleteOnBothFabrics)
{
    runManyCores(32, /*doall=*/true);
}

TEST(ManyCoreOrchestration, ShardSweepIsDeterministicAcrossSeeds)
{
    // Full-stack determinism: the same parallel workload must produce
    // the same checksum and the same architectural stats for every
    // seed and fabric, whether it runs on this thread or on a host
    // worker thread concurrently with another run (as hmtx_fuzz
    // --threads does). The name is kept from the former shard sweep.
    for (std::uint64_t seed : {5u, 23u, 71u}) {
        workloads::StressWorkload::Params p;
        p.iterations = 48;
        p.scratchWords = 24;
        p.conflictRate = 0.15;
        p.seed = seed;

        for (sim::Fabric f :
             {sim::Fabric::SnoopBus, sim::Fabric::Directory}) {
            sim::MachineConfig cfg;
            cfg.numCores = 8;
            cfg.fabric = f;
            workloads::StressWorkload wa(p), wb(p), wc(p);
            runtime::ExecResult ra, rb, rc;
            std::thread worker(
                [&] { rb = runtime::Runner::runDoall(wb, cfg, 8); });
            ra = runtime::Runner::runDoall(wa, cfg, 8);
            worker.join();
            rc = runtime::Runner::runDoall(wc, cfg, 8);
            for (const runtime::ExecResult* r : {&rb, &rc}) {
                EXPECT_EQ(r->checksum, ra.checksum) << "seed " << seed;
                EXPECT_TRUE(r->stats == ra.stats) << "seed " << seed;
            }
        }
    }
}

TEST(ManyCoreOrchestration, NarrowPipelineReportsIdleCores)
{
    // A 2-stage pipeline with 3 replicated workers on an 8-core
    // machine uses 4 cores; the other 4 must be counted, not silent.
    workloads::StressWorkload::Params p;
    p.iterations = 24;
    p.scratchWords = 16;
    p.conflictRate = 0.0;
    p.seed = 3;

    sim::MachineConfig cfg;
    cfg.numCores = 8;
    workloads::StressWorkload w(p);
    runtime::ExecResult r = runtime::Runner::runPipeline(w, cfg, 3);
    EXPECT_EQ(r.stats.idleCores, 4u);

    // Requests beyond the machine clamp instead of indexing past the
    // thread contexts.
    workloads::StressWorkload w2(p);
    sim::MachineConfig four;
    four.numCores = 4;
    runtime::ExecResult r2 = runtime::Runner::runPipeline(w2, four, 9);
    EXPECT_EQ(r2.stats.idleCores, 0u);
    EXPECT_GT(r2.transactions, 0u);
}

} // namespace
} // namespace hmtx
