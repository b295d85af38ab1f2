/**
 * @file
 * Zero-event hit fast path (DESIGN.md §13) under the runtime: the
 * bounded policies and copy-on-read gate it off, and on a quiet queue
 * it retires hits without scheduling events.
 *
 * ParallelDifferential: a run with the fast path on or off must be
 * bit-identical to the fast-path-off reference — same cycles,
 * checksum, instruction/branch/abort counts and SysStats — on the
 * full {bus, directory} x {lazy, eager} matrix, whether it runs on
 * the test thread after the reference (inline) or on a host worker
 * thread concurrently with it (threaded, as hmtx_fuzz --threads runs
 * schedules; each thread has its own coroutine frame pool).
 */

#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <utility>

#include "runtime/executors.hh"
#include "workloads/gzip.hh"
#include "workloads/linked_list.hh"
#include "workloads/stress.hh"

namespace hmtx::workloads
{
namespace
{

/** Fast-path mode axis: off, or on (accesses apply serially). */
enum : unsigned
{
    kFpOff = 0,
    kFpSerial = 1,
};

using Combo = std::tuple<sim::Fabric, bool /*lazy*/,
                         unsigned /*host threads*/,
                         unsigned /*fast-path mode*/>;

/** Everything architecturally observable must match exactly.
 *  (fastStats is simulator-side and excluded by design.) */
void
expectIdentical(const runtime::ExecResult& ref,
                const runtime::ExecResult& got)
{
    EXPECT_EQ(got.cycles, ref.cycles);
    EXPECT_EQ(got.checksum, ref.checksum);
    EXPECT_EQ(got.instructions, ref.instructions);
    EXPECT_EQ(got.transactions, ref.transactions);
    EXPECT_EQ(got.vidResets, ref.vidResets);
    EXPECT_EQ(got.branches, ref.branches);
    EXPECT_EQ(got.mispredicts, ref.mispredicts);
    EXPECT_TRUE(got.stats == ref.stats)
        << "SysStats diverged (aborts " << ref.stats.aborts << " vs "
        << got.stats.aborts << ", busTxns " << ref.stats.busTxns
        << " vs " << got.stats.busTxns << ", l1Hits "
        << ref.stats.l1Hits << " vs " << got.stats.l1Hits << ")";
}

class ParallelDifferential : public ::testing::TestWithParam<Combo>
{
  protected:
    /** Reference cell: fast path off. */
    static sim::MachineConfig
    makeRef(const Combo& c)
    {
        sim::MachineConfig cfg;
        cfg.fabric = std::get<0>(c);
        cfg.txMode = std::get<1>(c) ? TxMode::LazyHmtx
                                    : TxMode::EagerHmtx;
        return cfg;
    }

    /** Candidate cell: the combo's fast-path mode. */
    static sim::MachineConfig
    make(const Combo& c)
    {
        sim::MachineConfig cfg = makeRef(c);
        cfg.fastPath = std::get<3>(c) != kFpOff;
        return cfg;
    }

    /** Runs @p ref on this thread and @p cand after it (1 host
     *  thread) or concurrently on a worker thread (2). */
    template <typename Ref, typename Cand>
    static void
    runPair(const Combo& c, Ref ref, Cand cand)
    {
        if (std::get<2>(c) == 1) {
            ref();
            cand();
            return;
        }
        std::thread worker(cand);
        ref();
        worker.join();
    }

    /** Runs @p run on fresh workloads built from @p p in both cells. */
    template <typename W, typename Run>
    static std::pair<runtime::ExecResult, runtime::ExecResult>
    differential(const typename W::Params& p, Run run)
    {
        const Combo c = GetParam();
        W a(p), b(p);
        runtime::ExecResult ref, got;
        runPair(
            c, [&] { ref = run(a, makeRef(c)); },
            [&] { got = run(b, make(c)); });
        expectIdentical(ref, got);
        return {ref, got};
    }
};

runtime::ExecResult
hmtx(runtime::LoopWorkload& w, const sim::MachineConfig& cfg)
{
    return runtime::Runner::runHmtx(w, cfg);
}

TEST_P(ParallelDifferential, LinkedListBitIdentical)
{
    LinkedListWorkload::Params p;
    p.nodes = 80;
    p.workRounds = 16;
    auto [ref, got] = differential<LinkedListWorkload>(p, hmtx);
    if (std::get<3>(GetParam()) != kFpOff) {
        // The fast path must actually fire on this hit-heavy workload.
        // (eventBypasses is asserted in FastPathBypass below: on the
        // busier directory-fabric queues another event is usually
        // pending before the wake, so the bypass legally declines.)
        EXPECT_GT(got.fastStats.hits(), 0u);
    } else {
        EXPECT_EQ(got.fastStats.attempts, 0u);
    }
    EXPECT_EQ(ref.fastStats.attempts, 0u);
}

TEST_P(ParallelDifferential, GzipBitIdentical)
{
    GzipWorkload::Params p;
    p.blocks = 8;
    p.wordsPerBlock = 120;
    differential<GzipWorkload>(p, hmtx);
}

/** The abort/recovery path (misspeculation storms, group aborts,
 *  queue resets) must replay identically under the fast path: every
 *  abort bumps the generation and kills all outstanding tags. */
TEST_P(ParallelDifferential, StressConflictsBitIdentical)
{
    StressWorkload::Params p;
    p.iterations = 48;
    p.scratchWords = 24;
    p.conflictRate = 0.25;
    const runtime::ExecResult got =
        differential<StressWorkload>(p, hmtx).second;
    EXPECT_GT(got.stats.aborts, 0u); // the matrix cell really aborted
}

/** Sequential runs (one core, long uninterrupted hit runs) too. */
TEST_P(ParallelDifferential, SequentialScheduleBitIdentical)
{
    LinkedListWorkload::Params p;
    p.nodes = 60;
    differential<LinkedListWorkload>(
        p, [](runtime::LoopWorkload& w, const sim::MachineConfig& cfg) {
            return runtime::Runner::runSequential(w, cfg);
        });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelDifferential,
    ::testing::Combine(
        ::testing::Values(sim::Fabric::SnoopBus,
                          sim::Fabric::Directory),
        ::testing::Bool(),          // lazy / eager commit
        ::testing::Values(1u, 2u),  // inline / worker host thread
        ::testing::Values(kFpOff, kFpSerial)),
    [](const ::testing::TestParamInfo<Combo>& info) {
        std::string n;
        n += std::get<0>(info.param) == sim::Fabric::SnoopBus
            ? "snoop"
            : "dir";
        n += std::get<1>(info.param) ? "_lazy" : "_eager";
        n += std::get<2>(info.param) == 1 ? "_inline" : "_threaded";
        n += std::get<3>(info.param) == kFpOff ? "_fpoff" : "_fpserial";
        return n;
    });

/** The bounded policies and copy-on-read must gate the fast path off
 *  entirely (no probes, no tags), even when the knob is set.
 *  (Sequential schedules: the bounded modes reject pipelined ones.) */
TEST(FastPathGate, BoundedPoliciesDisableFastPath)
{
    StressWorkload::Params p;
    p.iterations = 24;
    p.scratchWords = 16;
    for (TxMode mode : {TxMode::BestEffort, TxMode::LimitedSet}) {
        sim::MachineConfig on;
        on.txMode = mode;
        on.fastPath = true;
        sim::MachineConfig off = on;
        off.fastPath = false;
        StressWorkload a(p), b(p);
        runtime::ExecResult ron = runtime::Runner::runSequential(a, on);
        runtime::ExecResult roff =
            runtime::Runner::runSequential(b, off);
        EXPECT_EQ(ron.fastStats.attempts, 0u);
        EXPECT_EQ(ron.cycles, roff.cycles);
        EXPECT_TRUE(ron.stats == roff.stats);
    }
    sim::MachineConfig cor;
    cor.copyOnRead = true;
    cor.fastPath = true;
    StressWorkload d(p);
    runtime::ExecResult rcor = runtime::Runner::runSequential(d, cor);
    EXPECT_EQ(rcor.fastStats.attempts, 0u);
}

/** On a quiet queue (single-lane sequential schedule, snoopy bus) the
 *  fast path must retire hits with literally zero events: the hits
 *  happen and the wake-up bypass fires, with every architectural
 *  result equal to the fast-path-off run. */
TEST(FastPathBypass, SequentialHitsScheduleNoEvents)
{
    LinkedListWorkload::Params p;
    p.nodes = 60;
    p.workRounds = 16;
    sim::MachineConfig off;
    sim::MachineConfig on = off;
    on.fastPath = true;
    LinkedListWorkload a(p), b(p);
    runtime::ExecResult roff = runtime::Runner::runSequential(a, off);
    runtime::ExecResult ron = runtime::Runner::runSequential(b, on);
    EXPECT_EQ(ron.cycles, roff.cycles);
    EXPECT_EQ(ron.checksum, roff.checksum);
    EXPECT_TRUE(ron.stats == roff.stats);
    EXPECT_GT(ron.fastStats.hits(), 0u);
    EXPECT_GT(ron.fastStats.eventBypasses, 0u);
}

} // namespace
} // namespace hmtx::workloads
