/**
 * @file
 * Tests of the SMTX baseline runtime: correctness under both
 * validation modes, the dedicated commit core, and the defining cost
 * asymmetry (maximal validation is far more expensive than minimal,
 * §2.3 / Figure 2).
 */

#include <gtest/gtest.h>

#include "runtime/executors.hh"
#include "smtx/smtx.hh"
#include "workloads/alvinn.hh"
#include "workloads/gzip.hh"
#include "workloads/linked_list.hh"
#include "workloads/stress.hh"

namespace hmtx::smtx
{
namespace
{

sim::MachineConfig
cfg()
{
    sim::MachineConfig c;
    c.l2SizeKB = 512;
    return c;
}

workloads::LinkedListWorkload::Params
wlParams()
{
    workloads::LinkedListWorkload::Params p;
    p.nodes = 100;
    p.workRounds = 30;
    return p;
}

TEST(Smtx, MinimalModeMatchesSequential)
{
    workloads::LinkedListWorkload seq(wlParams()), par(wlParams());
    runtime::ExecResult rs =
        runtime::Runner::runSequential(seq, cfg());
    runtime::ExecResult rp =
        SmtxRunner::run(par, cfg(), RwSetMode::Minimal);
    EXPECT_EQ(rp.checksum, rs.checksum);
}

TEST(Smtx, MaximalModeMatchesSequential)
{
    workloads::LinkedListWorkload seq(wlParams()), par(wlParams());
    runtime::ExecResult rs =
        runtime::Runner::runSequential(seq, cfg());
    runtime::ExecResult rp =
        SmtxRunner::run(par, cfg(), RwSetMode::Maximal);
    EXPECT_EQ(rp.checksum, rs.checksum);
}

TEST(Smtx, MaximalValidationIsMuchSlowerThanMinimal)
{
    // The core claim of §2.2/Figure 2: validation volume decides
    // SMTX performance. The linked list is too small to show it;
    // gzip's hundreds of accesses per iteration are the real case.
    workloads::GzipWorkload::Params p;
    p.blocks = 12;
    p.wordsPerBlock = 400;
    workloads::GzipWorkload a(p), b(p);
    runtime::ExecResult rmin =
        SmtxRunner::run(a, cfg(), RwSetMode::Minimal);
    runtime::ExecResult rmax =
        SmtxRunner::run(b, cfg(), RwSetMode::Maximal);
    EXPECT_GT(rmax.cycles, rmin.cycles * 3 / 2);
    EXPECT_GT(rmax.stats.busTxns, rmin.stats.busTxns);
}

TEST(Smtx, DoallParadigmWorks)
{
    workloads::AlvinnWorkload::Params p;
    p.patterns = 8;
    p.inputs = 8;
    p.hidden = 8;
    p.outputs = 4;
    workloads::AlvinnWorkload seq(p), par(p);
    runtime::ExecResult rs =
        runtime::Runner::runSequential(seq, cfg());
    runtime::ExecResult rp =
        SmtxRunner::run(par, cfg(), RwSetMode::Maximal);
    EXPECT_EQ(rp.checksum, rs.checksum);
}

TEST(Smtx, NoHmtxHardwareIsUsed)
{
    // SMTX runs on commodity hardware: no speculative accesses reach
    // the cache system.
    workloads::LinkedListWorkload par(wlParams());
    runtime::ExecResult rp =
        SmtxRunner::run(par, cfg(), RwSetMode::Maximal);
    EXPECT_EQ(rp.stats.specLoads, 0u);
    EXPECT_EQ(rp.stats.specStores, 0u);
    EXPECT_EQ(rp.stats.commits, 0u);
}

TEST(Smtx, ValidationPassesOnAbortFreeRuns)
{
    // Value-based validation at the commit process (§2.3): on a
    // conflict-free run every logged load matches the committed
    // image in program order.
    workloads::LinkedListWorkload par(wlParams());
    runtime::ExecResult r =
        SmtxRunner::run(par, cfg(), RwSetMode::Maximal);
    EXPECT_EQ(r.smtxMisspeculations, 0u);
    EXPECT_GT(r.stats.writebacks + r.stats.memFetches, 0u);
}

TEST(Smtx, ValidationDetectsRealConflicts)
{
    // The stress workload's injected violation: a stage-2 store to a
    // line that later iterations' stage 1 already read. Under the
    // shared-memory substitution the run completes with wrong
    // intermediate reads — and the commit process's value validation
    // must flag them, as real SMTX would before rolling back.
    workloads::StressWorkload::Params p;
    p.iterations = 40;
    p.scratchWords = 16;
    p.conflictRate = 0.25;
    p.seed = 99;
    workloads::StressWorkload wl(p);
    runtime::ExecResult r =
        SmtxRunner::run(wl, cfg(), RwSetMode::Maximal);
    ASSERT_GT(wl.conflictsInjected(), 0u);
    EXPECT_GT(r.smtxMisspeculations, 0u);
}

TEST(Smtx, ReportsZeroEventWakeups)
{
    // SMTX runs fill the same simulator-side counters as the HMTX
    // runners: its loop bodies retire timed ops without events too.
    workloads::LinkedListWorkload par(wlParams());
    runtime::ExecResult r =
        SmtxRunner::run(par, cfg(), RwSetMode::Minimal);
    EXPECT_GT(r.fastStats.eventBypasses, 0u);
}

} // namespace
} // namespace hmtx::smtx
