/**
 * @file
 * Chaos testing: randomized transient dependence violations at
 * varying rates, across execution models and configurations. Every
 * violation must be detected and replayed, and the final state must
 * always equal the sequential run's.
 *
 * The pipeline cells also rerun with the zero-event hit fast path
 * (DESIGN.md §13): every abort must still retire its fast-path tags,
 * so the replay is bit-identical to the fast-off run.
 *
 * Note: the injected violating stores are fire-once side effects
 * outside the checksummed output, so the sequential reference runs a
 * separate conflict-free instance.
 */

#include <gtest/gtest.h>

#include "runtime/executors.hh"
#include "workloads/stress.hh"

namespace hmtx::workloads
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

StressWorkload::Params
params(double conflictRate, std::uint64_t seed)
{
    StressWorkload::Params p;
    p.iterations = 48;
    p.scratchWords = 32;
    p.conflictRate = conflictRate;
    p.seed = seed;
    return p;
}

class Chaos : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(Chaos, PipelineSurvivesInjectedViolations)
{
    const std::uint64_t seed = GetParam();
    StressWorkload seq(params(0.0, seed));
    runtime::ExecResult rs = runtime::Runner::runSequential(seq, cfg());

    for (double rate : {0.05, 0.15, 0.30}) {
        StressWorkload par(params(rate, seed));
        runtime::ExecResult rp =
            runtime::Runner::runPipeline(par, cfg(), 3);
        EXPECT_EQ(rp.checksum, rs.checksum)
            << "rate " << rate << " seed " << seed;
        EXPECT_EQ(rp.transactions, 48u);
        if (par.conflictsInjected() > 0) {
            EXPECT_GE(rp.stats.aborts, 1u) << rate;
        }

        sim::MachineConfig fastCfg = cfg();
        fastCfg.fastPath = true;
        StressWorkload fast(params(rate, seed));
        runtime::ExecResult rf =
            runtime::Runner::runPipeline(fast, fastCfg, 3);
        EXPECT_EQ(rf.cycles, rp.cycles) << "rate " << rate;
        EXPECT_EQ(rf.checksum, rp.checksum) << "rate " << rate;
        EXPECT_TRUE(rf.stats == rp.stats) << "rate " << rate;
    }
}

TEST_P(Chaos, DoallSurvivesInjectedViolations)
{
    const std::uint64_t seed = GetParam() * 13 + 1;
    StressWorkload seq(params(0.0, seed));
    runtime::ExecResult rs = runtime::Runner::runSequential(seq, cfg());

    StressWorkload par(params(0.2, seed));
    runtime::ExecResult rp = runtime::Runner::runDoall(par, cfg(), 4);
    EXPECT_EQ(rp.checksum, rs.checksum);
}

TEST_P(Chaos, UnboundedSetsSurviveViolationsOnTinyCaches)
{
    const std::uint64_t seed = GetParam() * 7 + 3;
    StressWorkload seq(params(0.0, seed));
    runtime::ExecResult rs = runtime::Runner::runSequential(seq, cfg());

    sim::MachineConfig tiny;
    tiny.l1SizeKB = 4;
    tiny.l1Assoc = 2;
    tiny.l2SizeKB = 32;
    tiny.l2Assoc = 4;
    tiny.unboundedSpecSets = true;
    tiny.maxRecoveries = 2000;
    StressWorkload par(params(0.15, seed));
    runtime::ExecResult rp =
        runtime::Runner::runPipeline(par, tiny, 3);
    EXPECT_EQ(rp.checksum, rs.checksum);
    EXPECT_EQ(rp.stats.capacityAborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Chaos,
                         ::testing::Range<std::uint64_t>(1, 6));

} // namespace
} // namespace hmtx::workloads
