/**
 * @file
 * Configuration-matrix property: across every combination of
 * coherence fabric, commit scheme, VID width and spec-set bounding,
 * parallel execution preserves the sequential semantics, and the
 * zero-event hit fast path (DESIGN.md §13) leaves every simulated
 * result bit-identical. This guards the feature interactions that no
 * single-feature test covers.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "runtime/executors.hh"
#include "workloads/gzip.hh"
#include "workloads/linked_list.hh"

namespace hmtx::workloads
{
namespace
{

using Combo = std::tuple<sim::Fabric, bool /*lazy*/, unsigned /*vid*/,
                         bool /*unbounded*/>;

class ConfigMatrix : public ::testing::TestWithParam<Combo>
{
  protected:
    static sim::MachineConfig
    make(const Combo& c)
    {
        sim::MachineConfig cfg;
        cfg.l2SizeKB = 512;
        cfg.fabric = std::get<0>(c);
        cfg.txMode = std::get<1>(c) ? TxMode::LazyHmtx
                                    : TxMode::EagerHmtx;
        cfg.vidBits = std::get<2>(c);
        cfg.unboundedSpecSets = std::get<3>(c);
        return cfg;
    }

    /** The fast path may change host time only: everything the
     *  simulated machine can observe must match the fast-off run. */
    static void
    expectFastPathIdentical(const runtime::ExecResult& off,
                            const runtime::ExecResult& on)
    {
        EXPECT_EQ(on.cycles, off.cycles);
        EXPECT_EQ(on.checksum, off.checksum);
        EXPECT_EQ(on.instructions, off.instructions);
        EXPECT_EQ(on.transactions, off.transactions);
        EXPECT_EQ(on.vidResets, off.vidResets);
        EXPECT_TRUE(on.stats == off.stats);
        EXPECT_EQ(off.fastStats.attempts, 0u);
    }
};

TEST_P(ConfigMatrix, LinkedListPreservesSemantics)
{
    sim::MachineConfig cfg = make(GetParam());

    LinkedListWorkload::Params p;
    p.nodes = 90;
    p.workRounds = 20;
    LinkedListWorkload seq(p), par(p), fast(p);
    runtime::ExecResult rs = runtime::Runner::runSequential(seq, cfg);
    runtime::ExecResult rp = runtime::Runner::runHmtx(par, cfg);
    EXPECT_EQ(rp.checksum, rs.checksum);
    EXPECT_EQ(rp.transactions, p.nodes);

    cfg.fastPath = true;
    runtime::ExecResult rf = runtime::Runner::runHmtx(fast, cfg);
    expectFastPathIdentical(rp, rf);
    EXPECT_GT(rf.fastStats.hits(), 0u); // hit-heavy: it must fire
}

TEST_P(ConfigMatrix, GzipPreservesSemantics)
{
    sim::MachineConfig cfg = make(GetParam());

    GzipWorkload::Params p;
    p.blocks = 10;
    p.wordsPerBlock = 160;
    GzipWorkload seq(p), par(p), fast(p);
    runtime::ExecResult rs = runtime::Runner::runSequential(seq, cfg);
    runtime::ExecResult rp = runtime::Runner::runHmtx(par, cfg);
    EXPECT_EQ(rp.checksum, rs.checksum);

    cfg.fastPath = true;
    expectFastPathIdentical(rp, runtime::Runner::runHmtx(fast, cfg));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ConfigMatrix,
    ::testing::Combine(
        ::testing::Values(sim::Fabric::SnoopBus,
                          sim::Fabric::Directory),
        ::testing::Bool(),                  // lazy / eager commit
        ::testing::Values(4u, 6u),          // VID width
        ::testing::Bool()),                 // bounded / unbounded
    [](const ::testing::TestParamInfo<Combo>& info) {
        // (no structured bindings: commas in [] are unprotected
        // inside the INSTANTIATE macro)
        std::string n;
        n += std::get<0>(info.param) == sim::Fabric::SnoopBus
            ? "snoop"
            : "dir";
        n += std::get<1>(info.param) ? "_lazy" : "_eager";
        n += "_m" + std::to_string(std::get<2>(info.param));
        n += std::get<3>(info.param) ? "_unbounded" : "_bounded";
        return n;
    });

} // namespace
} // namespace hmtx::workloads
