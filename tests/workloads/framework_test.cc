/**
 * @file
 * Tests of the workload framework helpers: IterSlots, IterRegion and
 * the chased work list.
 */

#include <gtest/gtest.h>

#include "runtime/executors.hh"
#include "workloads/common.hh"
#include "workloads/worklist.hh"

namespace hmtx::workloads
{
namespace
{

sim::MachineConfig
cfg()
{
    sim::MachineConfig c;
    c.l2SizeKB = 256;
    return c;
}

TEST(IterSlots, SlotsAreLineDisjoint)
{
    runtime::Machine m(cfg());
    IterSlots s;
    s.init(m);
    for (std::uint64_t i = 0; i + 1 < IterSlots::kSlots; ++i) {
        EXPECT_NE(lineAddr(s.slot(i)), lineAddr(s.slot(i + 1)));
    }
    // Reuse after the window wraps.
    EXPECT_EQ(s.slot(0), s.slot(IterSlots::kSlots));
}

TEST(IterRegion, ChunksAreLineDisjointAndLineAligned)
{
    runtime::Machine m(cfg());
    IterRegion r;
    r.init(m, 10, 5); // 5 words = 40 bytes, rounds to one line
    for (unsigned i = 0; i < 10; ++i) {
        EXPECT_EQ(lineOffset(r.at(i)), 0u);
        if (i > 0) {
            EXPECT_NE(lineAddr(r.at(i)), lineAddr(r.at(i - 1)));
        }
    }
    // Words within a chunk stay inside its lines.
    EXPECT_EQ(r.at(3, 4), r.at(3) + 32);
}

TEST(IterRegion, MultiLineChunks)
{
    runtime::Machine m(cfg());
    IterRegion r;
    r.init(m, 4, 20); // 160 bytes -> 3 lines per chunk
    EXPECT_EQ(r.at(1) - r.at(0), 3 * kLineBytes);
    EXPECT_EQ(lineOffset(r.at(2)), 0u);
}

TEST(Mix64, DeterministicAndDispersing)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
    // Single-bit input changes flip about half the output bits.
    int bits = __builtin_popcountll(mix64(1) ^ mix64(3));
    EXPECT_GT(bits, 16);
    EXPECT_LT(bits, 48);
}

/** Minimal chased-list workload for exercising the base class. */
class TinyChase : public ChasedListWorkload
{
  public:
    std::string name() const override { return "tiny"; }
    std::uint64_t iterations() const override { return 20; }

    void
    setup(runtime::Machine& m) override
    {
        std::vector<std::uint64_t> payloads(20);
        for (unsigned i = 0; i < 20; ++i)
            payloads[i] = 1000 + i;
        initWorkList(m, payloads);
        out_.init(m, 20, 1);
    }

    sim::Task<void>
    stage2(runtime::MemIf& mem, std::uint64_t iter) override
    {
        std::uint64_t payload = co_await fetchWork(mem, iter);
        co_await mem.store(out_.at(iter), payload * 3);
    }

    std::uint64_t
    checksum(runtime::Machine& m) override
    {
        std::uint64_t s = 0;
        for (unsigned i = 0; i < 20; ++i)
            s = mix64(s ^ m.sys().memory().read(out_.at(i), 8));
        return s;
    }

  private:
    IterRegion out_;
};

TEST(ChasedList, PayloadsFlowThroughVersionedSlots)
{
    TinyChase seq, par;
    runtime::ExecResult rs = runtime::Runner::runSequential(seq, cfg());
    runtime::ExecResult rp = runtime::Runner::runPipeline(par, cfg(), 3);
    EXPECT_EQ(rp.checksum, rs.checksum);
    EXPECT_EQ(rp.stats.aborts, 0u);
}

TEST(ChasedList, DoallWorkersShareTheCursorSafely)
{
    // Regression for the (cursor_, nextIter_) pair-consistency race:
    // concurrent DOALL workers must each chase their own node.
    TinyChase seq, par;
    runtime::ExecResult rs = runtime::Runner::runSequential(seq, cfg());
    runtime::ExecResult rp = runtime::Runner::runDoall(par, cfg(), 4);
    EXPECT_EQ(rp.checksum, rs.checksum);
}

} // namespace
} // namespace hmtx::workloads
