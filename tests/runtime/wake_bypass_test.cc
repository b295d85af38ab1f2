/**
 * @file
 * Pins the zero-event wake-up (DESIGN.md §13) on a run whose roots
 * begin with compute(). Machine::spawn starts root 0 before roots
 * 1..n exist, so that first timed op is awaited on an empty queue
 * outside EventQueue::step(). Continuing it inline there would let
 * root 0 run ahead of siblings that were never scheduled; the bypass
 * is only taken while step() resumes the awaiting coroutine. The
 * constants below were captured before every timed op could bypass
 * (only fast-path hits did), so a run that lets any wake-up skip
 * ahead outside step() moves them.
 */

#include <gtest/gtest.h>

#include "runtime/executors.hh"
#include "runtime/workload.hh"

namespace hmtx::runtime
{
namespace
{

/**
 * DOALL loop whose every iteration starts with compute(): each worker
 * root's first timed op is a compute. Iterations read one shared line
 * and write their own, so the cores contend for the fabric and every
 * cycle count depends on when each root started.
 */
class ComputeFirstWorkload final : public LoopWorkload
{
  public:
    std::string name() const override { return "compute-first"; }
    Paradigm paradigm() const override { return Paradigm::Doall; }
    std::uint64_t iterations() const override { return 48; }

    void
    setup(Machine& m) override
    {
        shared_ = m.heap().allocLines(1);
        slots_ = m.heap().allocLines(iterations());
        m.sys().memory().write(shared_, 7, 8);
    }

    sim::Task<void>
    stage1(MemIf& mem, std::uint64_t iter) override
    {
        co_await mem.compute(3 + iter % 5);
        const std::uint64_t s = co_await mem.load(shared_);
        co_await mem.compute(s % 4 + 1);
    }

    sim::Task<void>
    stage2(MemIf& mem, std::uint64_t iter) override
    {
        const Addr a = slots_ + iter * kLineBytes;
        const std::uint64_t v = co_await mem.load(a);
        co_await mem.store(a, v * 31 + iter + 1);
    }

    std::uint64_t
    checksum(Machine& m) override
    {
        std::uint64_t h = 0;
        for (std::uint64_t i = 0; i < iterations(); ++i)
            h = h * 1000003 +
                m.sys().memory().read(slots_ + i * kLineBytes, 8);
        return h;
    }

  private:
    Addr shared_ = 0;
    Addr slots_ = 0;
};

TEST(WakeBypass, ComputeFirstRootsMatchScheduledWakeups)
{
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    cfg.fastPath = true;
    ComputeFirstWorkload wl;
    const ExecResult r = Runner::runDoall(wl, cfg, 4);
    EXPECT_EQ(r.cycles, 3355u);
    EXPECT_EQ(r.checksum, 8377527132895045176u);
    EXPECT_EQ(r.instructions, 669u);
    EXPECT_EQ(r.transactions, 48u);
    EXPECT_EQ(r.stats.commits, 48u);
    EXPECT_EQ(r.stats.aborts, 0u);
    EXPECT_EQ(r.stats.loads, 96u);
    EXPECT_EQ(r.stats.stores, 48u);
    EXPECT_EQ(r.stats.l1Hits, 26u);
    EXPECT_GT(r.fastStats.eventBypasses, 0u);
}

} // namespace
} // namespace hmtx::runtime
