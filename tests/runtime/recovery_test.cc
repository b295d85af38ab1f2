/**
 * @file
 * Abort-recovery tests: a transient dependence violation (or an
 * explicit software abortMTX) mid-run must roll back, replay from the
 * last committed iteration, and still produce the sequential result.
 */

#include <gtest/gtest.h>

#include <exception>
#include <string>

#include "runtime/executors.hh"
#include "runtime/thread_context.hh"
#include "workloads/linked_list.hh"

namespace hmtx::runtime
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

/**
 * Linked-list workload that injects one transient conflict: the first
 * time iteration `conflictIter` executes stage 2, it stores to a
 * global line that a later iteration's stage 1 has (by then) already
 * read — a real flow-dependence violation that the HMTX system must
 * detect. On replay the store is skipped (the "misspeculation" was
 * transient, as with control-flow speculation).
 */
class ConflictingWorkload : public workloads::LinkedListWorkload
{
  public:
    ConflictingWorkload(Params p, std::uint64_t conflictIter)
        : LinkedListWorkload(p), conflictIter_(conflictIter)
    {}

    void
    setup(Machine& m) override
    {
        LinkedListWorkload::setup(m);
        globalLine_ = m.heap().allocLines(1);
        fired_ = false;
    }

    sim::Task<void>
    stage1(MemIf& mem, std::uint64_t iter) override
    {
        // Every stage 1 reads the global, so a delayed write from an
        // earlier iteration's stage 2 violates a flow dependence.
        co_await mem.load(globalLine_);
        co_await LinkedListWorkload::stage1(mem, iter);
    }

    sim::Task<void>
    stage2(MemIf& mem, std::uint64_t iter) override
    {
        if (iter == conflictIter_ && !fired_) {
            fired_ = true;
            // Dawdle first so later iterations have read the global
            // line by the time the violating store issues.
            co_await mem.compute(4000);
            co_await mem.store(globalLine_, 0xDEAD);
        }
        co_await LinkedListWorkload::stage2(mem, iter);
    }

  private:
    std::uint64_t conflictIter_;
    Addr globalLine_ = 0;
    bool fired_ = false;
};

TEST(Recovery, TransientConflictIsDetectedAndReplayed)
{
    workloads::LinkedListWorkload::Params p;
    p.nodes = 60;
    p.workRounds = 24;

    workloads::LinkedListWorkload seq(p);
    ExecResult rs = Runner::runSequential(seq, cfg());

    ConflictingWorkload par(p, 20);
    ExecResult rp = Runner::runPipeline(par, cfg(), 3);

    EXPECT_GE(rp.stats.aborts, 1u);
    EXPECT_EQ(rp.transactions, p.nodes);
    EXPECT_EQ(rp.checksum, rs.checksum);
}

TEST(Recovery, ConflictInDoallIsDetectedAndReplayed)
{
    workloads::LinkedListWorkload::Params p;
    p.nodes = 60;
    p.workRounds = 24;

    workloads::LinkedListWorkload seq(p);
    ExecResult rs = Runner::runSequential(seq, cfg());

    ConflictingWorkload par(p, 15);
    ExecResult rp = Runner::runDoall(par, cfg(), 4);

    EXPECT_GE(rp.stats.aborts, 1u);
    EXPECT_EQ(rp.checksum, rs.checksum);
}

/**
 * Workload whose stage 2 calls abortMTX once, as the Figure 3(c)
 * early-exit control-flow check would.
 */
class SoftwareAbortWorkload : public workloads::LinkedListWorkload
{
  public:
    SoftwareAbortWorkload(Params p, std::uint64_t abortIter,
                          Machine** mOut)
        : LinkedListWorkload(p), abortIter_(abortIter), mOut_(mOut)
    {}

    void
    setup(Machine& m) override
    {
        LinkedListWorkload::setup(m);
        *mOut_ = &m;
        fired_ = false;
    }

    sim::Task<void>
    stage2(MemIf& mem, std::uint64_t iter) override
    {
        co_await LinkedListWorkload::stage2(mem, iter);
        if (iter == abortIter_ && !fired_) {
            fired_ = true;
            // Software-detected misspeculation (abortMTX, §3.1).
            (*mOut_)->sys().abortAll();
            // The next operation of any speculative thread unwinds.
            co_await mem.compute(1);
        }
    }

  private:
    std::uint64_t abortIter_;
    Machine** mOut_;
    bool fired_ = false;
};

TEST(Recovery, ExplicitAbortMtxReplays)
{
    workloads::LinkedListWorkload::Params p;
    p.nodes = 40;
    p.workRounds = 16;

    workloads::LinkedListWorkload seq(p);
    ExecResult rs = Runner::runSequential(seq, cfg());

    Machine* mPtr = nullptr;
    SoftwareAbortWorkload par(p, 10, &mPtr);
    ExecResult rp = Runner::runPipeline(par, cfg(), 2);

    EXPECT_GE(rp.stats.aborts, 1u);
    EXPECT_EQ(rp.checksum, rs.checksum);
}

/**
 * DOALL loop whose iterations all read-modify-write one shared line: a
 * true cross-iteration dependence. Every iteration after the first
 * reads the line before its predecessor's store commits, so each
 * recovery replays into the same abort.
 */
class SharedCounterWorkload final : public LoopWorkload
{
  public:
    std::string name() const override { return "shared-counter"; }
    Paradigm paradigm() const override { return Paradigm::Doall; }
    std::uint64_t iterations() const override { return 3; }

    void
    setup(Machine& m) override
    {
        line_ = m.heap().allocLines(1);
    }

    sim::Task<void>
    stage1(MemIf& mem, std::uint64_t) override
    {
        const std::uint64_t v = co_await mem.load(line_);
        co_await mem.store(line_, v + 1);
    }

    sim::Task<void>
    stage2(MemIf&, std::uint64_t) override
    {
        co_return;
    }

    std::uint64_t
    checksum(Machine& m) override
    {
        return m.sys().memory().read(line_, 8);
    }

  private:
    Addr line_ = 0;
};

TEST(Recovery, TrueDependenceLivelockIsReportedAsLivelock)
{
    // The recovery bound trips in one root while its siblings wait
    // for it; Machine::run must report that root's livelock, not the
    // siblings' blocked state as a deadlock.
    sim::MachineConfig c;
    c.numCores = 4;
    c.maxRecoveries = 8;
    SharedCounterWorkload wl;
    try {
        Runner::runDoall(wl, c, 4);
        FAIL() << "a livelocked DOALL loop completed";
    } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("abort-recovery livelock"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace hmtx::runtime
