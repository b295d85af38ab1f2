/**
 * @file
 * Tests of MemOp, the awaitable every MemIf operation returns: a
 * DirectMem op is a timed ThreadContext op awaited in place, and an
 * SmtxMem load or store is a Task.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "runtime/machine.hh"
#include "runtime/memif.hh"
#include "runtime/thread_context.hh"
#include "smtx/smtx.hh"

namespace hmtx::runtime
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

/** Counts the ops of an aborted MTX that threw TxAborted. */
sim::Task<void>
abortedOps(Machine& m, unsigned& threw)
{
    DirectMem mem(m.ctx(0));
    m.ctx(0).beginMtx(1);
    co_await mem.store(0x2000, 7);
    m.sys().abortAll();
    try {
        co_await mem.load(0x2000);
    } catch (const sim::TxAborted& e) {
        threw += e.vid == 1;
    }
    try {
        co_await mem.store(0x2000, 8);
    } catch (const sim::TxAborted&) {
        ++threw;
    }
    try {
        co_await mem.compute(5);
    } catch (const sim::TxAborted&) {
        ++threw;
    }
    try {
        co_await mem.branch(0x40, true);
    } catch (const sim::TxAborted&) {
        ++threw;
    }
}

TEST(MemOp, DirectOpInAbortedMtxThrowsIntoAwaiter)
{
    Machine m(cfg());
    unsigned threw = 0;
    m.spawn(abortedOps(m, threw));
    m.run();
    EXPECT_EQ(threw, 4u);
}

sim::Task<void>
directOps(Machine& m, std::uint64_t& loaded, bool& taken)
{
    DirectMem mem(m.ctx(0));
    co_await mem.compute(3); // the root's start: scheduled
    co_await mem.store(0x3000, 11);
    loaded = co_await mem.load(0x3000);
    taken = co_await mem.branch(0x80, true);
    co_await mem.compute(2);
}

TEST(MemOp, DirectOpsResumedByTheQueueNeverSuspend)
{
    Machine m(cfg());
    std::uint64_t loaded = 0;
    bool taken = false;
    m.spawn(directOps(m, loaded, taken));
    m.run();
    EXPECT_EQ(loaded, 11u);
    EXPECT_TRUE(taken);
    // Only the first op, awaited by spawn() outside the event loop,
    // became an event; the other four continued inline.
    EXPECT_EQ(m.eq().executed(), 1u);
    EXPECT_EQ(m.sys().fastStats().eventBypasses, 4u);
}

sim::Task<void>
smtxLoad(smtx::SmtxMem& mem, std::uint64_t& loaded)
{
    loaded = co_await mem.load(0x4000);
}

TEST(MemOp, SmtxLoadReturnsTheLoadedValue)
{
    for (const smtx::RwSetMode mode :
         {smtx::RwSetMode::Minimal, smtx::RwSetMode::Maximal}) {
        sim::MachineConfig c = cfg();
        c.hmtxEnabled = false;
        Machine m(c);
        m.sys().memory().write(0x4000, 0xBEEF, 8);
        smtx::SmtxRuntime rt(m, 1, mode);
        smtx::SmtxMem mem(m.ctx(0), rt, 0, nullptr);
        std::uint64_t loaded = 0;
        m.spawn(smtxLoad(mem, loaded));
        m.run();
        EXPECT_EQ(loaded, 0xBEEFu);
    }
}

} // namespace
} // namespace hmtx::runtime
