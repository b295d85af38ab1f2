/**
 * @file
 * Tests of the simulated-memory SPSC queue.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/machine.hh"
#include "runtime/queue.hh"
#include "runtime/thread_context.hh"

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

sim::Task<void>
producer(Machine& m, SimQueue& q, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        co_await q.produce(m.ctx(0), 100 + i);
}

sim::Task<void>
consumer(Machine& m, SimQueue& q, unsigned n,
         std::vector<std::uint64_t>& out)
{
    for (unsigned i = 0; i < n; ++i)
        out.push_back(co_await q.consume(m.ctx(1)));
}

TEST(SimQueue, FifoAcrossCores)
{
    Machine m(cfg());
    SimQueue q(m, 4);
    std::vector<std::uint64_t> out;
    m.spawn(producer(m, q, 20));
    m.spawn(consumer(m, q, 20, out));
    m.run();
    ASSERT_EQ(out.size(), 20u);
    for (unsigned i = 0; i < 20; ++i)
        EXPECT_EQ(out[i], 100 + i);
}

TEST(SimQueue, BlocksWhenFullAndEmpty)
{
    // Producer pushes 20 through a capacity-2 queue: it must block;
    // the run can only complete if blocking works both ways.
    Machine m(cfg());
    SimQueue q(m, 2);
    std::vector<std::uint64_t> out;
    m.spawn(producer(m, q, 20));
    m.spawn(consumer(m, q, 20, out));
    m.run();
    EXPECT_EQ(out.size(), 20u);
    EXPECT_EQ(q.size(), 0u);
}

sim::Task<void>
abortedConsumer(Machine& m, SimQueue& q, bool& threw)
{
    try {
        co_await q.consume(m.ctx(1));
    } catch (const sim::TxAborted&) {
        threw = true;
    }
}

TEST(SimQueue, AbortWakeUnblocksWithException)
{
    Machine m(cfg());
    SimQueue q(m, 2);
    bool threw = false;
    m.spawn(abortedConsumer(m, q, threw));
    m.eq().runUntil(1000);
    EXPECT_FALSE(threw); // still blocked
    q.abortWake();
    m.run();
    EXPECT_TRUE(threw);
}

TEST(SimQueue, ResetClearsStateForReuse)
{
    Machine m(cfg());
    SimQueue q(m, 4);
    q.abortWake();
    q.reset();
    std::vector<std::uint64_t> out;
    m.spawn(producer(m, q, 3));
    m.spawn(consumer(m, q, 3, out));
    m.run();
    EXPECT_EQ(out.size(), 3u);
}

TEST(SimQueue, GeneratesCoherenceTraffic)
{
    // The queue lives in simulated memory: produce/consume from two
    // cores must ping-pong lines on the bus.
    Machine m(cfg());
    SimQueue q(m, 4);
    std::vector<std::uint64_t> out;
    m.spawn(producer(m, q, 16));
    m.spawn(consumer(m, q, 16, out));
    m.run();
    EXPECT_GT(m.sys().stats().busTxns, 8u);
}

} // namespace
} // namespace hmtx::runtime
