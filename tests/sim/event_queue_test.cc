/**
 * @file
 * Tests of the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace hmtx::sim
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 6u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(15, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
    EXPECT_TRUE(eq.empty());
}

// ---------------------------------------------------------------------
// Lanes: one coroutine per simulated core, woken by direct resumption
// events (scheduleResume) that share the queue with boxed callbacks
// ---------------------------------------------------------------------

/** Sentinel recorded by callbacks, which belong to no lane. */
constexpr std::uint32_t kNoLane = ~std::uint32_t{0};

/** Awaitable that suspends until absolute tick @p when. */
struct WakeAt
{
    EventQueue& eq;
    Tick when;

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        eq.scheduleResume(when, h);
    }

    void await_resume() const noexcept {}
};

/** One lane turn: sleeps until @p when, then records @p lane. */
Task<void>
laneTurn(EventQueue& eq, Tick when, std::uint32_t lane,
         std::vector<std::uint32_t>& order)
{
    co_await WakeAt{eq, when};
    order.push_back(lane);
}

TEST(EventQueueLane, SameTickScheduleOrderPreserved)
{
    EventQueue eq;
    std::vector<std::uint32_t> order;
    int fired = 0;
    Task<void> l0 = laneTurn(eq, 7, 0, order);
    l0.start();
    eq.schedule(7, [&] {
        ++fired;
        order.push_back(kNoLane);
    });
    Task<void> l3 = laneTurn(eq, 7, 3, order);
    l3.start();
    // Earlier tick runs first despite its later sequence number.
    Task<void> l1 = laneTurn(eq, 6, 1, order);
    l1.start();

    while (eq.step()) {
    }
    EXPECT_EQ(order,
              (std::vector<std::uint32_t>{1, 0, kNoLane, 3}));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.executed(), 4u);
    EXPECT_TRUE(l0.done() && l1.done() && l3.done());
}

TEST(EventQueueLane, NextWhenTracksFrontier)
{
    EventQueue eq;
    std::vector<std::uint32_t> order;
    Task<void> l0 = laneTurn(eq, 10, 0, order);
    Task<void> l1 = laneTurn(eq, 10, 1, order);
    Task<void> l2 = laneTurn(eq, 12, 2, order);
    l0.start();
    l1.start();
    l2.start();
    EXPECT_EQ(eq.nextWhen(), 10u);

    ASSERT_TRUE(eq.step());
    EXPECT_EQ(eq.curTick(), 10u);
    // A same-tick event is still pending: the frontier must not move.
    EXPECT_EQ(eq.nextWhen(), 10u);
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(eq.nextWhen(), 12u);
    ASSERT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2}));
}

} // namespace
} // namespace hmtx::sim
