/**
 * @file
 * Tests of the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
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

// ---------------------------------------------------------------------
// Randomized ordering against a reference (when, seq) sort
// ---------------------------------------------------------------------

/**
 * Schedules events at random offsets from three places — top level,
 * boxed callbacks and resumed coroutines — and records, for each, the
 * (when, seq) key the queue must fire it by: `when` clamped up to the
 * tick it was scheduled at, `seq` its place in schedule order.
 */
class OrderCheck
{
  public:
    explicit OrderCheck(std::uint64_t seed) : rng_(seed) {}

    EventQueue eq;

    /** A random target tick: same tick, near, at least 4096 ticks
     *  ahead, or in the past (the queue fires it at the current
     *  tick, after everything already due). */
    Tick
    pickWhen()
    {
        const Tick now = eq.curTick();
        switch (rng_.range(4)) {
          case 0:
            return now;
          case 1:
            return now + 1 + rng_.range(16);
          case 2:
            return now + 4096 + rng_.range(8192);
          default:
            return now - std::min<Tick>(now, 1 + rng_.range(64));
        }
    }

    /** Notes one event's reference key and returns its id. */
    std::uint32_t
    expect(Tick when)
    {
        const auto id = static_cast<std::uint32_t>(ref_.size());
        ref_.push_back({std::max(when, eq.curTick()), id});
        return id;
    }

    /** A callback that records itself and may schedule more. */
    void
    scheduleCallback()
    {
        const Tick when = pickWhen();
        const std::uint32_t id = expect(when);
        eq.schedule(when, [this, id] {
            fire(id);
            while (budget_ != 0 && rng_.range(3) == 0) {
                --budget_;
                scheduleCallback();
            }
        });
    }

    /** A coroutine that sleeps @p turns times, scheduling its own
     *  wake-ups and sometimes a callback after waking. */
    Task<void>
    lane(unsigned turns)
    {
        for (unsigned t = 0; t < turns; ++t) {
            const Tick when = pickWhen();
            const std::uint32_t id = expect(when);
            co_await WakeAt{eq, when};
            fire(id);
            if (budget_ != 0 && rng_.range(2) == 0) {
                --budget_;
                scheduleCallback();
            }
        }
    }

    /** Fired ids, each with the tick it fired at. */
    const std::vector<std::pair<std::uint32_t, Tick>>&
    fired() const
    {
        return fired_;
    }

    /** Ids with their ticks in reference (when, seq) order. */
    std::vector<std::pair<std::uint32_t, Tick>>
    reference() const
    {
        std::vector<std::pair<std::uint32_t, Tick>> out;
        for (const auto& [when, id] : ref_)
            out.emplace_back(id, when);
        std::stable_sort(out.begin(), out.end(),
                         [](const auto& a, const auto& b) {
                             return a.second < b.second;
                         });
        return out;
    }

  private:
    void fire(std::uint32_t id) { fired_.emplace_back(id, eq.curTick()); }

    Rng rng_;
    unsigned budget_ = 400;
    std::vector<std::pair<Tick, std::uint32_t>> ref_; // in seq order
    std::vector<std::pair<std::uint32_t, Tick>> fired_;
};

TEST(EventQueueOrder, RandomScheduleMatchesReferenceSort)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        OrderCheck oc(seed);
        std::vector<Task<void>> lanes;
        for (unsigned l = 0; l < 4; ++l) {
            lanes.push_back(oc.lane(8 + l));
            lanes.back().start();
        }
        for (int i = 0; i < 20; ++i)
            oc.scheduleCallback();
        // Part of the run, then more from top level at a later tick.
        oc.eq.runUntil(oc.eq.curTick() + 3000);
        for (int i = 0; i < 20; ++i)
            oc.scheduleCallback();
        oc.eq.run();
        for (const auto& l : lanes)
            EXPECT_TRUE(l.done());
        ASSERT_EQ(oc.fired(), oc.reference()) << "seed " << seed;
        EXPECT_EQ(oc.eq.executed(), oc.fired().size());
    }
}

TEST(EventQueueOrder, BypassRefusedWhileAnEventIsDueByWake)
{
    Rng rng(7);
    for (int round = 0; round < 200; ++round) {
        EventQueue eq;
        int fired = 0;
        const unsigned n = static_cast<unsigned>(rng.range(5));
        for (unsigned i = 0; i < n; ++i)
            eq.schedule(rng.range(5000), [&] { ++fired; });
        for (int probe = 0; probe < 8; ++probe) {
            // Probe at, just before and just after the next event's
            // tick as well as at random.
            const Tick now = eq.curTick();
            Tick wake = now + rng.range(6000);
            if (!eq.empty() && rng.range(2) == 0)
                wake = std::max(now, eq.nextWhen() + rng.range(3) - 1);
            const bool due = !eq.empty() && eq.nextWhen() <= wake;
            EXPECT_EQ(eq.tryBypass(wake), !due);
            EXPECT_EQ(eq.curTick(), due ? now : wake);
            if (rng.range(2) == 0)
                eq.step();
        }
        // A wake before the current tick is never a jump.
        if (eq.curTick() > 0) {
            const Tick now = eq.curTick();
            EXPECT_FALSE(eq.tryBypass(now - 1));
            EXPECT_EQ(eq.curTick(), now);
        }
        eq.run();
        EXPECT_EQ(fired, static_cast<int>(n));
    }
}

} // namespace
} // namespace hmtx::sim
