/**
 * @file
 * Discrete-event simulation kernel.
 */

#ifndef HMTX_SIM_EVENT_QUEUE_HH
#define HMTX_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/types.hh"

namespace hmtx::sim
{

/**
 * A deterministic discrete-event queue.
 *
 * Every timed behaviour in the simulator (memory latencies, bus
 * occupancy, core compute delays, coroutine wake-ups) is an event.
 * Events fire in (when, seq) order: by tick, and within a tick in
 * schedule order, so a run is fully deterministic for a given
 * workload and seed.
 *
 * Storage is one binary min-heap of small trivially copyable records.
 * A runtime machine holds about one pending event per core (each
 * core's next wake-up), so the heap stays a few entries deep.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    ~EventQueue()
    {
        for (const Event& ev : heap_)
            delete ev.fn;
    }

    /** Current simulated time. */
    Tick curTick() const { return now_; }

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events ever executed. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Schedules @p cb to run at absolute tick @p when.
     * @pre when >= curTick()
     */
    void
    schedule(Tick when, Callback cb)
    {
        auto fn = std::make_unique<Callback>(std::move(cb));
        push(when, {}, fn.get());
        fn.release();
    }

    /** Schedules @p cb to run @p delay cycles from now. */
    void
    scheduleIn(Cycles delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    /**
     * Schedules a coroutine resumption at absolute tick @p when.
     * Equivalent to `schedule(when, [h] { h.resume(); })` but stores
     * the handle directly — the dominant event kind (every memory
     * operation wake-up) skips std::function construction entirely.
     */
    void
    scheduleResume(Tick when, std::coroutine_handle<> h)
    {
        push(when, h, nullptr);
    }

    /** Schedules a coroutine resumption @p delay cycles from now. */
    void
    resumeIn(Cycles delay, std::coroutine_handle<> h)
    {
        scheduleResume(now_ + delay, h);
    }

    /**
     * Zero-event time advance (DESIGN.md §13): jump simulated time to
     * @p wake without allocating, scheduling, or executing an event,
     * exactly as if a resumption had been scheduled at @p wake and
     * immediately fired as the sole event of that tick. Legal — and
     * taken — only when nothing else could fire first: the queue is
     * empty, or every pending event lies strictly after @p wake.
     * executed() intentionally does not count bypassed wake-ups.
     * @return true when the jump was taken (@p wake is now curTick())
     */
    bool
    tryBypass(Tick wake)
    {
        if (wake < now_ || (!empty() && nextWhen() <= wake))
            return false;
        now_ = wake;
        return true;
    }

    /**
     * tryBypass() for the wake-up of the coroutine step() is resuming
     * right now: the awaiting coroutine would otherwise suspend back
     * into step(), whose next event is this very wake-up, so
     * continuing inline is the same run. Anywhere else — a root
     * task's start before its siblings are spawned, a boxed callback
     * resuming a coroutine — code after the suspension still runs at
     * the current tick, and jumping time would run it late.
     *
     * A Task that completes without suspending returns to its awaiter
     * by symmetric transfer, which is a tail call only where the
     * compiler emits one (the sanitizer build does not), so a long
     * run of inline continuations through Task chains can leave the
     * host stack one level deeper each time. One resume therefore
     * takes at most kMaxInlineWakeups of them; the next op schedules
     * normally and the stack unwinds.
     */
    bool
    tryBypassResumed(Tick wake)
    {
        if (inlineBudget_ == 0 || !tryBypass(wake))
            return false;
        --inlineBudget_;
        return true;
    }

    /** Tick of the next pending event. @pre pending() != 0 */
    Tick nextWhen() const { return heap_.front().when; }

    /**
     * Executes the next event, advancing simulated time.
     * @return false if the queue was empty
     */
    bool
    step()
    {
        if (heap_.empty())
            return false;
        std::pop_heap(heap_.begin(), heap_.end(), later);
        const Event ev = heap_.back();
        heap_.pop_back();
        now_ = ev.when;
        ++executed_;
        if (ev.h) {
            inlineBudget_ = kMaxInlineWakeups;
            ev.h.resume();
            inlineBudget_ = 0;
        } else {
            const std::unique_ptr<Callback> fn(ev.fn);
            (*fn)();
        }
        return true;
    }

    /** Runs until no events remain. */
    void
    run()
    {
        while (step()) {}
    }

    /** Runs until simulated time would exceed @p limit or queue empties. */
    void
    runUntil(Tick limit)
    {
        while (!empty() && nextWhen() <= limit)
            step();
        if (now_ < limit && empty())
            now_ = limit;
    }

  private:
    /** Inline wake-ups one coroutine resume may take. */
    static constexpr unsigned kMaxInlineWakeups = 64;

    // Coroutine wake-ups are the dominant event kind by orders of
    // magnitude, so the record is kept small and trivially copyable:
    // the handle is stored inline and the occasional general callback
    // is boxed, owned by the queue until it fires.
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::coroutine_handle<> h; // set → resume directly
        Callback* fn;              // otherwise the boxed callback
    };

    /** Heap order: true when @p a fires after @p b. */
    static bool
    later(const Event& a, const Event& b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    void
    push(Tick when, std::coroutine_handle<> h, Callback* fn)
    {
        // Tolerate (documented-illegal) past ticks by firing asap:
        // after everything already due now, in schedule order.
        heap_.push_back(Event{std::max(when, now_), seq_++, h, fn});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    std::vector<Event> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    /** Inline wake-ups left to the coroutine step() is resuming;
     *  0 everywhere else (see tryBypassResumed). */
    unsigned inlineBudget_ = 0;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_EVENT_QUEUE_HH
