/**
 * @file
 * Per-core lane clocks for workloads that drive a CacheSystem
 * directly instead of through the event-driven runtime (the serving
 * engine and the commit-mode crossover bench).
 */

#ifndef HMTX_WORKLOADS_LANE_CLOCK_HH
#define HMTX_WORKLOADS_LANE_CLOCK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hmtx::workloads
{

/**
 * Per-core lane clocks with global synchronization points. Local work
 * advances one lane; a global event (commit, abort, serialized access)
 * makes every lane wait for the slowest, then all advance together.
 * The makespan of a run is maxT().
 */
class LaneClock
{
  public:
    explicit LaneClock(unsigned cores) : t_(cores, 0) {}

    std::uint64_t
    maxT() const
    {
        std::uint64_t m = 0;
        for (std::uint64_t v : t_)
            m = std::max(m, v);
        return m;
    }

    std::uint64_t at(unsigned core) const { return t_[core]; }

    void local(unsigned core, std::uint64_t cyc) { t_[core] += cyc; }

    /** Waits the core out until @p when (idle gap returned). */
    std::uint64_t
    waitUntil(unsigned core, std::uint64_t when)
    {
        if (t_[core] >= when)
            return 0;
        const std::uint64_t idle = when - t_[core];
        t_[core] = when;
        return idle;
    }

    /** Global event (commit, abort, serialized access): every lane
     *  waits for the slowest, then all advance together. */
    void
    global(std::uint64_t cyc)
    {
        const std::uint64_t m = maxT() + cyc;
        for (std::uint64_t& v : t_)
            v = m;
    }

  private:
    std::vector<std::uint64_t> t_;
};

} // namespace hmtx::workloads

#endif // HMTX_WORKLOADS_LANE_CLOCK_HH
