/**
 * @file
 * Differential execution of fuzz schedules: one schedule runs against
 * the GoldenModel and eight real CacheSystem cells in three groups —
 * the four full-HMTX cells ({SnoopBus, DirectoryFabric} × {lazy, eager
 * commit}), two best-effort cells ({bus, dir} with the retry/
 * fallback-lock policy), and two limited-set cells ({bus, dir}
 * tracking only the first K speculative lines per VID) — and every
 * architecturally visible outcome is compared:
 *
 *  - per-op: load values vs. the golden visibility rule, abort
 *    outcomes vs. the golden dependence rule, and value/aborted/
 *    needSla/l1Hit/lcVid/abortGen equality across cells;
 *  - per-commit: read/write validation sets vs. the golden sets;
 *  - periodically and at the end: checkInvariants() on every cell;
 *  - at the end: the flushed memory image vs. the golden committed
 *    image, and full image equality across cells.
 *
 * Capacity aborts (§5.4) are environmental — no timing-free model can
 * predict them — so a real abort the golden did not predict is
 * accepted iff the cells' capacityAborts counters moved, and the
 * golden resynchronizes via abortAll().
 */

#ifndef HMTX_CHECK_DIFFER_HH
#define HMTX_CHECK_DIFFER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "check/schedule.hh"

namespace hmtx::sim
{
class CacheSystem;
}

namespace hmtx::check
{

/** Outcome of one differential run. */
struct Divergence
{
    bool found = false;
    /** Index of the diverging op, or SIZE_MAX for end-of-run checks. */
    std::size_t opIndex = static_cast<std::size_t>(-1);
    std::string what;
};

/** Aggregated coverage counters across a batch (from cell 0). */
struct Coverage
{
    std::uint64_t schedules = 0;
    std::uint64_t ops = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t capacityAborts = 0;
    std::uint64_t vidResets = 0;
    std::uint64_t spills = 0;
    std::uint64_t refills = 0;
    std::uint64_t soRefetches = 0;
    std::uint64_t slaConfirms = 0;
    std::uint64_t slaMismatchAborts = 0;
    /** From the best-effort group's cells (TxModeStats). */
    std::uint64_t fallbackEntries = 0;
    std::uint64_t fallbackAccesses = 0;
    std::uint64_t fallbackCommits = 0;
    std::uint64_t fallbackWrapRemaps = 0;
    /** From the limited-set group's cells. */
    std::uint64_t limitedSetAborts = 0;
    /** Zero-event fast path (DESIGN.md §13), summed over every cell
     *  whose fastPathMask bit was set. */
    std::uint64_t fastAttempts = 0;
    std::uint64_t fastHits = 0;
    std::uint64_t fastGenRejections = 0;
};

/**
 * Cell groups of the differential matrix. Each group runs the whole
 * schedule independently against its own golden model: cells of
 * different commit modes diverge architecturally by design, so
 * cross-cell comparison is only meaningful within a group.
 *
 *  - kGroupHmtx: the four full-HMTX cells — {bus, dir} × {lazy, eager};
 *  - kGroupBtx: {bus, dir} best-effort cells (fallback serialization);
 *  - kGroupLtd: {bus, dir} limited-set cells (first-K-lines tracking).
 */
enum GroupSet : unsigned
{
    kGroupHmtx = 1u << 0,
    kGroupBtx = 1u << 1,
    kGroupLtd = 1u << 2,
    kGroupAll = kGroupHmtx | kGroupBtx | kGroupLtd,
};

/**
 * Optional per-run instrumentation. The model checker
 * (check/explorer.hh) uses onCell to install a DeliveryChooser on
 * each cell's fabric before the schedule replays; plain fuzzing
 * passes no hooks and runs exactly as before.
 */
struct RunHooks
{
    /** Called once per constructed matrix cell, before any op runs. */
    std::function<void(const char* cellName, sim::CacheSystem&)> onCell;
};

/** Runs @p s against the golden model and the selected cell groups. */
Divergence runSchedule(const Schedule& s, Coverage* cov = nullptr,
                       unsigned groupMask = kGroupAll,
                       const RunHooks* hooks = nullptr);

/**
 * ddmin-style shrink: repeatedly deletes op chunks while the schedule
 * keeps diverging (any divergence counts — the minimal schedule may
 * surface the same bug through a different check). Runs at most
 * @p maxRuns differential executions.
 */
Schedule shrinkSchedule(const Schedule& s, unsigned maxRuns = 4000,
                        unsigned groupMask = kGroupAll);

} // namespace hmtx::check

#endif // HMTX_CHECK_DIFFER_HH
