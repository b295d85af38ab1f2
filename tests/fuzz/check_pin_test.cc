/**
 * @file
 * Pins what the checker checks. The model checker and the differential
 * runner report counts (interleavings explored, branches pruned,
 * coverage counters) that a change to the check layer's plumbing must
 * not move: a faster checker that visits fewer interleavings or runs
 * fewer commits is not the same checker. The constants below were
 * captured from explore() and runSchedule() as they ran when every
 * differential cell still owned a private event queue, before the
 * cells started sharing one read-only clock (DESIGN.md §10).
 *
 * The concurrency case runs the same work on two threads at once:
 * the shared clock is process-wide, so concurrent hmtx_fuzz --threads
 * workers must see exactly what a sequential run sees.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/differ.hh"
#include "check/explorer.hh"
#include "check/schedule.hh"

namespace
{

using namespace hmtx::check;

/** explore(generateProgram(seed, 2, 6)) with deliveryPoints set. */
struct ExploreRow
{
    std::uint64_t seed;
    unsigned deliveryPoints;
    std::uint64_t explored;
    std::uint64_t pruned;
    std::uint64_t deliveryRuns;
    std::uint64_t deliveryPointsSeen;
    std::uint64_t envAborts;
    bool found;
};

constexpr ExploreRow kExplore[] = {
    {1, 0, 15, 0, 0, 0, 0, false},
    {2, 0, 20, 0, 0, 0, 0, false},
    {3, 0, 15, 0, 0, 0, 0, false},
    {7, 0, 12, 1, 0, 0, 0, false},
    {42, 0, 20, 0, 0, 0, 0, false},
    {101, 0, 15, 0, 0, 0, 0, false},
    {1000, 0, 20, 0, 0, 0, 0, false},
    {100001, 0, 20, 0, 0, 0, 0, false},
    {2, 3, 20, 0, 20, 20, 0, false},
    {7, 3, 12, 1, 12, 12, 0, false},
    {42, 3, 20, 0, 60, 40, 0, false},
    {1000, 3, 20, 0, 76, 44, 0, false},
};

/** The Coverage counters perfbench's check-matrix digest hashes, in
 *  its order. */
constexpr std::size_t kCounters = 16;
using Counters = std::array<std::uint64_t, kCounters>;

Counters
counters(const Coverage& c)
{
    return {c.schedules,         c.ops,
            c.commits,           c.aborts,
            c.capacityAborts,    c.vidResets,
            c.spills,            c.refills,
            c.soRefetches,       c.slaConfirms,
            c.slaMismatchAborts, c.fallbackEntries,
            c.fallbackAccesses,  c.fallbackCommits,
            c.fallbackWrapRemaps, c.limitedSetAborts};
}

/** runSchedule(generate(seed, 160), &cov, group). */
struct CoverageRow
{
    std::uint64_t seed;
    unsigned group;
    bool found;
    Counters cov;
};

constexpr CoverageRow kCoverage[] = {
    {1, kGroupHmtx, false, {1, 148, 19, 6, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {1, kGroupBtx, false, {1, 148, 19, 6, 0, 1, 0, 0, 0, 0, 0, 5, 10, 5, 0, 0}},
    {1, kGroupLtd, false, {1, 149, 19, 23, 17, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 17}},
    {2, kGroupHmtx, false, {1, 169, 19, 6, 0, 1, 0, 0, 0, 21, 0, 0, 0, 0, 0, 0}},
    {2, kGroupBtx, false, {1, 165, 19, 6, 0, 1, 0, 0, 0, 17, 0, 5, 10, 5, 0, 0}},
    {2, kGroupLtd, false, {1, 162, 19, 23, 17, 2, 0, 0, 0, 13, 0, 0, 0, 0, 0, 17}},
    {7, kGroupHmtx, false, {1, 133, 15, 8, 0, 1, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0}},
    {7, kGroupBtx, false, {1, 131, 15, 8, 0, 1, 0, 0, 2, 14, 0, 4, 7, 4, 0, 0}},
    {7, kGroupLtd, false, {1, 129, 15, 10, 3, 1, 0, 0, 0, 12, 0, 0, 0, 0, 0, 3}},
    {42, kGroupHmtx, false, {1, 170, 18, 8, 0, 1, 0, 0, 2, 23, 0, 0, 0, 0, 0, 0}},
    {42, kGroupBtx, false, {1, 166, 18, 8, 0, 1, 0, 0, 2, 19, 0, 5, 7, 4, 1, 0}},
    {42, kGroupLtd, false, {1, 170, 18, 8, 0, 1, 0, 0, 2, 23, 0, 0, 0, 0, 0, 0}},
};

ExploreRow
exploreRow(std::uint64_t seed, unsigned deliveryPoints)
{
    ExploreConfig ec;
    ec.deliveryPoints = deliveryPoints;
    const ExploreResult r = explore(generateProgram(seed, 2, 6), ec);
    return {seed,
            deliveryPoints,
            r.stats.explored,
            r.stats.pruned,
            r.stats.deliveryRuns,
            r.stats.deliveryPointsSeen,
            r.stats.envAborts,
            r.div.found};
}

CoverageRow
coverageRow(std::uint64_t seed, unsigned group)
{
    Coverage cov;
    const Divergence d = runSchedule(generate(seed, 160), &cov, group);
    return {seed, group, d.found, counters(cov)};
}

void
expectRow(const ExploreRow& got, const ExploreRow& want)
{
    const auto tag = ::testing::Message()
        << "seed " << want.seed << " delivery " << want.deliveryPoints;
    EXPECT_EQ(got.explored, want.explored) << tag;
    EXPECT_EQ(got.pruned, want.pruned) << tag;
    EXPECT_EQ(got.deliveryRuns, want.deliveryRuns) << tag;
    EXPECT_EQ(got.deliveryPointsSeen, want.deliveryPointsSeen) << tag;
    EXPECT_EQ(got.envAborts, want.envAborts) << tag;
    EXPECT_EQ(got.found, want.found) << tag;
}

void
expectRow(const CoverageRow& got, const CoverageRow& want)
{
    EXPECT_EQ(got.found, want.found)
        << "seed " << want.seed << " group " << want.group;
    for (std::size_t i = 0; i < kCounters; ++i)
        EXPECT_EQ(got.cov[i], want.cov[i])
            << "seed " << want.seed << " group " << want.group
            << " counter #" << i;
}

/** Every pinned exploration and replay, in table order. */
struct PinnedRun
{
    std::vector<ExploreRow> explore;
    std::vector<CoverageRow> coverage;
};

PinnedRun
runAll()
{
    PinnedRun out;
    for (const ExploreRow& w : kExplore)
        out.explore.push_back(exploreRow(w.seed, w.deliveryPoints));
    for (const CoverageRow& w : kCoverage)
        out.coverage.push_back(coverageRow(w.seed, w.group));
    return out;
}

TEST(CheckPin, ExploreStatsAtFixedSeeds)
{
    for (const ExploreRow& w : kExplore)
        expectRow(exploreRow(w.seed, w.deliveryPoints), w);
}

TEST(CheckPin, CoverageAtFixedSeeds)
{
    for (const CoverageRow& w : kCoverage)
        expectRow(coverageRow(w.seed, w.group), w);
}

TEST(CheckPin, ConcurrentRunsMatchSequential)
{
    const PinnedRun seq = runAll();
    PinnedRun par[2];
    std::thread a([&] { par[0] = runAll(); });
    std::thread b([&] { par[1] = runAll(); });
    a.join();
    b.join();
    for (const PinnedRun& p : par) {
        ASSERT_EQ(p.explore.size(), seq.explore.size());
        ASSERT_EQ(p.coverage.size(), seq.coverage.size());
        for (std::size_t i = 0; i < seq.explore.size(); ++i)
            expectRow(p.explore[i], seq.explore[i]);
        for (std::size_t i = 0; i < seq.coverage.size(); ++i)
            expectRow(p.coverage[i], seq.coverage[i]);
    }
}

} // namespace
