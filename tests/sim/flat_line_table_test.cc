/**
 * @file
 * Unit tests of FlatLineTable, the open-addressing line-address table
 * behind CacheSystem's presence filter, shadow marks and per-VID
 * read/write sets. This binary links alloc_counter.cc, which replaces
 * the global operator new to count heap allocations, so it can check
 * that empty tables cost nothing and that clear() keeps the slots.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc_counter.hh"
#include "sim/flat_line_table.hh"
#include "sim/rng.hh"

namespace hmtx::sim
{
namespace
{

/** Home slot of @p la in a table of @p slots slots: the Fibonacci
 *  hash FlatLineTable documents (top log2(slots) bits). */
std::size_t
homeOf(Addr la, std::size_t slots)
{
    const unsigned shift = 64 - std::countr_zero(slots);
    return static_cast<std::size_t>((la * 0x9E3779B97F4A7C15ull) >> shift);
}

/** The first @p n line addresses whose home slot is @p home. */
std::vector<Addr>
linesWithHome(std::size_t home, std::size_t slots, std::size_t n)
{
    std::vector<Addr> out;
    for (Addr la = 0; out.size() < n; la += kLineBytes)
        if (homeOf(la, slots) == home)
            out.push_back(la);
    return out;
}

template <typename V>
std::vector<std::pair<Addr, V>>
sortedEntries(const FlatLineTable<V>& t)
{
    std::vector<std::pair<Addr, V>> out;
    t.forEach([&](Addr la, const V& v) { out.emplace_back(la, v); });
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FlatLineTable, EraseShiftsBackAcrossTheWrap)
{
    // Three lines homed on the last slot of the 16-slot table occupy
    // slots 15, 0 and 1; a fourth homed on slot 0 probes on to slot 2.
    // Erasing the head of that run must shift the others back across
    // the wrap so that every one stays reachable from its home.
    FlatLineTable<std::uint64_t> t;
    const std::vector<Addr> tail = linesWithHome(15, 16, 3);
    const Addr head = linesWithHome(0, 16, 1)[0];
    for (std::size_t i = 0; i < tail.size(); ++i)
        t[tail[i]] = 100 + i;
    t[head] = 7;
    ASSERT_EQ(t.capacity(), 16u);

    EXPECT_TRUE(t.erase(tail[0]));
    EXPECT_FALSE(t.contains(tail[0]));
    ASSERT_NE(t.find(tail[1]), nullptr);
    EXPECT_EQ(*t.find(tail[1]), 101u);
    ASSERT_NE(t.find(tail[2]), nullptr);
    EXPECT_EQ(*t.find(tail[2]), 102u);
    ASSERT_NE(t.find(head), nullptr);
    EXPECT_EQ(*t.find(head), 7u);

    EXPECT_TRUE(t.erase(tail[2]));
    EXPECT_TRUE(t.contains(tail[1]));
    EXPECT_TRUE(t.contains(head));
    EXPECT_FALSE(t.erase(tail[2]));
    EXPECT_EQ(t.size(), 2u);
}

TEST(FlatLineTable, GrowsAndKeepsEveryEntry)
{
    FlatLineTable<std::uint64_t> t;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        t[i * kLineBytes] = i;
        // The load factor never exceeds one half.
        ASSERT_GE(t.capacity(), 2 * t.size());
    }
    EXPECT_EQ(t.size(), 1000u);
    EXPECT_EQ(t.capacity(), 2048u);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        ASSERT_NE(t.find(i * kLineBytes), nullptr);
        EXPECT_EQ(*t.find(i * kLineBytes), i);
    }
    EXPECT_EQ(t.find(1000 * kLineBytes), nullptr);
}

TEST(FlatLineTable, ClearKeepsCapacity)
{
    FlatLineSet s;
    for (Addr i = 0; i < 100; ++i)
        s.insert(i * kLineBytes);
    const std::size_t cap = s.capacity();
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.capacity(), cap);
    EXPECT_FALSE(s.contains(0));

    // Refilling to the old footprint reuses the slots: no allocation.
    const std::size_t before = heapAllocations();
    for (Addr i = 0; i < 100; ++i)
        EXPECT_TRUE(s.insert((i + 500) * kLineBytes));
    EXPECT_EQ(heapAllocations(), before);
    EXPECT_EQ(s.capacity(), cap);
    EXPECT_EQ(s.size(), 100u);
}

TEST(FlatLineTable, ContentsDoNotDependOnInsertionOrder)
{
    // The same lines inserted forwards into a fresh table and
    // backwards into one that grew larger and was cleared sit in
    // different slot orders, but hold the same entries.
    std::vector<Addr> lines;
    for (Addr i = 0; i < 40; ++i)
        lines.push_back((i * 37 % 101) * kLineBytes);
    FlatLineTable<std::uint64_t> fwd, bwd;
    for (Addr i = 0; i < 300; ++i)
        bwd[(i + 1000) * kLineBytes] = 0;
    bwd.clear();
    for (Addr la : lines)
        fwd[la] = la / kLineBytes;
    for (auto it = lines.rbegin(); it != lines.rend(); ++it)
        bwd[*it] = *it / kLineBytes;
    EXPECT_NE(fwd.capacity(), bwd.capacity());
    EXPECT_EQ(sortedEntries(fwd), sortedEntries(bwd));
}

TEST(FlatLineTable, MatchesAReferenceMapUnderRandomChurn)
{
    // Few distinct lines and many erases: long probe runs, frequent
    // backward shifts, wrap-arounds and regrowth.
    FlatLineTable<std::uint64_t> t;
    std::unordered_map<Addr, std::uint64_t> ref;
    Rng rng(17);
    for (int op = 0; op < 20000; ++op) {
        const Addr la = rng.range(64) * kLineBytes;
        if (rng.chance(0.45)) {
            EXPECT_EQ(t.erase(la), ref.erase(la) == 1);
        } else {
            const auto [v, inserted] = t.tryEmplace(la);
            EXPECT_EQ(inserted, !ref.contains(la));
            *v += op;
            ref[la] += op;
        }
        ASSERT_EQ(t.size(), ref.size());
    }
    std::vector<std::pair<Addr, std::uint64_t>> want(ref.begin(),
                                                     ref.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(sortedEntries(t), want);
}

TEST(FlatLineTable, EmptyTablesMakeNoHeapAllocation)
{
    constexpr std::size_t kTables = 10000;
    using Map = FlatLineTable<std::uint64_t>;
    // Raw storage first, so that constructing the tables into it is
    // the only thing the counter sees.
    std::vector<unsigned char> sets(kTables * sizeof(FlatLineSet));
    std::vector<unsigned char> maps(kTables * sizeof(Map));
    static_assert(alignof(FlatLineSet) <= alignof(std::max_align_t));
    static_assert(alignof(Map) <= alignof(std::max_align_t));
    const std::size_t before = heapAllocations();
    std::size_t found = 0;
    for (std::size_t i = 0; i < kTables; ++i) {
        auto* s = new (sets.data() + i * sizeof(FlatLineSet)) FlatLineSet;
        auto* m = new (maps.data() + i * sizeof(Map)) Map;
        found += s->contains(i * kLineBytes) + (m->find(0) != nullptr);
        found += s->erase(0) + m->erase(i * kLineBytes);
        s->clear();
        m->forEach([&](Addr, std::uint64_t) { ++found; });
    }
    EXPECT_EQ(heapAllocations(), before);
    EXPECT_EQ(found, 0u);
    for (std::size_t i = 0; i < kTables; ++i) {
        reinterpret_cast<FlatLineSet*>(sets.data() +
                                       i * sizeof(FlatLineSet))
            ->~FlatLineSet();
        reinterpret_cast<Map*>(maps.data() + i * sizeof(Map))->~Map();
    }
}

} // namespace
} // namespace hmtx::sim
