/**
 * @file
 * Flat open-addressing hash table keyed by cache-line address: the
 * storage behind CacheSystem's per-access bookkeeping (presence
 * filter, wrong-path shadow marks, per-VID read/write sets).
 */

#ifndef HMTX_SIM_FLAT_LINE_TABLE_HH
#define HMTX_SIM_FLAT_LINE_TABLE_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/types.hh"

namespace hmtx::sim
{

/** Value type of a FlatLineTable used as a plain set. */
struct NoValue
{};

/**
 * Map from line address to a small trivially-copyable value, stored
 * as one power-of-two array of {key, value} slots probed linearly.
 *
 * - A default-constructed table owns no storage: the first insert
 *   allocates. The simulator builds thousands of short-lived
 *   CacheSystems (one per differential cell), most of whose tables
 *   stay empty or tiny, so nothing is reserved up front.
 * - clear() keeps the capacity, so a table reused across
 *   transactions stops allocating once it has seen its largest
 *   footprint.
 * - The load factor stays at or below 1/2, so probe runs are short.
 * - erase() uses backward-shift deletion (no tombstones): probe
 *   chains stay exactly as long as the live entries need.
 * - Iteration order is the slot order, which depends on capacity and
 *   history. Callers that expose contents sort them or only count.
 *
 * Keys must be line addresses (64-byte aligned), so the all-ones
 * address can mark an empty slot. Pointers returned by find() and
 * tryEmplace() are invalidated by the next insert or erase.
 */
template <typename V>
class FlatLineTable
{
  public:
    /** Slot key of an empty slot; never a line-aligned address. */
    static constexpr Addr kEmpty = ~Addr{0};

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Slots currently allocated (0 until the first insert). */
    std::size_t capacity() const { return slots_.size(); }

    /** Value stored for @p la, or nullptr when absent. */
    V*
    find(Addr la)
    {
        const std::size_t i = slotOf(la);
        return i == kNone ? nullptr : &slots_[i].val;
    }
    const V*
    find(Addr la) const
    {
        const std::size_t i = slotOf(la);
        return i == kNone ? nullptr : &slots_[i].val;
    }

    bool contains(Addr la) const { return slotOf(la) != kNone; }

    /**
     * Value for @p la, value-initialized and inserted when absent.
     * @return {value, true when @p la was inserted}
     */
    std::pair<V*, bool>
    tryEmplace(Addr la)
    {
        assert(la != kEmpty);
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(la);
        while (slots_[i].key != la) {
            if (slots_[i].key == kEmpty) {
                slots_[i].key = la;
                slots_[i].val = V{};
                ++size_;
                return {&slots_[i].val, true};
            }
            i = (i + 1) & mask;
        }
        return {&slots_[i].val, false};
    }

    V& operator[](Addr la) { return *tryEmplace(la).first; }

    /** Adds @p la; true when it was not present yet. */
    bool insert(Addr la) { return tryEmplace(la).second; }

    /** Removes @p la; true when it was present. */
    bool
    erase(Addr la)
    {
        std::size_t i = slotOf(la);
        if (i == kNone)
            return false;
        // Backward shift: pull each later member of the probe run
        // into the hole unless its home lies cyclically in (hole, j]
        // (moving it would put it before its own home).
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (i + 1) & mask; slots_[j].key != kEmpty;
             j = (j + 1) & mask) {
            if (((j - home(slots_[j].key)) & mask) >= ((j - i) & mask)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i].key = kEmpty;
        --size_;
        return true;
    }

    /** Removes every entry; keeps the allocated slots. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (Slot& s : slots_)
            s.key = kEmpty;
        size_ = 0;
    }

    /** Applies @p fn(la, value) to every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        if (size_ == 0)
            return;
        for (const Slot& s : slots_)
            if (s.key != kEmpty)
                fn(s.key, s.val);
    }

  private:
    struct Slot
    {
        Addr key;
        [[no_unique_address]] V val;
    };

    static constexpr std::size_t kNone = ~std::size_t{0};
    static constexpr std::size_t kMinSlots = 16;

    /** Fibonacci hashing: the top log2(capacity) bits of the product,
     *  which mixes the (always zero) low line-offset bits away. */
    std::size_t
    home(Addr la) const
    {
        return static_cast<std::size_t>(
            (la * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    std::size_t
    slotOf(Addr la) const
    {
        if (size_ == 0)
            return kNone;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(la);; i = (i + 1) & mask) {
            if (slots_[i].key == la)
                return i;
            if (slots_[i].key == kEmpty)
                return kNone;
        }
    }

    /** Doubles the slot array (kMinSlots first) and rehashes. */
    void
    grow()
    {
        const std::size_t n = std::max(kMinSlots, slots_.size() * 2);
        std::vector<Slot> old =
            std::exchange(slots_, std::vector<Slot>(n, Slot{kEmpty, V{}}));
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
        const std::size_t mask = n - 1;
        for (const Slot& s : old) {
            if (s.key == kEmpty)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmpty)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    /** 64 - log2(capacity); meaningful once slots_ is allocated. */
    unsigned shift_ = 64;
};

/** A set of line addresses. */
using FlatLineSet = FlatLineTable<NoValue>;

} // namespace hmtx::sim

#endif // HMTX_SIM_FLAT_LINE_TABLE_HH
