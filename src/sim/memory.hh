/**
 * @file
 * Functional main-memory model.
 */

#ifndef HMTX_SIM_MEMORY_HH
#define HMTX_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "core/types.hh"

namespace hmtx::sim
{

/** One cache line's worth of backing data. */
using LineData = std::array<std::uint8_t, kLineBytes>;

/**
 * Sparse functional main memory. Lines materialize zero-filled on
 * first touch. Main memory only ever holds committed data: speculative
 * versions live in the caches until their transaction commits (the one
 * exception, §5.4, writes back *non-speculative* S-O data, which is by
 * definition committed).
 */
class MainMemory
{
  public:
    /** Reads a full line. */
    const LineData&
    readLine(Addr a)
    {
        return lines_[lineAddr(a)];
    }

    /** Writes a full line. */
    void
    writeLine(Addr a, const LineData& d)
    {
        lines_[lineAddr(a)] = d;
    }

    /**
     * Reads an integer of @p size bytes (little-endian) at @p a.
     * @pre the access does not cross a line boundary
     */
    std::uint64_t
    read(Addr a, unsigned size)
    {
        const LineData& d = lines_[lineAddr(a)];
        std::uint64_t v = 0;
        unsigned off = lineOffset(a);
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<std::uint64_t>(d[off + i]) << (8 * i);
        return v;
    }

    /** Writes an integer of @p size bytes (little-endian) at @p a. */
    void
    write(Addr a, std::uint64_t v, unsigned size)
    {
        LineData& d = lines_[lineAddr(a)];
        unsigned off = lineOffset(a);
        for (unsigned i = 0; i < size; ++i)
            d[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    /** Number of lines ever touched. */
    std::size_t touchedLines() const { return lines_.size(); }

    /**
     * Pre-sizes the backing table for at least @p n lines. While it
     * holds capacity for every key it receives, inserts will not
     * rehash, so references and iterators stay valid — bulk writers
     * use this to insert while a forEachLine() walk is in flight.
     */
    void reserveLines(std::size_t n) { lines_.reserve(n); }

    /**
     * Applies @p fn(lineAddr, data) to every touched line. Iteration
     * order is the unordered_map's; callers that compare images must
     * not depend on order (the differential tests collect into sorted
     * maps).
     */
    template <typename Fn>
    void
    forEachLine(Fn&& fn) const
    {
        for (const auto& [a, d] : lines_)
            fn(a, d);
    }

  private:
    std::unordered_map<Addr, LineData> lines_;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_MEMORY_HH
