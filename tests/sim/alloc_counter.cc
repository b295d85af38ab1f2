/**
 * @file
 * Counting replacement of the global operator new and delete. They
 * live in a translation unit of their own: where the compiler can
 * inline this delete's free() into a caller, it sees that free()
 * given a pointer from operator new and warns
 * (-Wmismatched-new-delete), although the pair matches.
 */

#include "alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<std::size_t> gAllocs{0};

} // namespace

std::size_t
heapAllocations()
{
    return gAllocs.load();
}

void*
operator new(std::size_t n)
{
    ++gAllocs;
    if (void* p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}
