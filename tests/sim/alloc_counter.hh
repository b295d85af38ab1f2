/**
 * @file
 * Heap-allocation counter for tests that check a structure allocates
 * nothing. A test binary that links alloc_counter.cc gets a global
 * operator new that counts every call.
 */

#ifndef HMTX_TESTS_SIM_ALLOC_COUNTER_HH
#define HMTX_TESTS_SIM_ALLOC_COUNTER_HH

#include <cstddef>

/** Calls to the global operator new so far in this process. */
std::size_t heapAllocations();

#endif // HMTX_TESTS_SIM_ALLOC_COUNTER_HH
