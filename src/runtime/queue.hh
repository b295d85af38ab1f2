/**
 * @file
 * Single-producer/single-consumer queue: SimQueue passes values
 * between pipeline stages through *simulated* memory (it models the
 * DSWP produce/consume primitive).
 */

#ifndef HMTX_RUNTIME_QUEUE_HH
#define HMTX_RUNTIME_QUEUE_HH

#include <cstdint>

#include "runtime/signal.hh"
#include "sim/task.hh"

namespace hmtx::runtime
{

class Machine;
class ThreadContext;

/**
 * The produce/consume primitive DSWP pipelines use to pass VIDs (and,
 * under DOACROSS, loop-carried values) between stages (Figure 3).
 *
 * The slots and indices live in simulated memory, so every operation
 * generates real coherence traffic (the head/tail lines ping-pong
 * between the producing and consuming cores). Control flow (blocking
 * when empty/full) is host-side via Signals. Queue operations are
 * non-speculative bookkeeping; callers issue them from VID 0, per the
 * beginMTX(0) idiom of Figure 3(b).
 */
class SimQueue
{
  public:
    /**
     * @param m        machine whose heap backs the queue
     * @param capacity number of 64-bit slots
     */
    SimQueue(Machine& m, unsigned capacity);

    /** Enqueues @p v, blocking while full. Throws sim::TxAborted if
     *  abortWake() fires while blocked. */
    sim::Task<void> produce(ThreadContext& tc, std::uint64_t v);

    /** Dequeues, blocking while empty. Throws sim::TxAborted if
     *  abortWake() fires while blocked. */
    sim::Task<std::uint64_t> consume(ThreadContext& tc);

    /** Entries currently queued. */
    std::uint64_t size() const { return tail_ - head_; }

    /**
     * Wakes every blocked producer/consumer with an abort so pipeline
     * recovery can collect all threads at the barrier.
     */
    void abortWake();

    /** Empties the queue and clears the abort flag (recovery). */
    void reset();

  private:
    Machine& m_;
    unsigned cap_;
    Addr slots_;
    Addr headAddr_;
    Addr tailAddr_;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
    bool abortFlag_ = false;
    Signal notEmpty_;
    Signal notFull_;
};

} // namespace hmtx::runtime

#endif // HMTX_RUNTIME_QUEUE_HH
