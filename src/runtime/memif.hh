/**
 * @file
 * Abstract memory interface workloads are written against, so the same
 * workload code runs under HMTX (speculative, versioned accesses) and
 * under the SMTX baseline (non-speculative accesses plus software
 * logging/forwarding costs).
 */

#ifndef HMTX_RUNTIME_MEMIF_HH
#define HMTX_RUNTIME_MEMIF_HH

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/types.hh"
#include "runtime/thread_context.hh"
#include "sim/task.hh"

namespace hmtx::runtime
{

/**
 * Awaitable returned by every MemIf operation: either a timed
 * ThreadContext op, awaited directly with no coroutine frame of its
 * own, or a Task for implementations whose operation is a sequence of
 * timed ops (SmtxMem::load/store). The op's value converts to T: the
 * loaded word, nothing, or the branch outcome.
 */
template <typename T>
class MemOp
{
  public:
    MemOp(OpAwait op) : op_(op) {}
    MemOp(sim::Task<T> task) : task_(std::move(task)) {}

    bool await_ready() const { return isOp() && op_.await_ready(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> h)
    {
        if (!isOp())
            return task_.await_suspend(h);
        op_.await_suspend(h);
        return std::noop_coroutine();
    }

    T
    await_resume()
    {
        if (!isOp())
            return task_.await_resume();
        if constexpr (std::is_void_v<T>)
            op_.await_resume();
        else
            return static_cast<T>(op_.await_resume());
    }

  private:
    bool isOp() const { return op_.eq != nullptr; }

    OpAwait op_; // default (no queue) when holding a Task
    sim::Task<T> task_;
};

/**
 * Memory operations as seen by workload code. Implementations route
 * them to the simulated core with whatever extra behaviour the
 * execution model requires (HMTX: nothing, the hardware does the
 * validation; SMTX: per-access logging and forwarding).
 */
class MemIf
{
  public:
    virtual ~MemIf() = default;

    /** Loads @p size bytes at @p a. */
    virtual MemOp<std::uint64_t> load(Addr a, unsigned size = 8) = 0;

    /** Stores @p size bytes of @p v at @p a. */
    virtual MemOp<void> store(Addr a, std::uint64_t v,
                              unsigned size = 8) = 0;

    /** Models @p c cycles of computation. */
    virtual MemOp<void> compute(Cycles c) = 0;

    /**
     * Models a conditional branch and returns @p taken so workloads
     * can branch on data they just computed.
     */
    virtual MemOp<bool> branch(Addr pc, bool taken) = 0;
};

/**
 * Straight pass-through to the thread context, used by sequential
 * execution and by all HMTX paradigms (the transaction VID is already
 * set in the context's VID register by the executor).
 */
class DirectMem final : public MemIf
{
  public:
    explicit DirectMem(ThreadContext& tc) : tc_(tc) {}

    MemOp<std::uint64_t>
    load(Addr a, unsigned size = 8) override
    {
        return tc_.load(a, size);
    }

    MemOp<void>
    store(Addr a, std::uint64_t v, unsigned size = 8) override
    {
        return tc_.store(a, v, size);
    }

    MemOp<void> compute(Cycles c) override { return tc_.compute(c); }

    MemOp<bool>
    branch(Addr pc, bool taken) override
    {
        return tc_.branch(pc, taken);
    }

  private:
    ThreadContext& tc_;
};

} // namespace hmtx::runtime

#endif // HMTX_RUNTIME_MEMIF_HH
