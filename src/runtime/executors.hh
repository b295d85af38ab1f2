/**
 * @file
 * Execution-model drivers: sequential, HMTX pipeline (DSWP/PS-DSWP),
 * HMTX DOALL, and DOACROSS, with VID-window management (§4.6) and
 * abort recovery (the initMTX handler analog).
 */

#ifndef HMTX_RUNTIME_EXECUTORS_HH
#define HMTX_RUNTIME_EXECUTORS_HH

#include <cstdint>
#include <string>

#include "core/tx_policy.hh"
#include "core/vid.hh"
#include "runtime/machine.hh"
#include "runtime/signal.hh"
#include "runtime/workload.hh"
#include "sim/stats.hh"

namespace hmtx::runtime
{

/** Everything measured during one workload run. */
struct ExecResult
{
    /** Execution model label ("sequential", "HMTX PS-DSWP x3", ...). */
    std::string model;
    /** Hot-loop execution time in cycles. */
    Tick cycles = 0;
    /** Output digest; must match across execution models. */
    std::uint64_t checksum = 0;
    /** Dynamic instructions across all cores. */
    std::uint64_t instructions = 0;
    /** Committed transactions. */
    std::uint64_t transactions = 0;
    /** VID resets performed (§4.6). */
    std::uint64_t vidResets = 0;
    /** Cycles stage 1 stalled waiting for a VID reset (§4.6). */
    Tick vidStallCycles = 0;
    /** Conditional branches and mispredictions (hot loop, Table 1). */
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    /** Memory-system statistics snapshot. */
    sim::SysStats stats;
    /** Transaction-mode policy counters (fallback/limited-set). */
    TxModeStats txStats;
    /** Simulator-side index diagnostics (not architectural). */
    sim::IndexStats indexStats;
    /** Zero-event fast-path diagnostics (simulator-side, like
     *  indexStats; excluded from differential equality). */
    sim::FastStats fastStats;
    /** SMTX runs only: value-validation failures detected by the
     *  commit process (0 for every abort-free run). */
    std::uint64_t smtxMisspeculations = 0;

    /** Branch misprediction rate (Table 1). */
    double
    mispredictRate() const
    {
        return branches ? static_cast<double>(mispredicts) / branches
                        : 0.0;
    }
};

/**
 * Fills the fields every runner reads the same way once @p m has
 * drained: cycles, then (after flushing dirty lines to memory) the
 * workload checksum, the memory-system, tx-mode, index and fast-path
 * stats, and the per-core instruction and branch counts. Callers add
 * their own transaction and runner counters.
 */
ExecResult collectRun(Machine& m, LoopWorkload& wl, std::string model);

/**
 * Shared VID-window sequencing: maps iteration numbers to (epoch, VID)
 * pairs, gates transaction begin on the epoch (stalling at window
 * exhaustion until the reset, §4.6), and serializes commits in
 * original program order (§4.7).
 */
class VidCoordinator
{
  public:
    /**
     * @param m         machine to coordinate
     * @param recovering executor flag; waiters throw sim::TxAborted
     *                   when it becomes true so they reach the
     *                   recovery barrier
     */
    VidCoordinator(Machine& m, const bool* recovering);

    /** Usable VIDs per window. */
    Vid maxVid() const { return maxVid_; }

    /** VID that iteration @p iter runs under. */
    Vid vidOf(std::uint64_t iter) const
    {
        return static_cast<Vid>(iter % maxVid_) + 1;
    }

    /**
     * Waits for iteration @p iter's window epoch, then sets the VID
     * register (beginMTX). Returns the VID.
     */
    sim::Task<Vid> beginIter(ThreadContext& tc, std::uint64_t iter);

    /**
     * Waits for iteration @p iter's in-order commit turn, commits, and
     * performs the VID reset when the window is exhausted.
     */
    sim::Task<void> commitIter(ThreadContext& tc, std::uint64_t iter);

    /** Iterations committed so far (monotonic, in order). */
    std::uint64_t committedIters() const { return committed_; }

    /** Cycles spent stalled waiting for VID resets (ablation §4.6). */
    Tick stallCycles() const { return stall_; }

    /** VID resets performed. */
    std::uint64_t resets() const { return resets_; }

    /** Wakes all waiters (recovery: they re-check and unwind). */
    void kickWaiters() { sig_.notifyAll(); }

    /** Re-aligns the window to the committed state after an abort. */
    void rollbackToCommitted();

  private:
    Machine& m_;
    const bool* recovering_;
    Vid maxVid_;
    std::uint64_t epoch_ = 0;
    std::uint64_t committed_ = 0;
    Tick stall_ = 0;
    std::uint64_t resets_ = 0;
    Signal sig_;
};

/** Drivers for each execution model. Each builds a fresh Machine. */
class Runner
{
  public:
    /** Original sequential loop on one core. */
    static ExecResult runSequential(LoopWorkload& wl,
                                    const sim::MachineConfig& cfg);

    /**
     * HMTX pipeline execution: stage 1 on core 0 and @p workers
     * replicated stage-2 workers (1 = DSWP, >1 = PS-DSWP), as in
     * Figure 1(c)/(d) and Figure 3.
     */
    static ExecResult runPipeline(LoopWorkload& wl,
                                  const sim::MachineConfig& cfg,
                                  unsigned workers);

    /** HMTX DOALL: whole iterations across @p workers cores. */
    static ExecResult runDoall(LoopWorkload& wl,
                               const sim::MachineConfig& cfg,
                               unsigned workers);

    /** DOACROSS with the loop-carried dependence passed core-to-core
     *  (Figure 1(b)); used by the Figure 1 schedule bench. */
    static ExecResult runDoacross(LoopWorkload& wl,
                                  const sim::MachineConfig& cfg,
                                  unsigned workers);

    /**
     * Dispatches on the workload's paradigm with all cores of @p cfg:
     * PS-DSWP/DSWP get numCores-1 workers, DOALL gets numCores.
     */
    static ExecResult runHmtx(LoopWorkload& wl,
                              const sim::MachineConfig& cfg);
};

} // namespace hmtx::runtime

#endif // HMTX_RUNTIME_EXECUTORS_HH
