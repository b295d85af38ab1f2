#include "runtime/executors.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/queue.hh"
#include "runtime/thread_context.hh"
#include "runtime/tx_output.hh"

namespace hmtx::runtime
{

ExecResult
collectRun(Machine& m, LoopWorkload& wl, std::string model)
{
    ExecResult r;
    r.model = std::move(model);
    r.cycles = m.now();
    m.sys().flushDirtyToMemory();
    r.checksum = wl.checksum(m);
    r.stats = m.sys().stats();
    r.txStats = m.sys().txPolicy().stats();
    r.indexStats = m.sys().indexStats();
    r.fastStats = m.sys().fastStats();
    for (CoreId c = 0; c < m.config().numCores; ++c) {
        r.instructions += m.ctx(c).instructions();
        r.branches += m.ctx(c).predictor().branches();
        r.mispredicts += m.ctx(c).predictor().mispredicts();
    }
    return r;
}

// --- VidCoordinator -----------------------------------------------------

VidCoordinator::VidCoordinator(Machine& m, const bool* recovering)
    : m_(m), recovering_(recovering),
      maxVid_(m.config().maxVid()), sig_(m.eq())
{}

sim::Task<Vid>
VidCoordinator::beginIter(ThreadContext& tc, std::uint64_t iter)
{
    // A thread must never enter a fresh transaction while recovery is
    // pending: it would race the replay of its own iteration.
    if (recovering_ && *recovering_)
        throw sim::TxAborted{};
    const std::uint64_t e = iter / maxVid_;
    const Vid v = vidOf(iter);
    const Tick t0 = m_.now();
    while (epoch_ != e) {
        // The window is exhausted: new transactions wait until the
        // one with the maximum VID commits and the reset runs (§4.6).
        co_await sig_.wait();
        if (recovering_ && *recovering_)
            throw sim::TxAborted{};
    }
    stall_ += m_.now() - t0;
    tc.beginMtx(v);
    co_return v;
}

sim::Task<void>
VidCoordinator::commitIter(ThreadContext& tc, std::uint64_t iter)
{
    const std::uint64_t e = iter / maxVid_;
    const Vid v = vidOf(iter);
    // The fallback lock holder must commit before joining recovery:
    // its serialized stores already reached committed memory, so
    // unwinding here would re-execute them on replay. It is VID
    // LC+1 by construction, so it never waits in the loop below and
    // recovery completes right after it commits and releases the lock.
    if (recovering_ && *recovering_ &&
        !m_.sys().txPolicy().serializes(v)) {
        throw sim::TxAborted{};
    }
    while (epoch_ != e || m_.sys().lcVid() != v - 1) {
        // Commits must occur consecutively (§4.7): wait for our turn.
        co_await sig_.wait();
        if (recovering_ && *recovering_ &&
            !m_.sys().txPolicy().serializes(v)) {
            throw sim::TxAborted{};
        }
    }
    co_await tc.commitMtx(v);
    ++committed_;
    if (v == maxVid_) {
        // Every VID of the window has committed; reset (§4.6).
        m_.sys().vidReset();
        ++epoch_;
        ++resets_;
    }
    sig_.notifyAll();
}

void
VidCoordinator::rollbackToCommitted()
{
    epoch_ = committed_ / maxVid_;
    sig_.notifyAll();
}

// --- shared pipeline/DOALL plumbing ---------------------------------------

namespace
{

constexpr std::uint64_t kDoneToken = ~std::uint64_t{0};

/** State shared by the tasks of one parallel run. */
struct Shared
{
    Shared(LoopWorkload& w, Machine& mach, unsigned tasks)
        : wl(w), m(mach), coord(mach, &recovering), nTasks(tasks),
          barrier(mach.eq()), doneSig(mach.eq()),
          txOut(w.txOutput())
    {}

    LoopWorkload& wl;
    Machine& m;
    VidCoordinator coord;
    std::vector<std::unique_ptr<SimQueue>> queues;

    unsigned nTasks;
    bool recovering = false;
    unsigned atBarrier = 0;
    std::uint64_t restartIter = 0;
    bool done = false;
    std::uint64_t abortsRecovered = 0;
    Signal barrier;
    Signal doneSig;
    /** Workload's transactional output stream, if any (§4.7). */
    TxOutput* txOut = nullptr;

    /** Marks completion once the last iteration committed. */
    void
    checkDone()
    {
        if (coord.committedIters() == wl.iterations()) {
            done = true;
            doneSig.notifyAll();
        }
    }
};

/**
 * Recovery barrier (the initMTX recovery-code analog): the first
 * thread to unwind flags recovery and wakes every blocked thread; the
 * last one to arrive resets queues, re-aligns the VID window with the
 * committed prefix of the iteration space, and releases everyone.
 */
sim::Task<void>
recoveryBarrier(Shared& sh, ThreadContext& tc)
{
    tc.beginMtx(kNonSpecVid);
    if (!sh.recovering) {
        sh.recovering = true;
        ++sh.abortsRecovered;
        if (sh.abortsRecovered > sh.m.config().maxRecoveries) {
            throw std::runtime_error(
                "abort-recovery livelock: " +
                std::to_string(sh.abortsRecovered) +
                " recoveries (false misspeculation storm; see "
                "\u00a75.1)");
        }
        for (auto& q : sh.queues)
            q->abortWake();
        sh.coord.kickWaiters();
        sh.doneSig.notifyAll();
    }
    ++sh.atBarrier;
    if (sh.atBarrier == sh.nTasks) {
        // Defensive flush: a thread that slipped into a fresh
        // transaction between the hardware abort and the recovery
        // flag may have left speculative state behind.
        sh.m.sys().abortAll();
        if (sh.txOut) {
            // Uncommitted buffered output vanishes with the rest of
            // the speculative state (§4.7); committed output stays.
            sh.txOut->abortAll(sh.m.sys().lcVid());
        }
        sh.restartIter = sh.coord.committedIters();
        for (auto& q : sh.queues)
            q->reset();
        sh.coord.rollbackToCommitted();
        sh.atBarrier = 0;
        sh.recovering = false;
        sh.barrier.notifyAll();
        co_return;
    }
    while (sh.recovering)
        co_await sh.barrier.wait();
}

/** Stage 1: runs the sequential pipeline stage and feeds workers. */
sim::Task<void>
stage1Task(Shared& sh, unsigned workers)
{
    ThreadContext& tc = sh.m.ctx(0);
    DirectMem mem(tc);
    const std::uint64_t n = sh.wl.iterations();
    std::uint64_t i = 0;
    for (;;) {
        bool recover = false;
        try {
            while (i < n) {
                if (sh.recovering)
                    throw sim::TxAborted{};
                co_await sh.coord.beginIter(tc, i);
                co_await sh.wl.stage1(mem, i);
                // Done with our part of the MTX; back to bookkeeping
                // (Figure 3(b): beginMTX(0) does not commit).
                tc.beginMtx(kNonSpecVid);
                co_await sh.queues[i % workers]->produce(tc, i);
                ++i;
            }
            for (unsigned w = 0; w < workers; ++w)
                co_await sh.queues[w]->produce(tc, kDoneToken);
            // Stand by until everything committed: a late abort sends
            // us back to re-produce uncommitted iterations.
            while (!sh.done) {
                if (sh.recovering)
                    throw sim::TxAborted{};
                co_await sh.doneSig.wait();
            }
        } catch (const sim::TxAborted&) {
            recover = true; // co_await is illegal inside a handler
        }
        if (!recover)
            co_return;
        co_await recoveryBarrier(sh, tc);
        i = sh.restartIter;
    }
}

/** Replicated stage 2 worker w (cores 1 + w). */
sim::Task<void>
workerTask(Shared& sh, unsigned w)
{
    ThreadContext& tc = sh.m.ctx(1 + w);
    DirectMem mem(tc);
    for (;;) {
        bool recover = false;
        try {
            for (;;) {
                if (sh.recovering)
                    throw sim::TxAborted{};
                std::uint64_t i =
                    co_await sh.queues[w]->consume(tc);
                if (i == kDoneToken)
                    break;
                tc.beginMtx(sh.coord.vidOf(i));
                co_await sh.wl.stage2(mem, i);
                co_await sh.coord.commitIter(tc, i);
                if (sh.txOut)
                    sh.txOut->commit(sh.coord.vidOf(i));
                sh.checkDone();
            }
            while (!sh.done) {
                if (sh.recovering)
                    throw sim::TxAborted{};
                co_await sh.doneSig.wait();
            }
        } catch (const sim::TxAborted&) {
            recover = true;
        }
        if (!recover)
            co_return;
        co_await recoveryBarrier(sh, tc);
    }
}

/** DOALL worker: whole iterations, round-robin. */
sim::Task<void>
doallTask(Shared& sh, unsigned w, unsigned workers)
{
    ThreadContext& tc = sh.m.ctx(w);
    DirectMem mem(tc);
    const std::uint64_t n = sh.wl.iterations();
    std::uint64_t i = w;
    for (;;) {
        bool recover = false;
        try {
            for (; i < n; i += workers) {
                if (sh.recovering)
                    throw sim::TxAborted{};
                co_await sh.coord.beginIter(tc, i);
                co_await sh.wl.stage1(mem, i);
                co_await sh.wl.stage2(mem, i);
                co_await sh.coord.commitIter(tc, i);
                if (sh.txOut)
                    sh.txOut->commit(sh.coord.vidOf(i));
                sh.checkDone();
            }
            while (!sh.done) {
                if (sh.recovering)
                    throw sim::TxAborted{};
                co_await sh.doneSig.wait();
            }
        } catch (const sim::TxAborted&) {
            recover = true;
        }
        if (!recover)
            co_return;
        co_await recoveryBarrier(sh, tc);
        // Resume at the first uncommitted iteration this worker owns.
        std::uint64_t c = sh.restartIter;
        i = c + ((w + workers - c % workers) % workers);
    }
}

/**
 * DOACROSS worker: whole iterations in transactions, with the
 * loop-carried dependence token passed core-to-core every iteration
 * (Figure 1(b)). No recovery path: used for schedule comparison runs.
 */
sim::Task<void>
doacrossTask(Shared& sh, unsigned w, unsigned workers)
{
    ThreadContext& tc = sh.m.ctx(w);
    DirectMem mem(tc);
    const std::uint64_t n = sh.wl.iterations();
    for (std::uint64_t i = w; i < n; i += workers) {
        if (i > 0) {
            std::uint64_t tok = co_await sh.queues[w]->consume(tc);
            (void)tok;
        }
        co_await sh.coord.beginIter(tc, i);
        co_await sh.wl.stage1(mem, i);
        // The next iteration's thread may start only now: hand over
        // the loop-carried dependence.
        tc.beginMtx(kNonSpecVid);
        if (i + 1 < n)
            co_await sh.queues[(w + 1) % workers]->produce(tc, i + 1);
        tc.beginMtx(sh.coord.vidOf(i));
        co_await sh.wl.stage2(mem, i);
        co_await sh.coord.commitIter(tc, i);
        sh.checkDone();
    }
}

ExecResult
collect(Machine& m, LoopWorkload& wl, Shared* sh, std::string model)
{
    ExecResult r = collectRun(m, wl, std::move(model));
    r.transactions = r.stats.committedTxs;
    if (sh) {
        r.vidResets = sh->coord.resets();
        r.vidStallCycles = sh->coord.stallCycles();
    }
    return r;
}

sim::Task<void>
sequentialRoot(Machine& m, LoopWorkload& wl)
{
    DirectMem mem(m.ctx(0));
    co_await wl.runSequential(mem);
}

/**
 * Clamps a requested worker count to the cores the machine actually
 * has (minus @p reserved cores the schedule occupies otherwise) and
 * records how many cores the resulting schedule leaves idle. Without
 * the clamp a caller asking for more workers than cores would index
 * past the machine's thread contexts; without the stat a schedule
 * narrower than the machine would waste cores silently.
 */
unsigned
clampWorkers(Machine& m, unsigned workers, unsigned reserved)
{
    const unsigned cores = m.config().numCores;
    const unsigned avail = cores > reserved ? cores - reserved : 1;
    workers = std::clamp(workers, 1u, avail);
    const unsigned used = reserved + workers;
    m.sys().stats().idleCores = cores > used ? cores - used : 0;
    return workers;
}

} // namespace

// --- Runner ------------------------------------------------------------------

ExecResult
Runner::runSequential(LoopWorkload& wl, const sim::MachineConfig& cfg)
{
    Machine m(cfg);
    wl.setup(m);
    m.sys().stats().idleCores = cfg.numCores - 1;
    m.spawn(sequentialRoot(m, wl));
    m.run();
    return collect(m, wl, nullptr, "sequential");
}

ExecResult
Runner::runPipeline(LoopWorkload& wl, const sim::MachineConfig& cfg,
                    unsigned workers)
{
    if (cfg.txMode == TxMode::BestEffort) {
        throw std::invalid_argument(
            "runPipeline: txMode=best-effort is incompatible with "
            "pipelined schedules: a stage-1 fallback holder writes "
            "committed memory before handing the iteration off, and "
            "abort recovery would re-execute those writes; use a "
            "DOALL schedule (the holder commits before joining "
            "recovery) or a full-HMTX mode");
    }
    Machine m(cfg);
    wl.setup(m);
    // Stage 1 owns core 0; replicated stage-2 workers fill the rest.
    workers = clampWorkers(m, workers, 1);
    Shared sh(wl, m, workers + 1);
    for (unsigned w = 0; w < workers; ++w)
        sh.queues.push_back(std::make_unique<SimQueue>(m, 8));
    m.spawn(stage1Task(sh, workers));
    for (unsigned w = 0; w < workers; ++w)
        m.spawn(workerTask(sh, w));
    m.run();
    std::string model = workers > 1
        ? "HMTX PS-DSWP x" + std::to_string(workers)
        : "HMTX DSWP";
    return collect(m, wl, &sh, std::move(model));
}

ExecResult
Runner::runDoall(LoopWorkload& wl, const sim::MachineConfig& cfg,
                 unsigned workers)
{
    Machine m(cfg);
    wl.setup(m);
    workers = clampWorkers(m, workers, 0);
    Shared sh(wl, m, workers);
    for (unsigned w = 0; w < workers; ++w)
        m.spawn(doallTask(sh, w, workers));
    m.run();
    return collect(m, wl, &sh,
                   "HMTX DOALL x" + std::to_string(workers));
}

ExecResult
Runner::runDoacross(LoopWorkload& wl, const sim::MachineConfig& cfg,
                    unsigned workers)
{
    if (cfg.txMode == TxMode::BestEffort) {
        throw std::invalid_argument(
            "runDoacross: txMode=best-effort is incompatible with "
            "DOACROSS schedules: a fallback holder writes committed "
            "memory before the dependence hand-off, and the schedule "
            "has no recovery path that could replay consistently; "
            "use a DOALL schedule or a full-HMTX mode");
    }
    Machine m(cfg);
    wl.setup(m);
    workers = clampWorkers(m, workers, 0);
    Shared sh(wl, m, workers);
    for (unsigned w = 0; w < workers; ++w)
        sh.queues.push_back(std::make_unique<SimQueue>(m, 8));
    for (unsigned w = 0; w < workers; ++w)
        m.spawn(doacrossTask(sh, w, workers));
    m.run();
    return collect(m, wl, &sh,
                   "DOACROSS x" + std::to_string(workers));
}

ExecResult
Runner::runHmtx(LoopWorkload& wl, const sim::MachineConfig& cfg)
{
    if (wl.paradigm() == Paradigm::Doall)
        return runDoall(wl, cfg, cfg.numCores);
    return runPipeline(wl, cfg, cfg.numCores - 1);
}

} // namespace hmtx::runtime
