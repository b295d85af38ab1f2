/**
 * @file
 * Commit-mode crossover bench: full HMTX (unbounded speculative sets
 * backed by the §5.4 overflow table) versus best-effort HTM with a
 * serialized global-lock fallback, under a rising per-transaction
 * write-set sweep on both interconnect fabrics.
 *
 * The experiment drives CacheSystem directly (no runtime executors)
 * with a pipeline of transactions striped across 4 cores: every
 * transaction stores W distinct lines of a private region, reads a
 * couple of them back, and occasionally collides on a shared line so
 * the retry budget is exercised too. Cost is tracked with per-core
 * lane clocks: an access charges its own lane, while commits, aborts,
 * and serialized fallback accesses synchronize every lane (they hold
 * the global bus/lock). The makespan of a cell is the maximum lane
 * clock once every transaction has committed.
 *
 * Small caches make the capacity axis bite: while W fits, best-effort
 * tracks sets for free and matches (or beats) the overflow-table
 * machinery; once write sets outgrow the hierarchy, best-effort burns
 * retries and collapses onto the serialized fallback while full HMTX
 * keeps pipelining through spills. The crossover point — the smallest
 * W where full HMTX is strictly faster — is printed per fabric; the
 * run exits 2 if either fabric has none within the sweep.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/common.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "workloads/lane_clock.hh"

using namespace hmtx;

namespace
{

constexpr unsigned kCores = 4;
constexpr unsigned kBatches = 12; // 48 transactions, inside one window
constexpr unsigned kMaxAttempts = 64;

sim::MachineConfig
cellConfig(TxMode mode, sim::Fabric fabric)
{
    sim::MachineConfig cfg;
    cfg.numCores = kCores;
    // Tiny hierarchy so the write-set sweep crosses the capacity
    // boundary mid-sweep instead of at absurd W.
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    cfg.fabric = fabric;
    if (fabric == sim::Fabric::Directory)
        cfg.dirBanks = 8;
    cfg.txMode = mode;
    if (mode == TxMode::BestEffort) {
        cfg.btxMaxRetries = 2;
        cfg.btxAbortThreshold = 8; // early fallback once aborts pile up
        cfg.unboundedSpecSets = false;
    } else {
        cfg.unboundedSpecSets = true; // full HMTX: overflow table
    }
    cfg.validate();
    return cfg;
}

/** Result of one (mode, fabric, W) cell. */
struct CellResult
{
    std::uint64_t makespan = 0;
    std::uint64_t flushes = 0; ///< global aborts the pipeline absorbed
    sim::SysStats stats;
    TxModeStats tx;
};

/** One straight-line transaction body. */
struct TxInstr
{
    bool isStore;
    Addr addr;
    std::uint64_t value;
};

/**
 * Runs the whole transaction pipeline for one cell. Each batch puts
 * one transaction per core in flight (VIDs LC+1..LC+4), interleaves
 * their bodies round-robin, and commits a transaction the moment it
 * finishes at the head of the VID order. A global flush rewinds every
 * speculative transaction to its first instruction — but not the
 * fallback-lock holder, whose serialized progress is committed state
 * and survives the flush exactly as it does architecturally. That is
 * what makes the loop converge in best-effort mode: once the budget
 * arms, the oldest transaction serializes through any number of
 * younger capacity aborts, commits, and shrinks the batch.
 */
CellResult
runCell(const sim::MachineConfig& cfg, unsigned W)
{
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, cfg);
    CellResult res;
    workloads::LaneClock lanes(kCores);

    const Addr sharedLine = 0x80000;
    Vid nextVid = 1;

    for (unsigned batch = 0; batch < kBatches; ++batch) {
        const Vid baseVid = nextVid;
        nextVid += kCores;
        // A sparse deterministic conflict: on its first run, every
        // fourth batch reads a shared line everywhere and then has
        // its oldest transaction store it, which must abort (§4.3).
        // Re-executions run with the dependence resolved.
        bool conflict = batch % 4 == 0;

        auto bodyOf = [&](unsigned c) {
            const Vid vid = baseVid + c;
            const Addr region =
                0x100000 + (static_cast<Addr>(vid) << 16);
            std::vector<TxInstr> body;
            if (conflict)
                body.push_back({false, sharedLine, 0});
            body.push_back({false, region, 0});
            body.push_back({false, region + 64, 0});
            for (unsigned w = 0; w < W; ++w)
                body.push_back({true,
                                region + static_cast<Addr>(w) * 64,
                                vid * 1000 + w});
            if (conflict && c == 0)
                body.push_back({true, sharedLine, vid});
            return body;
        };

        std::vector<std::vector<TxInstr>> body(kCores);
        for (unsigned c = 0; c < kCores; ++c)
            body[c] = bodyOf(c);
        unsigned progress[kCores] = {};
        bool committed[kCores] = {};
        const std::uint64_t flushCap = res.flushes + kMaxAttempts;

        for (;;) {
            bool all = true;
            for (bool b : committed)
                all = all && b;
            if (all)
                break;
            if (res.flushes >= flushCap) {
                std::fprintf(stderr,
                             "FATAL: batch %u stuck after %u flushes "
                             "(W=%u, mode=%s)\n",
                             batch, kMaxAttempts, W,
                             txModeName(cfg.txMode));
                std::exit(1);
            }
            for (unsigned c = 0; c < kCores; ++c) {
                if (committed[c] || progress[c] >= body[c].size())
                    continue;
                const Vid vid = baseVid + c;
                const TxInstr& in = body[c][progress[c]];
                const std::uint64_t fbBefore =
                    sys.txPolicy().stats().fallbackAccesses;
                const std::uint64_t abortsBefore = sys.stats().aborts;
                sim::AccessResult r = in.isStore
                    ? sys.store(c, in.addr, in.value, 8, vid)
                    : sys.load(c, in.addr, 8, vid);
                const bool serialized =
                    sys.txPolicy().stats().fallbackAccesses > fbBefore;
                if (serialized)
                    lanes.global(r.latency);
                else
                    lanes.local(c, r.latency);
                if (sys.stats().aborts > abortsBefore) {
                    // Global flush: every speculative transaction of
                    // the batch rewinds; the serialized lock holder
                    // (if any) keeps its committed progress, and its
                    // own collisions flush+retry internally without
                    // surfacing as an aborted access. The conflict
                    // dependence is consumed by whichever abort it
                    // raised.
                    ++res.flushes;
                    lanes.global(0);
                    const bool held = sys.txPolicy().fallbackHeld();
                    const Vid holder = sys.txPolicy().fallbackVid();
                    if (conflict) {
                        conflict = false;
                        for (unsigned k = 0; k < kCores; ++k)
                            if (!(held && baseVid + k == holder))
                                body[k] = bodyOf(k);
                    }
                    for (unsigned k = 0; k < kCores; ++k)
                        if (!committed[k] &&
                            !(held && baseVid + k == holder))
                            progress[k] = 0;
                    if (!r.aborted)
                        ++progress[c]; // serialized access completed
                    break;
                }
                ++progress[c];
            }
            // Commit every head-of-order transaction that finished;
            // commits broadcast, so they synchronize the lanes.
            for (unsigned c = 0; c < kCores; ++c) {
                if (committed[c] || progress[c] < body[c].size() ||
                    baseVid + c != sys.lcVid() + 1)
                    continue;
                lanes.global(sys.commit(baseVid + c));
                committed[c] = true;
            }
        }
    }

    res.makespan = lanes.maxT();
    res.stats = sys.stats();
    res.tx = sys.txPolicy().stats();
    sys.checkInvariants();
    return res;
}

const char*
fabricName(sim::Fabric f)
{
    return f == sim::Fabric::Directory ? "directory" : "snoop-bus";
}

} // namespace

int
main()
{
    const std::vector<unsigned> sweep{4, 8, 16, 32, 64};
    const sim::Fabric fabrics[] = {sim::Fabric::SnoopBus,
                                   sim::Fabric::Directory};

    std::printf("Commit-mode crossover: full HMTX (unbounded sets) vs "
                "best-effort + fallback\n%u cores, %u transactions, "
                "rising stores per transaction\n",
                kCores, kCores * kBatches);

    bool crossoverEverywhere = true;
    unsigned crossover[2] = {0, 0};

    for (unsigned fi = 0; fi < 2; ++fi) {
        const sim::Fabric fabric = fabrics[fi];
        std::printf("\n%s fabric\n", fabricName(fabric));
        std::printf("%-6s | %-12s | %-12s %-7s | %-8s %-9s %-9s %-8s\n",
                    "W", "hmtx cyc", "btx cyc", "ratio", "aborts",
                    "fbEntry", "fbCycles", "spills");
        for (unsigned i = 0; i < 70; ++i)
            std::putchar('-');
        std::putchar('\n');

        for (unsigned W : sweep) {
            CellResult hm =
                runCell(cellConfig(TxMode::LazyHmtx, fabric), W);
            CellResult be =
                runCell(cellConfig(TxMode::BestEffort, fabric), W);
            const double ratio = static_cast<double>(be.makespan) /
                static_cast<double>(hm.makespan);
            std::printf("%-6u | %12llu | %12llu %6.2fx | %8llu "
                        "%9llu %9llu %8llu\n",
                        W,
                        static_cast<unsigned long long>(hm.makespan),
                        static_cast<unsigned long long>(be.makespan),
                        ratio,
                        static_cast<unsigned long long>(
                            be.stats.aborts),
                        static_cast<unsigned long long>(
                            be.tx.fallbackEntries),
                        static_cast<unsigned long long>(
                            be.tx.fallbackCycles),
                        static_cast<unsigned long long>(
                            hm.stats.specSpills));
            if (crossover[fi] == 0 && hm.makespan < be.makespan)
                crossover[fi] = W;
        }
    }

    for (unsigned fi = 0; fi < 2; ++fi) {
        if (crossover[fi] == 0) {
            crossoverEverywhere = false;
            std::printf("\n%s: NO crossover — best-effort never lost "
                        "within the sweep\n",
                        fabricName(fabrics[fi]));
        } else {
            std::printf("\n%s: full HMTX overtakes best-effort at "
                        "W=%u stores/tx\n",
                        fabricName(fabrics[fi]), crossover[fi]);
        }
    }

    std::printf(
        "\nWhile write sets fit the hierarchy the bounded machine "
        "rides for free; past the\ncapacity boundary it pays retries "
        "and serialized fallback, while the overflow\ntable keeps "
        "full HMTX pipelining (§5.4).\n");
    return crossoverEverywhere ? 0 : 2;
}
