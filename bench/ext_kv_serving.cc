/**
 * @file
 * Millions-of-MTX serving sweep: the KV/OLTP engine of
 * src/workloads/kv_serve.hh across the full commit-mode matrix
 * {lazy-hmtx, eager-hmtx, best-effort, limited-set} x {snoop-bus,
 * directory} x Zipf skew {0, 0.9, 1.2} x write ratio {0.1, 0.5} —
 * 48 cells x 25k requests = 1.2M transactions per run, each cell
 * reporting simulated throughput and exact streaming p50/p99/p999.
 *
 * The headline is the p999-vs-skew curve of best-effort against lazy
 * HMTX. The divergence is capacity-driven: every strided scan
 * overflows the small hierarchy, which unbounded HMTX absorbs by
 * spilling to the overflow table while best-effort capacity-aborts
 * its retry budget away and collapses onto the serialized fallback
 * lock — whole bodies re-execute under global lane syncs, and the
 * tail inflates at *every* skew. The gap is widest at low skew and
 * narrows as the Zipfian head heats up, because conflict aborts start
 * costing the unbounded machine replays too (its flush-and-replay is
 * global) while serialization already bounds best-effort's conflict
 * exposure. The limited-set machine instead pre-detects over-K scans
 * and runs them non-speculatively in commit order, trading throughput
 * for a flatter tail. The run exits 2 if no group shows best-effort
 * degrading p999 by >= 1.2x against lazy HMTX at the same skew/mix.
 *
 * Every (fabric, skew, write mix) group serves one request stream:
 * its four modes share a seed (common random numbers), so the mode
 * columns differ only through the commit mode. Host throughput is
 * measured by perfbench (kv-hot-keys, kv-scan-writes), not here.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.hh"
#include "workloads/kv_serve.hh"

using namespace hmtx;

namespace
{

constexpr unsigned kCores = 4;
constexpr std::uint64_t kRequests = 25000;

sim::MachineConfig
servingConfig(TxMode mode, sim::Fabric fabric)
{
    sim::MachineConfig cfg;
    cfg.numCores = kCores;
    // Small hierarchy (the crossover bench's geometry): the serving
    // footprints are per-request tiny, but the hot Zipfian working
    // set plus four in-flight speculative sets is what pressures the
    // bounded machines — best-effort burns capacity aborts into its
    // fallback lock and limited-set trips its K bound, while full
    // HMTX spills to the overflow table and keeps pipelining.
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    // A wider VID window (256) amortizes window rollovers across more
    // requests; the registry split keeps each vidReset O(spec lines)
    // regardless of how much committed dirty state the table built up.
    cfg.vidBits = 8;
    cfg.fabric = fabric;
    if (fabric == sim::Fabric::Directory)
        cfg.dirBanks = 8;
    cfg.txMode = mode;
    if (mode == TxMode::BestEffort) {
        cfg.btxMaxRetries = 2;
        cfg.btxAbortThreshold = 8;
        cfg.unboundedSpecSets = false;
    } else if (mode == TxMode::LimitedSet) {
        cfg.limitedSetK = 4;
        cfg.unboundedSpecSets = false;
    } else {
        cfg.unboundedSpecSets = true; // full HMTX: overflow table
    }
    // Host-perf only (bit-identical results); the serving engine runs
    // hit-dominated once the table is warm, so keep the fast path on.
    cfg.fastPath = true;
    cfg.validate();
    return cfg;
}

workloads::KvServeParams
servingParams(double theta, double write, std::uint64_t seed)
{
    workloads::KvServeParams p;
    p.requests = kRequests;
    p.tableBuckets = 2048;
    p.keys = 8192;
    p.zipfTheta = theta;
    p.writeRatio = write;
    p.transferShare = 0.15;
    p.scanShare = 0.05;
    // Offered load ~94% of the slowest cell's service capacity (the
    // saturated sweep measures ~250-370 cycles/request system-wide):
    // every mode still sustains the throughput, so the percentiles
    // compare queueing + serialization episodes rather than makespan
    // ramps of an overloaded queue. Arrivals are smooth (the default
    // burstDuty of 1), so the tail isolates the commit-mode
    // differences.
    p.arrivalMeanGap = 1500;
    p.seed = seed;
    return p;
}

const char*
fabricName(sim::Fabric f)
{
    return f == sim::Fabric::Directory ? "directory" : "snoop-bus";
}

void
requireClean(const workloads::KvServeResult& r, const char* what)
{
    if (!r.serve.consistent()) {
        std::fprintf(stderr,
                     "FATAL: %s: inconsistent serve accounting "
                     "(issued %llu, committed %llu, aborted %llu)\n",
                     what,
                     static_cast<unsigned long long>(r.serve.issued),
                     static_cast<unsigned long long>(
                         r.serve.committed),
                     static_cast<unsigned long long>(r.serve.aborted));
        std::exit(1);
    }
    if (!r.oracleOk) {
        std::fprintf(stderr, "FATAL: %s: final table diverged from "
                             "the sequential oracle\n",
                     what);
        std::exit(1);
    }
}

} // namespace

int
main()
{
    const TxMode modes[] = {TxMode::LazyHmtx, TxMode::EagerHmtx,
                            TxMode::BestEffort, TxMode::LimitedSet};
    const sim::Fabric fabrics[] = {sim::Fabric::SnoopBus,
                                   sim::Fabric::Directory};
    const double thetas[] = {0.0, 0.9, 1.2};
    const double writes[] = {0.1, 0.5};

    std::printf("KV/OLTP serving sweep: %zu modes x %zu fabrics x "
                "%zu skews x %zu write mixes, %llu requests/cell\n",
                std::size(modes), std::size(fabrics), std::size(thetas),
                std::size(writes),
                static_cast<unsigned long long>(kRequests));

    // Headline: where does the bounded best-effort machine's tail
    // diverge from unbounded HMTX? The worst btx/lazy p999 ratio over
    // the groups; the bench fails if no group degrades by >= 1.2x.
    double worst = 0.0;
    std::string worstAt;
    std::uint64_t total = 0;
    std::uint64_t seed = 42; // one per group, shared by its four modes

    for (const sim::Fabric fabric : fabrics) {
        for (const double theta : thetas) {
            for (const double write : writes) {
                std::printf("\n%s theta=%.2f write=%.2f\n",
                            fabricName(fabric), theta, write);
                std::printf("%-13s | %10s | %8s %8s %8s | %7s %7s\n",
                            "mode", "cyc/req", "p50", "p99", "p999",
                            "aborts", "fbEnt");
                std::uint64_t lazyP999 = 0;
                std::uint64_t btxP999 = 0;
                for (const TxMode mode : modes) {
                    const workloads::KvServeResult r =
                        workloads::runKvServe(
                            servingConfig(mode, fabric),
                            servingParams(theta, write, seed));
                    requireClean(r, txModeName(mode));
                    total += r.serve.committed;

                    const double cpr =
                        static_cast<double>(r.makespan) /
                        static_cast<double>(r.serve.committed);
                    const std::uint64_t q999 =
                        r.serve.latency.percentile(0.999);
                    std::printf("%-13s | %10.1f | %8llu %8llu %8llu | "
                                "%7llu %7llu\n",
                                txModeName(mode), cpr,
                                static_cast<unsigned long long>(
                                    r.serve.latency.percentile(0.50)),
                                static_cast<unsigned long long>(
                                    r.serve.latency.percentile(0.99)),
                                static_cast<unsigned long long>(q999),
                                static_cast<unsigned long long>(
                                    r.sys.aborts),
                                static_cast<unsigned long long>(
                                    r.tx.fallbackEntries));
                    if (mode == TxMode::LazyHmtx)
                        lazyP999 = q999;
                    else if (mode == TxMode::BestEffort)
                        btxP999 = q999;
                }
                const double ratio = static_cast<double>(btxP999) /
                    static_cast<double>(lazyP999);
                if (ratio > worst) {
                    worst = ratio;
                    char at[64];
                    std::snprintf(at, sizeof at, "%s|%.2f|%.2f",
                                  fabricName(fabric), theta, write);
                    worstAt = at;
                }
                ++seed;
            }
        }
    }

    std::printf("\n%llu transactions served across the sweep\n",
                static_cast<unsigned long long>(total));
    if (worst < 1.2) {
        std::printf("NO p999 divergence: best-effort never degraded "
                    "lazy HMTX's tail by >= 1.2x\n");
        return 2;
    }
    std::printf("headline: best-effort degrades p999 by %.2fx at "
                "[%s] — fallback serialization is the tail\n",
                worst, worstAt.c_str());
    return 0;
}
