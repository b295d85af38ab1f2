/**
 * @file
 * kv-hot-keys and kv-scan-writes: the open-loop KV serving engine
 * (workloads::runKvServe) in all four commit modes, on one seed list
 * shared by every mode (common random numbers), with the small cache
 * hierarchy of bench/ext_kv_serving.cc and the fast path on.
 *
 *  - kv-hot-keys: snoop bus, Zipf theta 1.2, 10% read-modify-write,
 *    15% transfers, no scans. Conflict-bound: aborts come from hot
 *    keys, and nothing overflows.
 *  - kv-scan-writes: directory fabric, uniform keys, 50% RMW, 15%
 *    transfers, 5% strided scans. Capacity-bound: scans spill to the
 *    overflow table (HMTX), push best-effort into its fallback lock,
 *    and send limited-set down its non-speculative path.
 *
 * Latency runs from a request's scheduled arrival to its commit; the
 * load is an open loop in simulated time at a mean gap of 1500 cycles
 * per core.
 */

#include <cstdio>
#include <string>

#include "harness.hh"
#include "metrics.hh"

#include "workloads/kv_serve.hh"

namespace perfbench
{
namespace
{

using hmtx::TxMode;
using hmtx::workloads::KvServeParams;
using hmtx::workloads::KvServeResult;

constexpr int kModes = 4;
constexpr TxMode kTxModes[kModes] = {TxMode::LazyHmtx, TxMode::EagerHmtx,
                                     TxMode::BestEffort,
                                     TxMode::LimitedSet};
constexpr unsigned kCores = 4;
constexpr std::uint64_t kArrivalGap = 1500;

/** The serving mix of one kv workload. */
struct KvShape
{
    hmtx::sim::Fabric fabric;
    double theta;
    double writeRatio;
    double transferShare;
    double scanShare;
};

hmtx::sim::MachineConfig
modeConfig(TxMode mode, hmtx::sim::Fabric fabric)
{
    hmtx::sim::MachineConfig cfg;
    cfg.numCores = kCores;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    cfg.vidBits = 8;
    cfg.fabric = fabric;
    if (fabric == hmtx::sim::Fabric::Directory)
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
        cfg.unboundedSpecSets = true;
    }
    cfg.fastPath = true;
    cfg.validate();
    return cfg;
}

void
hashCell(Digest& d, const KvServeResult& r)
{
    const hmtx::sim::ServeStats& s = r.serve;
    for (std::uint64_t v :
         {r.makespan, s.requests, s.issued, s.committed, s.aborted,
          s.drains, s.lockRestarts, s.nonSpecFallbacks, s.windowResets,
          s.batches, s.idleCycles, s.latency.count(), s.latency.sum(),
          s.latency.min(), s.latency.max(), s.latency.percentile(0.5),
          s.latency.percentile(0.99), s.latency.percentile(0.999),
          std::uint64_t{r.oracleOk}})
        d.add(v);
    d.addStruct(r.sys);
    d.addStruct(r.tx);
}

class KvServing final : public Workload
{
  public:
    KvServing(const Options& o, const KvShape& shape, std::uint64_t salt)
        : fabric_(shape.fabric)
    {
        base_.requests = o.tiny ? 500 : kRequestsPerCell;
        base_.tableBuckets = 2048;
        base_.keys = 8192;
        base_.zipfTheta = shape.theta;
        base_.writeRatio = shape.writeRatio;
        base_.transferShare = shape.transferShare;
        base_.scanShare = shape.scanShare;
        base_.scanBuckets = 12;
        base_.scanStride = 16;
        base_.arrivalMeanGap = kArrivalGap;
        base_.burstDuty = 1.0;
        const unsigned seeds = o.tiny ? 2 : kSeeds;
        for (unsigned i = 0; i < seeds; ++i)
            seeds_.push_back(listSeed(o, salt, i));
    }

    std::string
    params() const override
    {
        const hmtx::sim::MachineConfig& c = cfgs_[0];
        char buf[1024];
        std::snprintf(
            buf, sizeof buf,
            "{\"fabric\": \"%s\", \"dir_banks\": %u, \"cores\": %u, "
            "\"l1_kb\": %u, \"l1_assoc\": %u, \"l2_kb\": %u, "
            "\"l2_assoc\": %u, \"vid_bits\": %u, \"fast_path\": %s, "
            "\"btx_max_retries\": %u, \"btx_abort_threshold\": %u, "
            "\"limited_set_k\": %u, \"zipf_theta\": %.2f, "
            "\"write_ratio\": %.2f, \"transfer_share\": %.2f, "
            "\"scan_share\": %.2f, \"scan_buckets\": %u, "
            "\"scan_stride\": %u, \"table_buckets\": %llu, "
            "\"keys\": %llu, \"arrival_mean_gap_cycles\": %llu, "
            "\"burst_duty\": %.2f, \"requests_per_cell\": %llu, "
            "\"modes\": [\"lazy\", \"eager\", \"btx\", \"ltd\"], "
            "\"seed_list\": [",
            fabric_ == hmtx::sim::Fabric::Directory ? "directory"
                                                    : "snoop-bus",
            c.dirBanks, c.numCores, c.l1SizeKB, c.l1Assoc, c.l2SizeKB,
            c.l2Assoc, c.vidBits, c.fastPath ? "true" : "false",
            cfgs_[2].btxMaxRetries, cfgs_[2].btxAbortThreshold,
            cfgs_[3].limitedSetK, base_.zipfTheta, base_.writeRatio,
            base_.transferShare, base_.scanShare, base_.scanBuckets,
            base_.scanStride,
            static_cast<unsigned long long>(base_.tableBuckets),
            static_cast<unsigned long long>(base_.keys),
            static_cast<unsigned long long>(base_.arrivalMeanGap),
            base_.burstDuty,
            static_cast<unsigned long long>(base_.requests));
        std::string out = buf;
        for (std::size_t i = 0; i < seeds_.size(); ++i)
            out += (i ? ", " : "") + std::to_string(seeds_[i]);
        return out + "]}";
    }

    void
    prepare(Tracer*) override
    {
        for (int m = 0; m < kModes; ++m)
            cfgs_[m] = modeConfig(kTxModes[m], fabric_);
        cells_.assign(seeds_.size(), base_);
        for (std::size_t i = 0; i < seeds_.size(); ++i)
            cells_[i].seed = seeds_[i];
    }

    PassOut
    run(Tracer* t) override
    {
        PassOut out;
        double hostS[kModes] = {}, acc[kModes] = {};
        hmtx::sim::LatencyHistogram lat[kModes];
        hmtx::sim::SysStats sys;
        hmtx::TxModeStats tx;
        hmtx::sim::ServeStats serve;
        std::size_t highWater = 0;
        Digest digest;
        // Seed-major order: every mode sees the same host conditions.
        for (const KvServeParams& p : cells_) {
            for (int m = 0; m < kModes; ++m) {
                const std::string span =
                    std::string("workloads.kv_serve.") + kModeNames[m];
                const std::string unit =
                    std::to_string(p.seed) + "/" + kModeNames[m];
                const KvServeResult r =
                    timed(t, span.c_str(), unit, hostS[m], [&] {
                        return hmtx::workloads::runKvServe(cfgs_[m], p);
                    });
                out.attempted += p.requests;
                if (!r.oracleOk || !r.serve.consistent()) {
                    out.failed += p.requests;
                    out.failures.push_back(
                        unit + (r.oracleOk ? ": inconsistent serve "
                                             "accounting"
                                           : ": final table differs "
                                             "from the oracle"));
                }
                hashCell(digest, r);
                lat[m].merge(r.serve.latency);
                acc[m] += static_cast<double>(r.sys.loads + r.sys.stores);
                accumulate(sys, r.sys);
                accumulate(tx, r.tx);
                serve.requests += r.serve.requests;
                serve.issued += r.serve.issued;
                serve.committed += r.serve.committed;
                serve.drains += r.serve.drains;
                serve.lockRestarts += r.serve.lockRestarts;
                serve.nonSpecFallbacks += r.serve.nonSpecFallbacks;
                serve.windowResets += r.serve.windowResets;
                serve.idleCycles += r.serve.idleCycles;
                highWater = std::max(highWater, r.scratchHighWater);
            }
        }

        double total = 0, accesses = 0;
        for (int m = 0; m < kModes; ++m) {
            total += hostS[m];
            accesses += acc[m];
            const std::string suffix = kModeNames[m];
            const std::uint64_t n = lat[m].count();
            out.sim["sim_p50_cycles." + suffix] =
                static_cast<double>(lat[m].percentile(0.50));
            out.sim["sim_p999_cycles." + suffix] =
                static_cast<double>(lat[m].percentile(0.999));
            out.samples["sim_p50_cycles." + suffix] = n;
            out.samples["sim_p999_cycles." + suffix] = n;
            digest.add(lat[m].percentile(0.50));
            digest.add(lat[m].percentile(0.999));
            out.spanUses.push_back(
                {"workloads.kv_serve." + suffix,
                 "workloads.kv_serve_ms." + suffix,
                 "workloads.kv_serve_ns_per_access." + suffix, acc[m]});
        }
        out.digest = digest.value();
        out.host["host_requests_per_s"] =
            ratio(static_cast<double>(serve.committed), total);
        out.host["host_accesses_per_s"] = ratio(accesses, total);
        out.host["host_schedules_per_s"] =
            ratio(static_cast<double>(cells_.size()), total);
        out.host["host_interleavings_per_s"] =
            ratio(static_cast<double>(cells_.size() * kModes), total);

        addSysLayers(out, sys);
        addTxLayers(out, tx);
        setRatio(out, "serve.useful_ratio", "committed",
                 static_cast<double>(serve.committed), "issued",
                 static_cast<double>(serve.issued));
        setCount(out, "serve.drains", static_cast<double>(serve.drains));
        setCount(out, "serve.lock_restarts",
                 static_cast<double>(serve.lockRestarts));
        setCount(out, "serve.non_spec_fallbacks",
                 static_cast<double>(serve.nonSpecFallbacks));
        setCount(out, "serve.window_resets",
                 static_cast<double>(serve.windowResets));
        setCount(out, "serve.idle_cycles",
                 static_cast<double>(serve.idleCycles), "cycles");
        setCount(out, "serve.scratch_high_water_kb",
                 static_cast<double>(highWater) / 1024.0, "KiB");
        out.notes.push_back(
            "sim.fast.* and sim.index.* read 0 here: runKvServe returns "
            "no FastStats or IndexStats");
        out.notes.push_back("no reference results exist for the kv "
                            "latencies; the model is unvalidated there");
        return out;
    }

  private:
    /** Seeds in the shared list, and requests per (seed, mode) cell.
     *  Every mode pools 256 x 1000 = 256000 latencies, 256 beyond its
     *  p999. Many short cells rather than a few long ones: latency
     *  grows with cell length (the lanes' arrival clocks drift apart
     *  like random walks), and its spread between seed lists falls
     *  with the number of independent cells. */
    static constexpr unsigned kSeeds = 256;
    static constexpr std::uint64_t kRequestsPerCell = 1000;

    hmtx::sim::Fabric fabric_;
    /** Every cell's parameters but its seed. */
    KvServeParams base_;
    std::vector<std::uint64_t> seeds_;
    hmtx::sim::MachineConfig cfgs_[kModes];
    std::vector<KvServeParams> cells_;
};

} // namespace

std::unique_ptr<Workload>
makeKvHotKeys(const Options& o)
{
    return std::make_unique<KvServing>(
        o, KvShape{hmtx::sim::Fabric::SnoopBus, 1.2, 0.1, 0.15, 0.0}, 2);
}

std::unique_ptr<Workload>
makeKvScanWrites(const Options& o)
{
    return std::make_unique<KvServing>(
        o, KvShape{hmtx::sim::Fabric::Directory, 0.0, 0.5, 0.15, 0.05},
        3);
}

} // namespace perfbench
