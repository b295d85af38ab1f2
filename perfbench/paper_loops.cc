/**
 * @file
 * paper-loops: the Figure 8 suite. Every loop proxy runs sequentially
 * and under HMTX with maximal read/write sets; the six with an SMTX
 * comparison also run SMTX with minimal sets. Table 2 machine (4-core
 * snoop bus, fast path at its default), caches empty at the start of
 * every run as in the paper's hot-loop measurement.
 *
 * The proxies' inputs are fixed by the program (makeSuite takes no
 * seed); the benchmark seed only permutes the order the proxies run
 * in, so the simulated results are the same for every seed.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>

#include "harness.hh"
#include "metrics.hh"

#include "runtime/executors.hh"
#include "smtx/smtx.hh"
#include "workloads/all.hh"

namespace perfbench
{
namespace
{

using hmtx::runtime::ExecResult;
using hmtx::runtime::LoopWorkload;
using hmtx::runtime::Runner;

/** Figure 8 geomeans from the paper (all 8; the 6 with SMTX). */
constexpr double kPaperHmtxGeomean = 1.99;
constexpr double kPaperSmtxGeomean = 1.44;

/** The three execution models, in slot order. */
constexpr int kModels = 3;
constexpr const char* kSpans[kModels] = {"runtime.sequential",
                                         "runtime.hmtx", "smtx.run"};
using Slots = std::array<std::optional<ExecResult>, kModels>;

struct Proxy
{
    std::string name;
    bool smtx = false;
    std::unique_ptr<LoopWorkload> seq, hmtx, smtxWl;
};

void
hashResult(Digest& d, const ExecResult& r)
{
    d.add(r.cycles);
    d.add(r.checksum);
    d.add(r.instructions);
    d.add(r.transactions);
    d.add(r.vidResets);
    d.add(r.vidStallCycles);
    d.add(r.branches);
    d.add(r.mispredicts);
    d.add(r.smtxMisspeculations);
    d.addStruct(r.stats);
    d.addStruct(r.txStats);
}

double
geomean(const std::vector<double>& v)
{
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return v.empty() ? 0.0
                     : std::exp(logSum / static_cast<double>(v.size()));
}

class PaperLoops final : public Workload
{
  public:
    explicit PaperLoops(const Options& o) : opts_(o) {}

    std::string
    params() const override
    {
        std::string order;
        for (const Proxy& p : proxies_)
            order += (order.empty() ? "\"" : ", \"") + p.name + "\"";
        return "{\"machine\": \"Table 2 defaults (4-core snoop bus, "
               "fast path off)\", \"models\": [\"sequential\", "
               "\"hmtx-max\", \"smtx-min\"], \"proxy_order\": [" +
            order + "]}";
    }

    void
    prepare(Tracer* t) override
    {
        double s = 0;
        cfg_ = hmtx::sim::MachineConfig{};
        cfg_.validate();
        auto suite = timed(t, "workloads.make", "suite", s,
                           [] { return hmtx::workloads::makeSuite(); });
        proxies_.clear();
        for (auto& wl : suite) {
            Proxy p;
            p.name = wl->name();
            p.smtx = hmtx::workloads::hasSmtxComparison(p.name);
            p.seq = std::move(wl);
            p.hmtx = timed(t, "workloads.make", p.name, s, [&] {
                return hmtx::workloads::makeByName(p.name);
            });
            if (p.smtx)
                p.smtxWl = timed(t, "workloads.make", p.name, s, [&] {
                    return hmtx::workloads::makeByName(p.name);
                });
            proxies_.push_back(std::move(p));
        }
        if (opts_.tiny)
            proxies_.resize(2);
        // The seed permutes the run order (Fisher-Yates).
        std::uint64_t r = listSeed(opts_, 1, 0);
        for (std::size_t i = proxies_.size(); i > 1; --i) {
            r = mixSeed(r);
            std::swap(proxies_[i - 1], proxies_[r % i]);
        }
    }

    PassOut
    run(Tracer* t) override
    {
        PassOut out;
        // Host seconds and simulated accesses per model slot.
        double hostS[kModels] = {0, 0, 0}, acc[kModels] = {0, 0, 0};
        std::map<std::string, Slots> results;
        for (Proxy& p : proxies_) {
            Slots& rs = results[p.name];
            auto attempt = [&](int m, auto&& call) {
                ++out.attempted;
                try {
                    rs[m] = timed(t, kSpans[m], p.name, hostS[m], call);
                } catch (const std::exception& e) {
                    addFailure(out, p.name + " " + kSpans[m] + ": " + e.what());
                }
            };
            attempt(0, [&] { return Runner::runSequential(*p.seq, cfg_); });
            attempt(1, [&] { return Runner::runHmtx(*p.hmtx, cfg_); });
            if (p.smtx)
                attempt(2, [&] {
                    return hmtx::smtx::SmtxRunner::run(
                        *p.smtxWl, cfg_, hmtx::smtx::RwSetMode::Minimal);
                });
            check(out, p.name, rs);
        }

        // Sum and hash in the canonical (name, model) order, so the
        // digest does not depend on the seed's run order.
        hmtx::sim::SysStats sys;
        hmtx::TxModeStats tx;
        hmtx::sim::FastStats fast;
        hmtx::sim::IndexStats index;
        Digest digest;
        double transactions = 0, runs = 0, instructions = 0;
        double vidResets = 0, vidStall = 0, mispredicts = 0;
        double misspecs = 0;
        std::vector<double> speed[kModels];
        for (const auto& [name, rs] : results) {
            for (int m = 0; m < kModels; ++m) {
                if (!rs[m])
                    continue;
                const ExecResult& r = *rs[m];
                hashResult(digest, r);
                accumulate(sys, r.stats);
                accumulate(tx, r.txStats);
                accumulate(fast, r.fastStats);
                accumulate(index, r.indexStats);
                acc[m] += static_cast<double>(r.stats.loads +
                                              r.stats.stores);
                transactions += static_cast<double>(r.transactions);
                instructions += static_cast<double>(r.instructions);
                vidResets += static_cast<double>(r.vidResets);
                vidStall += static_cast<double>(r.vidStallCycles);
                mispredicts += static_cast<double>(r.mispredicts);
                misspecs += static_cast<double>(r.smtxMisspeculations);
                runs += 1;
                if (m > 0 && rs[0])
                    speed[m].push_back(
                        static_cast<double>(rs[0]->cycles) /
                        static_cast<double>(r.cycles));
            }
        }
        out.digest = digest.value();

        const double total = hostS[0] + hostS[1] + hostS[2];
        out.host["host_accesses_per_s"] =
            ratio(acc[0] + acc[1] + acc[2], total);
        out.host["host_requests_per_s"] = ratio(transactions, total);
        out.host["host_schedules_per_s"] =
            ratio(static_cast<double>(proxies_.size()), total);
        out.host["host_interleavings_per_s"] = ratio(runs, total);
        const double hmGeo = geomean(speed[1]), smGeo = geomean(speed[2]);
        out.sim["sim_speedup_geomean"] = hmGeo;
        out.sim["sim_smtx_speedup_geomean"] = smGeo;
        out.samples["sim_speedup_geomean"] = speed[1].size();
        out.samples["sim_smtx_speedup_geomean"] = speed[2].size();
        char line[256];
        std::snprintf(line, sizeof line,
                      "reference: sim_speedup_geomean %.4f vs paper "
                      "Fig. 8 %.2f (error %+.1f%%); "
                      "sim_smtx_speedup_geomean %.4f vs paper %.2f "
                      "(error %+.1f%%)",
                      hmGeo, kPaperHmtxGeomean,
                      100.0 * (hmGeo / kPaperHmtxGeomean - 1.0), smGeo,
                      kPaperSmtxGeomean,
                      100.0 * (smGeo / kPaperSmtxGeomean - 1.0));
        out.notes.push_back(line);

        addSysLayers(out, sys);
        addTxLayers(out, tx);
        setCount(out, "sim.fast.attempts",
                 static_cast<double>(fast.attempts));
        setRatio(out, "sim.fast.hit_ratio", "fast_hits",
                 static_cast<double>(fast.hits()), "fast_attempts",
                 static_cast<double>(fast.attempts));
        setCount(out, "sim.fast.gen_rejections",
                 static_cast<double>(fast.genRejections));
        setCount(out, "sim.fast.event_bypasses",
                 static_cast<double>(fast.eventBypasses));
        setRatio(out, "sim.index.snoop_filter_ratio", "snoops_filtered",
                 static_cast<double>(index.snoopsFiltered),
                 "snoop_targets",
                 static_cast<double>(index.snoopsFiltered +
                                     index.snoopsVisited));
        setCount(out, "sim.index.registry_walk_lines",
                 static_cast<double>(index.registryWalkLines));
        setCount(out, "runtime.instructions", instructions);
        setCount(out, "runtime.transactions", transactions);
        setCount(out, "runtime.vid_resets", vidResets);
        setCount(out, "runtime.vid_stall_cycles", vidStall, "cycles");
        setCount(out, "runtime.mispredicts", mispredicts);
        setCount(out, "smtx.misspeculations", misspecs);

        out.spanUses = {
            {"workloads.make", "workloads.make_ms", "", 0},
            {kSpans[0], "runtime.sequential_ms",
             "runtime.sequential_ns_per_access", acc[0]},
            {kSpans[1], "runtime.hmtx_ms", "runtime.hmtx_ns_per_access",
             acc[1]},
            {kSpans[2], "smtx.run_ms", "smtx.ns_per_access", acc[2]},
        };
        return out;
    }

  private:
    /** Every model must reproduce the sequential checksum, sequential
     *  must reproduce itself across passes, and SMTX must not
     *  misspeculate. */
    void
    check(PassOut& out, const std::string& name, const Slots& rs)
    {
        if (!rs[0])
            return; // already counted; nothing to compare against
        const std::uint64_t ref = rs[0]->checksum;
        auto [it, fresh] = seqChecksum_.emplace(name, ref);
        if (!fresh && it->second != ref)
            addFailure(out, name + ": sequential checksum changed between "
                             "passes");
        for (int m = 1; m < kModels; ++m) {
            if (!rs[m])
                continue;
            if (rs[m]->checksum != ref)
                addFailure(out, name + ": " + rs[m]->model +
                              " checksum differs from sequential");
            if (rs[m]->smtxMisspeculations != 0)
                addFailure(out, name + ": SMTX misspeculated");
        }
    }

    Options opts_;
    hmtx::sim::MachineConfig cfg_;
    std::vector<Proxy> proxies_;
    std::map<std::string, std::uint64_t> seqChecksum_;
};

} // namespace

std::unique_ptr<Workload>
makePaperLoops(const Options& o)
{
    return std::make_unique<PaperLoops>(o);
}

} // namespace perfbench
