/**
 * @file
 * check-matrix: differential fuzz schedules (160 ops each) replayed
 * once per cell group (hmtx, btx, ltd) against the golden model, plus
 * sleep-set model checking of 2-core 6-op programs, as the tier-1 CI
 * script runs them. It is the only workload that measures the check
 * layer, and its cost is dominated by building cache systems and by
 * bulk commit/abort/VID-reset walks on tiny caches.
 */

#include <exception>
#include <string>

#include "harness.hh"
#include "metrics.hh"

#include "check/differ.hh"
#include "check/explorer.hh"

namespace perfbench
{
namespace
{

using namespace hmtx::check;

constexpr int kGroups = 3;
constexpr unsigned kGroupMasks[kGroups] = {kGroupHmtx, kGroupBtx,
                                           kGroupLtd};
constexpr const char* kGroupNames[kGroups] = {"hmtx", "btx", "ltd"};
constexpr unsigned kScheduleOps = 160;
constexpr unsigned kProgramCores = 2;
constexpr unsigned kProgramOps = 6;

/** Coverage counters that describe the simulated machine (the fast
 *  path's are simulator-side and stay out of the digest). */
void
hashCoverage(Digest& d, const Coverage& c)
{
    for (std::uint64_t v :
         {c.schedules, c.ops, c.commits, c.aborts, c.capacityAborts,
          c.vidResets, c.spills, c.refills, c.soRefetches, c.slaConfirms,
          c.slaMismatchAborts, c.fallbackEntries, c.fallbackAccesses,
          c.fallbackCommits, c.fallbackWrapRemaps, c.limitedSetAborts})
        d.add(v);
}

class CheckMatrix final : public Workload
{
  public:
    explicit CheckMatrix(const Options& o)
    {
        const unsigned schedules = o.tiny ? 4 : kSchedules;
        const unsigned programs = o.tiny ? 2 : kPrograms;
        for (unsigned i = 0; i < schedules; ++i)
            scheduleSeeds_.push_back(listSeed(o, 4, i));
        for (unsigned i = 0; i < programs; ++i)
            programSeeds_.push_back(listSeed(o, 5, i));
    }

    std::string
    params() const override
    {
        auto list = [](const std::vector<std::uint64_t>& v) {
            std::string s;
            for (std::uint64_t x : v)
                s += (s.empty() ? "" : ", ") + std::to_string(x);
            return "[" + s + "]";
        };
        return "{\"schedule_ops\": " + std::to_string(kScheduleOps) +
            ", \"cell_groups\": [\"hmtx\", \"btx\", \"ltd\"], "
            "\"program_cores\": " +
            std::to_string(kProgramCores) +
            ", \"program_ops\": " + std::to_string(kProgramOps) +
            ", \"explore\": \"ExploreConfig defaults (all groups, "
            "sleep-set pruning, no delivery branching)\", "
            "\"schedule_seeds\": " +
            list(scheduleSeeds_) + ", \"program_seeds\": " +
            list(programSeeds_) + "}";
    }

    void
    prepare(Tracer* t) override
    {
        double s = 0;
        schedules_.clear();
        programs_.clear();
        for (std::uint64_t seed : scheduleSeeds_)
            schedules_.push_back(
                timed(t, "check.generate", std::to_string(seed), s,
                      [&] { return generate(seed, kScheduleOps); }));
        for (std::uint64_t seed : programSeeds_)
            programs_.push_back(timed(
                t, "check.generate", std::to_string(seed), s, [&] {
                    return generateProgram(seed, kProgramCores,
                                           kProgramOps);
                }));
        // Run every shard and engine cell inline. Generated schedules
        // pick 2-thread or host-sized worker pools, whose barriers made
        // host time depend on what else shared the host; the cells'
        // results do not depend on their thread counts.
        for (std::vector<Schedule>* list : {&schedules_, &programs_})
            for (Schedule& x : *list) {
                for (unsigned& th : x.cfg.shardThreads)
                    th = 1;
                for (unsigned& th : x.cfg.engineThreads)
                    th = 1;
            }
    }

    PassOut
    run(Tracer* t) override
    {
        PassOut out;
        Coverage cov[kGroups];
        double runS[kGroups] = {}, exploreS = 0;
        Digest digest;
        for (std::size_t i = 0; i < schedules_.size(); ++i) {
            const std::string unit = std::to_string(scheduleSeeds_[i]);
            ++out.attempted;
            std::string why;
            for (int g = 0; g < kGroups; ++g) {
                const std::string span =
                    std::string("check.run_schedule.") + kGroupNames[g];
                try {
                    const Divergence d =
                        timed(t, span.c_str(), unit, runS[g], [&] {
                            return runSchedule(schedules_[i], &cov[g],
                                               kGroupMasks[g]);
                        });
                    digest.add(d.found);
                    if (d.found && why.empty())
                        why = d.what;
                } catch (const std::exception& e) {
                    if (why.empty())
                        why = e.what();
                }
            }
            if (!why.empty())
                addFailure(out, "schedule " + unit + ": " + why);
        }

        ExploreStats ex;
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const std::string unit = std::to_string(programSeeds_[i]);
            ++out.attempted;
            try {
                const ExploreResult r =
                    timed(t, "check.explore", unit, exploreS,
                          [&] { return explore(programs_[i]); });
                const ExploreStats& s = r.stats;
                for (std::uint64_t v :
                     {s.explored, s.pruned, s.deliveryRuns,
                      s.deliveryPointsSeen, s.envAborts,
                      std::uint64_t{s.budgetExhausted},
                      std::uint64_t{r.div.found}})
                    digest.add(v);
                ex.explored += s.explored;
                ex.pruned += s.pruned;
                ex.envAborts += s.envAborts;
                if (r.div.found)
                    addFailure(out, "program " + unit + ": " + r.div.what);
                else if (s.envAborts > 0)
                    addFailure(out, "program " + unit +
                                  ": environmental capacity abort");
                else if (s.budgetExhausted)
                    addFailure(out, "program " + unit +
                                  ": interleaving budget exhausted");
            } catch (const std::exception& e) {
                addFailure(out, "program " + unit + ": " + e.what());
            }
        }

        Coverage sum;
        double runTotal = 0;
        for (int g = 0; g < kGroups; ++g) {
            hashCoverage(digest, cov[g]);
            runTotal += runS[g];
            accumulate(sum, cov[g]);
            out.spanUses.push_back(
                {std::string("check.run_schedule.") + kGroupNames[g],
                 std::string("check.run_schedule_ms.") + kGroupNames[g],
                 "", 0});
        }
        out.spanUses.push_back({"check.generate", "check.generate_ms", "",
                                0});
        out.spanUses.push_back({"check.explore", "check.explore_ms", "",
                                0});
        out.digest = digest.value();

        out.host["host_schedules_per_s"] =
            ratio(static_cast<double>(schedules_.size()), runTotal);
        out.host["host_interleavings_per_s"] =
            ratio(static_cast<double>(ex.explored), exploreS);
        out.host["host_accesses_per_s"] =
            ratio(static_cast<double>(sum.ops), runTotal);
        out.host["host_requests_per_s"] =
            ratio(static_cast<double>(sum.commits), runTotal);

        const auto d = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        setCount(out, "check.ops", d(sum.ops));
        setCount(out, "check.aborts", d(sum.aborts));
        setCount(out, "check.capacity_aborts", d(sum.capacityAborts));
        setCount(out, "check.fallback_entries", d(sum.fallbackEntries));
        setCount(out, "check.fast_hits", d(sum.fastHits));
        setCount(out, "check.explored", d(ex.explored));
        setCount(out, "check.pruned", d(ex.pruned));
        setRatio(out, "check.prune_ratio", "pruned", d(ex.pruned),
                 "pruned+explored", d(ex.pruned + ex.explored));
        setCount(out, "check.env_aborts", d(ex.envAborts));
        // The same counters seen as the layers they come from.
        setCount(out, "core.commits", d(sum.commits));
        setCount(out, "core.aborts", d(sum.aborts));
        setCount(out, "core.capacity_aborts", d(sum.capacityAborts));
        setRatio(out, "core.commit_ratio", "commits", d(sum.commits),
                 "commits+aborts", d(sum.commits + sum.aborts));
        setCount(out, "core.sla_confirms", d(sum.slaConfirms));
        setCount(out, "core.sla_mismatch_aborts",
                 d(sum.slaMismatchAborts));
        setCount(out, "core.tx.fallback_entries", d(sum.fallbackEntries));
        setCount(out, "core.tx.fallback_accesses",
                 d(sum.fallbackAccesses));
        setCount(out, "core.tx.limited_set_aborts",
                 d(sum.limitedSetAborts));
        setCount(out, "sim.spec_spills", d(sum.spills));
        setCount(out, "sim.spec_refills", d(sum.refills));
        setCount(out, "sim.so_refetches", d(sum.soRefetches));
        setCount(out, "sim.fast.attempts", d(sum.fastAttempts));
        setRatio(out, "sim.fast.hit_ratio", "fast_hits", d(sum.fastHits),
                 "fast_attempts", d(sum.fastAttempts));
        setCount(out, "sim.fast.gen_rejections", d(sum.fastGenRejections));
        out.notes.push_back(
            "check counts sum the three group replays of every schedule; "
            "Coverage carries no access mix, L1 or index counters");
        return out;
    }

  private:
    /** Per pass: schedules replayed on every group, and programs
     *  explored exhaustively. */
    static constexpr unsigned kSchedules = 240;
    static constexpr unsigned kPrograms = 240;

    std::vector<std::uint64_t> scheduleSeeds_, programSeeds_;
    std::vector<Schedule> schedules_, programs_;
};

} // namespace

std::unique_ptr<Workload>
makeCheckMatrix(const Options& o)
{
    return std::make_unique<CheckMatrix>(o);
}

} // namespace perfbench
