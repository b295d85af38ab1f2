/**
 * @file
 * Configurable stress workload for failure-injection testing: a
 * pipeline loop with tunable footprint, branchiness and (crucially)
 * genuine transient dependence violations at a chosen rate.
 */

#ifndef HMTX_WORKLOADS_STRESS_HH
#define HMTX_WORKLOADS_STRESS_HH

#include <algorithm>
#include <set>
#include <vector>

#include "workloads/worklist.hh"

namespace hmtx::workloads
{

/**
 * Each iteration hashes over a private scratch region (footprint and
 * compute knobs) and, with probability conflictRate, commits a real
 * crime once: its stage 2 stores to a shared line that later
 * iterations' stage 1 reads every iteration, after dawdling long
 * enough for those reads to have happened. Every such violation
 * must be detected by the HMTX system and replayed; conflicts do not
 * recur on replay (transient misspeculation, as with control-flow
 * speculation). The final checksum must equal the sequential run's
 * regardless of how many aborts occurred.
 */
class StressWorkload : public ChasedListWorkload
{
  public:
    struct Params
    {
        std::uint64_t iterations = 64;
        /** 64-bit words hashed per iteration (footprint). */
        unsigned scratchWords = 48;
        /** Data-dependent branches per iteration. */
        unsigned branches = 6;
        /** Probability that an iteration injects one violation. */
        double conflictRate = 0.0;
        std::uint64_t seed = 7777;
    };

    /** Constructs with default parameters. */
    StressWorkload();
    explicit StressWorkload(Params p) : p_(p) {}

    std::string name() const override { return "stress"; }
    std::uint64_t iterations() const override
    {
        return p_.iterations;
    }
    unsigned minRwSetPerIter() const override { return 1; }

    void setup(runtime::Machine& m) override;
    sim::Task<void> stage1(runtime::MemIf& mem,
                           std::uint64_t iter) override;
    sim::Task<void> stage2(runtime::MemIf& mem,
                           std::uint64_t iter) override;
    std::uint64_t checksum(runtime::Machine& m) override;

    /** Iterations that injected a violation this run. */
    std::size_t
    conflictsInjected() const
    {
        return static_cast<std::size_t>(
            std::count(fired_.begin(), fired_.end(), char{1}));
    }

  private:
    Params p_;
    Addr shared_ = 0;
    IterRegion scratch_;
    IterRegion results_;
    std::set<std::uint64_t> conflictIters_;
    /** One fired flag per iteration (pre-sized in setup, so stage
     *  bodies only ever touch their own iteration's element — never
     *  the container shape). */
    std::vector<char> fired_;
};

} // namespace hmtx::workloads

#endif // HMTX_WORKLOADS_STRESS_HH
