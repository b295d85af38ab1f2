/**
 * @file
 * System-wide statistics collected by the memory system.
 */

#ifndef HMTX_SIM_STATS_HH
#define HMTX_SIM_STATS_HH

#include <array>
#include <bit>
#include <cstdint>

#include "core/types.hh"

namespace hmtx::sim
{

/**
 * Counters accumulated by CacheSystem. These feed Table 1 (per-TX
 * speculative accesses, SLA counts, avoided aborts), Figure 9 (read and
 * write set sizes), and Table 3 (activity counts for the power model).
 */
struct SysStats
{
    // Access mix.
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t specLoads = 0;
    std::uint64_t specStores = 0;
    std::uint64_t wrongPathLoads = 0;

    // Hierarchy behaviour.
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t snoopHits = 0;
    std::uint64_t memFetches = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t busTxns = 0;
    /** Directory-fabric transactions (bank lookups). */
    std::uint64_t dirLookups = 0;

    // HMTX protocol events.
    std::uint64_t commits = 0;
    /** Cycles the memory system spent processing commits/aborts:
     *  O(1) per commit with the lazy scheme (§5.3), O(speculative
     *  lines) with the naive §4.4 scheme. */
    std::uint64_t commitProcessingCycles = 0;
    std::uint64_t aborts = 0;
    std::uint64_t falseAbortsWrongPath = 0;
    std::uint64_t capacityAborts = 0;
    std::uint64_t newVersions = 0;
    /** Redundant per-VID read copies allocated under the §7.1
     *  copy-on-read ablation policy. */
    std::uint64_t corDuplicates = 0;
    std::uint64_t vidResets = 0;

    // SLA machinery (§5.1).
    std::uint64_t slaNeeded = 0;
    std::uint64_t slaConfirms = 0;
    std::uint64_t slaMismatchAborts = 0;
    std::uint64_t avoidedAborts = 0;

    // §5.4 overflow handling.
    std::uint64_t soOverflowWritebacks = 0;
    std::uint64_t soRefetches = 0;
    /** Speculative responder lines spilled to the overflow table
     *  (unbounded-sets extension, §8). */
    std::uint64_t specSpills = 0;
    std::uint64_t specRefills = 0;

    /**
     * Cores of the configured machine the execution model left idle
     * (numCores minus the cores the executor actually occupied).
     * Recorded by the runtime drivers so a pipeline schedule narrower
     * than the machine is visible instead of silently wasting cores.
     */
    std::uint64_t idleCores = 0;

    // Read/write set accounting (Figure 9), accumulated at commit.
    std::uint64_t committedTxs = 0;
    std::uint64_t readSetLines = 0;
    std::uint64_t writeSetLines = 0;
    std::uint64_t combinedSetLines = 0;
    std::uint64_t maxCombinedSetLines = 0;

    /** Average read set size per committed transaction, in kB. */
    double
    avgReadSetKB() const
    {
        return committedTxs == 0 ? 0.0
            : static_cast<double>(readSetLines) * kLineBytes / 1024.0 /
                static_cast<double>(committedTxs);
    }

    /** Average write set size per committed transaction, in kB. */
    double
    avgWriteSetKB() const
    {
        return committedTxs == 0 ? 0.0
            : static_cast<double>(writeSetLines) * kLineBytes / 1024.0 /
                static_cast<double>(committedTxs);
    }

    /** Average combined set size per committed transaction, in kB. */
    double
    avgCombinedSetKB() const
    {
        return committedTxs == 0 ? 0.0
            : static_cast<double>(combinedSetLines) * kLineBytes /
                1024.0 / static_cast<double>(committedTxs);
    }

    /** Average speculative accesses per committed transaction. */
    double
    avgSpecAccessesPerTx() const
    {
        return committedTxs == 0 ? 0.0
            : static_cast<double>(specLoads + specStores) /
                static_cast<double>(committedTxs);
    }

    /** Fraction of speculative loads that needed an SLA (Table 1). */
    double
    slaNeededRate() const
    {
        return specLoads == 0 ? 0.0
            : static_cast<double>(slaNeeded) /
                static_cast<double>(specLoads);
    }

    /**
     * Field-wise equality; the differential tests use this to prove
     * the indexed hot paths are observation-equivalent to the
     * full-scan reference.
     */
    bool operator==(const SysStats&) const = default;
};

/**
 * Diagnostics for the simulator-internal index structures (address
 * presence filter + per-cache spec-line registry). Kept separate from
 * SysStats on purpose: these counters describe how the *simulator*
 * found lines, not what the simulated machine did, and they differ
 * between indexed and full-scan runs that are otherwise bit-identical.
 */
struct IndexStats
{
    /** Caches actually visited by a filtered snoop. */
    std::uint64_t snoopsVisited = 0;
    /** Caches skipped because the filter proved them empty. */
    std::uint64_t snoopsFiltered = 0;
    /** Bulk walks served from the spec-line registries. */
    std::uint64_t registryWalks = 0;
    /** Lines visited by those registry walks. */
    std::uint64_t registryWalkLines = 0;
    /** Bulk walks that fell back to a full cache scan. */
    std::uint64_t fullScanWalks = 0;
    /** Times verifyIndexes() rebuilt and compared the indexes. */
    std::uint64_t crossChecks = 0;

    /** Fraction of snoop targets the filter eliminated. */
    double
    snoopFilterRate() const
    {
        const std::uint64_t total = snoopsVisited + snoopsFiltered;
        return total == 0 ? 0.0
            : static_cast<double>(snoopsFiltered) /
                static_cast<double>(total);
    }
};

/**
 * Diagnostics for the zero-event hit fast path (DESIGN.md §13). Like
 * IndexStats these are simulator-side: the fast path retires an access
 * with identical architectural effects to the full path, so runs with
 * the fast path on and off are bit-identical in SysStats but differ
 * here.
 */
struct FastStats
{
    /** Fast probes attempted (every load/store when enabled). */
    std::uint64_t attempts = 0;
    /** Loads retired by the fast path. */
    std::uint64_t loadHits = 0;
    /** Stores retired by the fast path. */
    std::uint64_t storeHits = 0;
    /** Probes that found a tag for the right VID but rejected it
     *  because the generation was stale (the line or the system was
     *  touched by a protocol action since the tag was planted). */
    std::uint64_t genRejections = 0;
    /** Timed runtime ops (any kind, fast-path hit or not) whose
     *  wake-up continued inline instead of scheduling an event
     *  (EventQueue::tryBypassResumed; runtime-driven runs only). */
    std::uint64_t eventBypasses = 0;

    /** Total fast-path retirements. */
    std::uint64_t hits() const { return loadHits + storeHits; }

    /** Fraction of fast probes that retired on the fast path. */
    double
    hitRate() const
    {
        return attempts == 0 ? 0.0
            : static_cast<double>(hits()) /
                static_cast<double>(attempts);
    }
};

/**
 * Streaming log-linear latency histogram (HDR style): each power-of-
 * two octave is split into 2^kSubBits linear sub-buckets, so the
 * relative quantization error is bounded by 1/2^kSubBits (~6%) at any
 * magnitude while the whole structure stays a fixed ~8 kB regardless
 * of how many samples it absorbs. record() is O(1), allocation-free
 * and branch-light — cheap enough to sit on the per-retire path of a
 * millions-of-transactions serving run where keeping every latency
 * sample would O(n)-accumulate.
 *
 * Percentiles are nearest-rank over the bucketized distribution and
 * return the selected bucket's lower bound; bucketFloor() exposes the
 * same quantization so an exact sort-based recompute can assert
 * equality (see the kv_serve smoke test).
 */
class LatencyHistogram
{
  public:
    /** Linear sub-buckets per octave = 2^kSubBits. */
    static constexpr unsigned kSubBits = 4;
    /** Values below 2^(kSubBits+1) get exact single-value buckets
     *  (0..31 with kSubBits=4); each octave above contributes
     *  2^kSubBits buckets, up to the top uint64 octave (exp 63). */
    static constexpr unsigned kBuckets =
        (2u << kSubBits) + ((63 - kSubBits) << kSubBits);

    /** Bucket index of @p v (O(1), total order preserved). */
    static unsigned
    bucketOf(std::uint64_t v)
    {
        if (v < (2u << kSubBits))
            return static_cast<unsigned>(v);
        const unsigned exp = 63 - std::countl_zero(v);
        const unsigned sub = static_cast<unsigned>(
            (v >> (exp - kSubBits)) & ((1u << kSubBits) - 1));
        return ((exp - kSubBits + 1) << kSubBits) + sub;
    }

    /** Smallest value landing in bucket @p b (inverse of bucketOf). */
    static std::uint64_t
    lowerBoundOf(unsigned b)
    {
        if (b < (2u << kSubBits))
            return b;
        const unsigned exp = (b >> kSubBits) + kSubBits - 1;
        const std::uint64_t sub = b & ((1u << kSubBits) - 1);
        return ((std::uint64_t{1} << kSubBits) + sub)
               << (exp - kSubBits);
    }

    /** @p v quantized to its bucket's lower bound — what percentile()
     *  reports for samples of @p v. */
    static std::uint64_t
    bucketFloor(std::uint64_t v)
    {
        return lowerBoundOf(bucketOf(v));
    }

    /** Absorbs one sample. O(1), no allocation. */
    void
    record(std::uint64_t v)
    {
        ++counts_[bucketOf(v)];
        ++count_;
        sum_ += v;
        max_ = v > max_ ? v : max_;
        min_ = v < min_ ? v : min_;
    }

    /** Folds @p o's samples into this histogram. */
    void
    merge(const LatencyHistogram& o)
    {
        for (unsigned b = 0; b < kBuckets; ++b)
            counts_[b] += o.counts_[b];
        count_ += o.count_;
        sum_ += o.sum_;
        max_ = o.max_ > max_ ? o.max_ : max_;
        min_ = o.min_ < min_ ? o.min_ : min_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return max_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }

    double
    mean() const
    {
        return count_ == 0
            ? 0.0
            : static_cast<double>(sum_) / static_cast<double>(count_);
    }

    /**
     * Nearest-rank percentile (q in (0, 1]): the bucket lower bound of
     * the ceil(q * count)-th smallest sample. 0 when empty.
     */
    std::uint64_t
    percentile(double q) const
    {
        if (count_ == 0)
            return 0;
        auto rank = static_cast<std::uint64_t>(
            q * static_cast<double>(count_));
        if (static_cast<double>(rank) <
            q * static_cast<double>(count_))
            ++rank; // ceil
        if (rank == 0)
            rank = 1;
        std::uint64_t cum = 0;
        for (unsigned b = 0; b < kBuckets; ++b) {
            cum += counts_[b];
            if (cum >= rank)
                return lowerBoundOf(b);
        }
        return max_; // unreachable while count_ is consistent
    }

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
};

/**
 * Counters of the KV/OLTP serving engine (src/workloads/kv_serve.*).
 * Simulator-side like FastStats — they describe the request pipeline
 * the driver ran, not the simulated machine — but their *internal*
 * consistency is architectural truth: every issued transaction
 * attempt ends in exactly one commit or one abort, so
 * committed + aborted == issued always holds (asserted by the smoke
 * test and checkable on any report via consistent()).
 */
struct ServeStats
{
    /** Distinct requests completed (each commits exactly once). */
    std::uint64_t requests = 0;
    /** Transaction attempts started (first dispatch + re-executions). */
    std::uint64_t issued = 0;
    /** Attempts that ended in a commit. */
    std::uint64_t committed = 0;
    /** Attempts that ended in an abort (and were re-issued). */
    std::uint64_t aborted = 0;
    /** Serialized drain passes that ran the oldest transaction alone
     *  to guarantee progress after an abort. */
    std::uint64_t drains = 0;
    /** Bodies restarted from the top because the best-effort fallback
     *  lock engaged mid-transaction: the speculative prefix written
     *  before the lock is ordinary flushable state (the protocol
     *  requires the holder to own none), so the whole request
     *  re-executes under the lock. */
    std::uint64_t lockRestarts = 0;
    /** Requests whose footprint exceeds the limited-set K even alone;
     *  run non-speculatively under a quiesced pipeline (the software
     *  fallback of a bounded HTM) and committed as an empty VID. */
    std::uint64_t nonSpecFallbacks = 0;
    /** VID-window resets the engine performed between batches. */
    std::uint64_t windowResets = 0;
    /** Generator refill batches injected into the per-core rings. */
    std::uint64_t batches = 0;
    /** Cycles cores sat idle waiting for the next open-loop arrival. */
    std::uint64_t idleCycles = 0;
    /** Commit-time request latency (arrival to commit), in cycles. */
    LatencyHistogram latency;

    /** Every attempt ended exactly one way. */
    bool
    consistent() const
    {
        return committed + aborted == issued && committed == requests;
    }
};

} // namespace hmtx::sim

#endif // HMTX_SIM_STATS_HH
