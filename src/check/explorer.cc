/**
 * @file
 * Sleep-set DFS over the interleavings of a small program, each leaf
 * replayed through the differential runner (DESIGN.md §14).
 */

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "check/explorer.hh"
#include "sim/cache_system.hh"
#include "sim/rng.hh"

namespace hmtx::check
{

namespace
{

bool
isAccess(OpKind k)
{
    switch (k) {
    case OpKind::Load:
    case OpKind::Store:
    case OpKind::NonSpecLoad:
    case OpKind::NonSpecStore:
    case OpKind::WrongPathLoad:
        return true;
    default:
        return false;
    }
}

/**
 * Replays forced delivery decisions and records how many decision
 * points the fabric consulted. Each matrix cell gets its own instance
 * (its own decision sequence); all instances of one replay share the
 * same forced vector, and decisions beyond it take the FIFO default.
 */
class RecordingChooser final : public sim::DeliveryChooser
{
  public:
    explicit RecordingChooser(const std::vector<unsigned>& forced)
        : forced_(forced)
    {}

    unsigned
    choose(Addr, unsigned n) override
    {
        const std::size_t i = count_++;
        if (i < forced_.size())
            return std::min(forced_[i], n - 1);
        return 0;
    }

    std::size_t decisions() const { return count_; }

  private:
    const std::vector<unsigned>& forced_;
    std::size_t count_ = 0;
};

class Explorer
{
  public:
    Explorer(const Schedule& prog, const ExploreConfig& cfg)
        : prog_(prog), cfg_(cfg)
    {
        unsigned maxCore = 0;
        for (const Op& op : prog.ops)
            maxCore = std::max(maxCore, unsigned(op.core));
        if (maxCore >= prog.cfg.numCores)
            throw std::invalid_argument(
                "explore: op core " + std::to_string(maxCore) +
                " outside the " + std::to_string(prog.cfg.numCores) +
                "-core machine");
        threads_.resize(prog.cfg.numCores);
        for (const Op& op : prog.ops)
            threads_[op.core].push_back(op);
        pos_.assign(threads_.size(), 0);
        prefix_.reserve(prog.ops.size());
        for (const Op& op : prog.ops)
            hasSlaOps_ = hasSlaOps_ || op.kind == OpKind::SlaConfirm ||
                op.kind == OpKind::SlaMismatch;
    }

    ExploreResult
    run()
    {
        dfs(std::vector<bool>(threads_.size(), false));
        return std::move(res_);
    }

  private:
    void
    dfs(const std::vector<bool>& sleep)
    {
        if (stop_)
            return;
        std::vector<unsigned> enabled;
        for (unsigned c = 0; c < threads_.size(); ++c)
            if (pos_[c] < threads_[c].size())
                enabled.push_back(c);
        if (enabled.empty()) {
            runLeaf();
            return;
        }
        // Godefroid sleep sets: a core still asleep here heads a
        // subtree whose every trace is already covered through an
        // explored sibling; waking happens below, when an executed op
        // is *dependent* with the sleeper's next op.
        std::vector<bool> sl = sleep;
        for (unsigned c : enabled) {
            if (cfg_.prune && sl[c]) {
                ++res_.stats.pruned;
                continue;
            }
            const Op& next = threads_[c][pos_[c]];
            std::vector<bool> childSleep(threads_.size(), false);
            if (cfg_.prune)
                for (unsigned d = 0; d < threads_.size(); ++d)
                    if (d != c && sl[d] &&
                        pos_[d] < threads_[d].size() &&
                        opsIndependent(threads_[d][pos_[d]], next,
                                       hasSlaOps_, cfg_.groupMask))
                        childSleep[d] = true;
            prefix_.push_back(next);
            ++pos_[c];
            dfs(childSleep);
            --pos_[c];
            prefix_.pop_back();
            if (stop_)
                return;
            sl[c] = true;
        }
    }

    void
    runLeaf()
    {
        if (res_.stats.explored >= cfg_.maxInterleavings) {
            res_.stats.budgetExhausted = true;
            stop_ = true;
            return;
        }
        ++res_.stats.explored;
        Schedule leaf;
        leaf.cfg = prog_.cfg;
        leaf.ops = prefix_;
        if (cfg_.deliveryPoints == 0) {
            replay(leaf, {}, nullptr);
            return;
        }
        // Branch over the first deliveryPoints directory delivery
        // decisions: the base replay runs all-FIFO and reports how
        // many points exist; every deeper prefix re-runs with one
        // decision flipped to "overtake". Each replay covers the
        // all-FIFO extension of its forced prefix, so this visits
        // every choice vector of the bounded tree exactly once.
        std::size_t seen = 0;
        replay(leaf, {}, &seen);
        res_.stats.deliveryPointsSeen += seen;
        deliveryDfs(leaf, {}, seen);
    }

    void
    deliveryDfs(const Schedule& leaf,
                const std::vector<unsigned>& forced, std::size_t seen)
    {
        const std::size_t depth =
            std::min<std::size_t>(seen, cfg_.deliveryPoints);
        for (std::size_t i = forced.size(); i < depth && !stop_; ++i) {
            std::vector<unsigned> f2 = forced;
            f2.resize(i + 1, 0);
            f2[i] = 1;
            std::size_t subSeen = 0;
            ++res_.stats.deliveryRuns;
            replay(leaf, f2, &subSeen);
            if (stop_)
                return;
            deliveryDfs(leaf, f2, subSeen);
        }
    }

    void
    replay(const Schedule& leaf, const std::vector<unsigned>& forced,
           std::size_t* decisionsOut)
    {
        std::vector<std::unique_ptr<RecordingChooser>> choosers;
        RunHooks hooks;
        hooks.onCell = [&](const char*, sim::CacheSystem& sys) {
            choosers.push_back(
                std::make_unique<RecordingChooser>(forced));
            sys.interconnect().setDeliveryChooser(
                choosers.back().get());
        };
        Coverage cov;
        Divergence d =
            runSchedule(leaf, &cov, cfg_.groupMask,
                        decisionsOut != nullptr ? &hooks : nullptr);
        if (decisionsOut != nullptr)
            for (const auto& ch : choosers)
                *decisionsOut =
                    std::max(*decisionsOut, ch->decisions());
        // Environmental-abort tripwire for the pruning argument: in a
        // limited-set-only pass the mandatory K-th-line aborts are
        // predicted (and accounted by the same cell), so only the
        // excess is environmental.
        std::uint64_t env = cov.capacityAborts;
        if (cfg_.groupMask == kGroupLtd)
            env = env > cov.limitedSetAborts
                ? env - cov.limitedSetAborts
                : 0;
        if (env != 0)
            ++res_.stats.envAborts;
        if (d.found) {
            res_.div = d;
            res_.witness = leaf;
            stop_ = true;
        }
    }

    const Schedule& prog_;
    const ExploreConfig& cfg_;
    std::vector<std::vector<Op>> threads_;
    std::vector<unsigned> pos_;
    std::vector<Op> prefix_;
    bool hasSlaOps_ = false;
    bool stop_ = false;
    ExploreResult res_;
};

} // namespace

bool
opsIndependent(const Op& a, const Op& b, bool hasSlaOps,
               unsigned groupMask)
{
    if (a.core == b.core)
        return false; // program order is binding
    // Bulk/global ops (commit, abort, VID reset, SLA acks) touch the
    // whole machine; never reorder around them.
    if (!isAccess(a.kind) || !isAccess(b.kind))
        return false;
    // Same line: the §4.1 tags, marks, and versions live per line.
    if (lineAddr(a.addr) == lineAddr(b.addr))
        return false;
    // Stores of either kind can raise a *global* abort (a §4.3
    // dependence violation, or non-speculative-under-speculative),
    // whose flush is visible on every other line.
    if (a.kind == OpKind::Store || a.kind == OpKind::NonSpecStore ||
        b.kind == OpKind::Store || b.kind == OpKind::NonSpecStore)
        return false;
    const bool aCp = a.kind == OpKind::Load; // correct-path spec load
    const bool bCp = b.kind == OpKind::Load;
    // Limited-set cells: a correct-path access past the K bound
    // raises a mandatory global capacity abort, so even a load's
    // order is visible machine-wide.
    if ((groupMask & kGroupLtd) && (aCp || bCp))
        return false;
    // Best-effort cells: every correct-path spec access advances the
    // fallback state machine (which access of LC+1 takes the lock).
    if ((groupMask & kGroupBtx) && aCp && bCp)
        return false;
    // Two correct-path loads may both enqueue deferred SLAs; explicit
    // SLA ops consume that queue in FIFO order.
    if (hasSlaOps && aCp && bCp)
        return false;
    // What remains: loads (spec, non-spec, wrong-path) to different
    // lines — per-line marks, per-word values, no policy coupling.
    return true;
}

ExploreResult
explore(const Schedule& program, const ExploreConfig& cfg)
{
    Explorer e(program, cfg);
    return e.run();
}

Schedule
generateProgram(std::uint64_t seed, unsigned cores, unsigned numOps)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ull +
                 0x94d049bb133111ebull);
    Schedule s;
    s.isProgram = true;
    FuzzConfig& c = s.cfg;
    c.numCores = std::max(2u, cores);
    c.l1KB = 1;
    c.l1Assoc = 2;
    c.l2KB = 8;
    c.l2Assoc = 8;
    // Mostly the paper's m=6 window; sometimes 4 bits so short
    // programs still meet the §4.6 wraparound machinery.
    c.vidBits = rng.chance(0.25) ? 4 : 6;
    c.unboundedSpecSets = false;
    c.slaEnabled = !rng.chance(0.25);
    c.btxRetries = 1 + static_cast<unsigned>(rng.range(2));
    c.btxThreshold = 0;
    // Tiny K so the K-th-line boundary is inside a 4-8 op program.
    c.limitedK = 1 + static_cast<unsigned>(rng.range(3));
    c.fastPathMask =
        rng.chance(0.5) ? (1u << 10) - 1 : 0u;
    // The address pool is the opposite of the fuzzer's: 2-3 lines in
    // *distinct* L1 and L2 sets, far under every capacity bound, so
    // no environmental capacity abort can fire and the sleep-set
    // argument (§14) holds unconditionally.
    const unsigned nLines = 2 + (rng.chance(0.35) ? 1u : 0u);
    std::vector<Addr> pool;
    for (unsigned i = 0; i < nLines; ++i)
        pool.push_back(0x40000 + i * kLineBytes);
    auto pickAddr = [&] {
        Addr line = pool[rng.range(pool.size())];
        return line + (rng.chance(0.3) ? 8 : 0);
    };
    auto pickVidOff = [&] {
        return static_cast<std::uint8_t>(1 + rng.range(2) +
                                         (rng.chance(0.2) ? 1 : 0));
    };
    s.ops.reserve(numOps);
    while (s.ops.size() < numOps) {
        Op op;
        op.core = static_cast<std::uint8_t>(rng.range(c.numCores));
        op.vidOff = pickVidOff();
        op.size = 8;
        const std::uint64_t roll = rng.range(100);
        if (roll < 34) {
            op.kind = OpKind::Load;
            op.addr = pickAddr();
        } else if (roll < 60) {
            op.kind = OpKind::Store;
            op.addr = pickAddr();
            op.value = rng.next();
        } else if (roll < 74) {
            op.kind = OpKind::Commit;
        } else if (roll < 82) {
            op.kind = OpKind::NonSpecLoad;
            op.addr = pickAddr();
        } else if (roll < 88) {
            op.kind = OpKind::NonSpecStore;
            op.addr = pickAddr();
            op.value = rng.next();
        } else if (roll < 94) {
            op.kind = OpKind::WrongPathLoad;
            op.addr = pickAddr();
        } else if (roll < 97) {
            op.kind = OpKind::SlaConfirm;
        } else if (roll < 98) {
            op.kind = OpKind::SlaMismatch;
            op.value = 1 + rng.range(0xff);
        } else if (roll < 99) {
            op.kind = OpKind::AbortAll;
        } else {
            op.kind = OpKind::VidReset;
        }
        s.ops.push_back(op);
    }
    return s;
}

} // namespace hmtx::check
