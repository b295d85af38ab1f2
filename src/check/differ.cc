/**
 * @file
 * The differential runner: golden model vs. the grouped 8-cell config
 * matrix. Each group (full-HMTX, best-effort, limited-set) runs the
 * schedule independently against its own golden model — commit modes
 * differ architecturally by design, so cross-cell comparison is only
 * meaningful within a group.
 */

#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "check/differ.hh"
#include "check/golden.hh"
#include "sim/cache_system.hh"
#include "sim/rng.hh"

namespace hmtx::check
{

namespace
{

/** Full-HMTX group: {bus, dir} x {lazy, eager}. */
constexpr int kCells = 4;

const char* const kCellNames[kCells] = {"bus/lazy", "bus/eager",
                                        "dir/lazy", "dir/eager"};

const char*
groupName(unsigned g)
{
    switch (g) {
    case kGroupHmtx: return "hmtx";
    case kGroupBtx: return "btx";
    case kGroupLtd: return "ltd";
    default: return "?";
    }
}

/** Policy the golden model and the mode cells of @p group share. */
TxPolicyConfig
groupPolicy(const FuzzConfig& c, unsigned g)
{
    TxPolicyConfig pc;
    if (g == kGroupBtx) {
        pc.mode = TxMode::BestEffort;
        pc.btxMaxRetries = c.btxRetries;
        pc.btxAbortThreshold = c.btxThreshold;
    } else if (g == kGroupLtd) {
        pc.mode = TxMode::LimitedSet;
        pc.limitedSetK = c.limitedK;
    }
    return pc;
}

sim::MachineConfig
cellConfig(const FuzzConfig& c, int i)
{
    sim::MachineConfig mc;
    mc.numCores = c.numCores;
    mc.l1SizeKB = c.l1KB;
    mc.l1Assoc = c.l1Assoc;
    mc.l2SizeKB = c.l2KB;
    mc.l2Assoc = c.l2Assoc;
    mc.vidBits = c.vidBits;
    mc.unboundedSpecSets = c.unboundedSpecSets;
    mc.slaEnabled = c.slaEnabled;
    // Per-cell zero-event fast-path toggle (DESIGN.md §13): cells with
    // the bit clear run the classic event path, so cross-cell
    // comparison doubles as a fast-on vs fast-off differential.
    mc.fastPath = (c.fastPathMask >> i) & 1;
    mc.fabric = i < 2 ? sim::Fabric::SnoopBus : sim::Fabric::Directory;
    mc.txMode = (i % 2) == 0 ? TxMode::LazyHmtx
                             : TxMode::EagerHmtx;
    // One cell polices the incremental indexes after every bulk op;
    // another runs the reference full-scan path, so index bugs show up
    // as cross-cell divergence even between cross-checks.
    mc.indexCrossCheck = i == 0;
    mc.forceFullScan = i == 1;
    return mc;
}

/** Config for one {fabric} cell of a mode group (btx or ltd). */
sim::MachineConfig
modeCellConfig(const FuzzConfig& c, unsigned g, sim::Fabric f)
{
    sim::MachineConfig mc;
    mc.numCores = c.numCores;
    mc.l1SizeKB = c.l1KB;
    mc.l1Assoc = c.l1Assoc;
    mc.l2SizeKB = c.l2KB;
    mc.l2Assoc = c.l2Assoc;
    mc.vidBits = c.vidBits;
    // Bounded modes exist to cap speculative footprints; the config
    // layer rejects them with unbounded spec sets.
    mc.unboundedSpecSets = false;
    mc.slaEnabled = c.slaEnabled;
    mc.fabric = f;
    const TxPolicyConfig pc = groupPolicy(c, g);
    mc.txMode = pc.mode;
    mc.btxMaxRetries = pc.btxMaxRetries;
    mc.btxAbortThreshold = pc.btxAbortThreshold;
    mc.limitedSetK = pc.limitedSetK;
    // Bits 6-9 of the mask: the bounded modes gate the knob off again
    // internally, so this fuzzes that the gate really holds.
    const unsigned bit = 6 + (g == kGroupLtd ? 2 : 0) +
        (f == sim::Fabric::Directory ? 1 : 0);
    mc.fastPath = (c.fastPathMask >> bit) & 1;
    return mc;
}

bool
usesAddr(OpKind k)
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

std::uint64_t
sizeMask(unsigned size)
{
    return size >= 8 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << (8 * size)) - 1;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * The clock every cell reads. Cells never schedule events and
 * CacheSystem only reads curTick(), so it stays at tick 0 and
 * concurrent hmtx_fuzz --threads workers can share it.
 */
const sim::EventQueue&
idleClock()
{
    static const sim::EventQueue clock;
    return clock;
}

struct Cell
{
    const char* name;
    sim::CacheSystem sys;

    Cell(const char* n, const sim::MachineConfig& mc)
        : name(n), sys(idleClock(), mc)
    {}
};

/** One pending deferred-mark acknowledgment (§5.1). */
struct PendingSla
{
    CoreId core;
    SlaEntry e;
};

class Runner
{
  public:
    Runner(const Schedule& s, unsigned group,
           const RunHooks* hooks = nullptr)
        : s_(s), gold_(s.cfg.slaEnabled, groupPolicy(s.cfg, group))
    {
        if (group == kGroupHmtx) {
            for (int i = 0; i < kCells; ++i)
                cells_.push_back(std::make_unique<Cell>(
                    kCellNames[i], cellConfig(s.cfg, i)));
        } else {
            const bool btx = group == kGroupBtx;
            cells_.push_back(std::make_unique<Cell>(
                btx ? "bus/btx" : "bus/ltd",
                modeCellConfig(s.cfg, group, sim::Fabric::SnoopBus)));
            cells_.push_back(std::make_unique<Cell>(
                btx ? "dir/btx" : "dir/ltd",
                modeCellConfig(s.cfg, group, sim::Fabric::Directory)));
        }
        maxVid_ = cells_[0]->sys.config().maxVid();
        if (hooks != nullptr && hooks->onCell)
            for (auto& c : cells_)
                hooks->onCell(c->name, c->sys);
        seedMemory();
    }

    Divergence
    run(Coverage* cov, bool primary)
    {
        for (std::size_t i = 0; i < s_.ops.size() && !div_.found; ++i) {
            step(i);
            if (!div_.found && (i + 1) % 32 == 0)
                checkInvariants(i);
        }
        if (!div_.found)
            finalChecks();
        if (cov)
            accumulate(*cov, primary);
        return div_;
    }

  private:
    // --- divergence reporting ----------------------------------------

    void
    fail(std::size_t idx, std::string what)
    {
        if (div_.found)
            return;
        div_.found = true;
        div_.opIndex = idx;
        if (idx != static_cast<std::size_t>(-1)) {
            const Op& op = s_.ops[idx];
            what = "op#" + std::to_string(idx) + " " + describe(op) +
                   ": " + what;
        }
        div_.what = std::move(what);
    }

    // --- setup -------------------------------------------------------

    void
    seedMemory()
    {
        std::set<Addr> words;
        for (const Op& op : s_.ops)
            if (usesAddr(op.kind))
                words.insert(op.addr & ~Addr{7});
        for (Addr w : words) {
            sim::Rng r(w ^ 0x5bd1e995a967f2d3ull);
            std::uint64_t v = r.next();
            gold_.seed(w, v);
            for (auto& c : cells_)
                c->sys.memory().write(w, v, 8);
        }
    }

    // --- cross-cell execution ----------------------------------------

    /**
     * Runs @p fn on every cell; verifies the cells agree on the
     * AccessResult (minus latency), the abort-generation delta, the
     * capacity-abort delta, and lcVid. Returns false once diverged.
     * @p out receives cell 0's result; @p genDelta / @p capacity the
     * agreed abort deltas.
     */
    template <typename Fn>
    bool
    runAll(std::size_t idx, Fn&& fn, sim::AccessResult& out,
           std::uint64_t& genDelta, bool& capacity)
    {
        sim::AccessResult r0{};
        std::uint64_t gen0 = 0, cap0 = 0;
        for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
            Cell& c = *cells_[ci];
            const std::uint64_t g = c.sys.abortGen();
            const std::uint64_t cap = c.sys.stats().capacityAborts;
            sim::AccessResult r;
            try {
                r = fn(c);
            } catch (const std::exception& ex) {
                fail(idx, std::string(c.name) + " threw: " + ex.what());
                return false;
            }
            const std::uint64_t gd = c.sys.abortGen() - g;
            const std::uint64_t cd =
                c.sys.stats().capacityAborts - cap;
            if (ci == 0) {
                r0 = r;
                gen0 = gd;
                cap0 = cd;
            } else if (gd != gen0 || cd != cap0) {
                fail(idx, std::string("abort disagreement: cell ") +
                         c.name + " gen+" + std::to_string(gd) +
                         " cap+" + std::to_string(cd) + ", cell " +
                         cells_[0]->name + " gen+" +
                         std::to_string(gen0) + " cap+" +
                         std::to_string(cap0));
                return false;
            } else if (r.value != r0.value ||
                       r.aborted != r0.aborted ||
                       r.needSla != r0.needSla ||
                       r.l1Hit != r0.l1Hit) {
                fail(idx,
                     std::string("result disagreement vs ") + c.name +
                         ": value " + hex(r0.value) + "/" +
                         hex(r.value) + " aborted " +
                         std::to_string(r0.aborted) + "/" +
                         std::to_string(r.aborted) + " needSla " +
                         std::to_string(r0.needSla) + "/" +
                         std::to_string(r.needSla) + " l1Hit " +
                         std::to_string(r0.l1Hit) + "/" +
                         std::to_string(r.l1Hit));
                return false;
            }
        }
        for (auto& c : cells_) {
            if (c->sys.lcVid() != cells_[0]->sys.lcVid()) {
                fail(idx, std::string("lcVid disagreement: ") +
                              c->name + "=" +
                              std::to_string(c->sys.lcVid()));
                return false;
            }
        }
        out = r0;
        genDelta = gen0;
        capacity = cap0 != 0;
        return true;
    }

    /**
     * Golden resync after real aborts. The flush itself is idempotent,
     * but the golden's TxPolicy counts consecutive aborts exactly as
     * every cell's does, so abortAll() must run once per real
     * abort-generation tick to keep the fallback state machines in
     * lockstep.
     */
    void
    syncAbort(std::uint64_t n = 1)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            gold_.abortAll();
        pending_.clear();
    }

    /**
     * Classifies a real abort the golden did not predict: capacity
     * aborts are environmental and resync the golden; anything else is
     * a divergence. Returns false on divergence.
     */
    bool
    acceptEnvAbort(std::size_t idx, std::uint64_t gen, bool capacity,
                   const char* what)
    {
        if (!capacity) {
            fail(idx, std::string(what) +
                          ": abort not predicted by golden model and "
                          "no capacity abort recorded");
            return false;
        }
        syncAbort(gen);
        return true;
    }

    // --- op execution ------------------------------------------------

    void
    step(std::size_t idx)
    {
        const Op& op = s_.ops[idx];
        switch (op.kind) {
        case OpKind::Load:
        case OpKind::WrongPathLoad:
            doLoad(idx, op, op.kind == OpKind::WrongPathLoad);
            return;
        case OpKind::NonSpecLoad:
            doLoad(idx, op, false);
            return;
        case OpKind::Store:
        case OpKind::NonSpecStore:
            doStore(idx, op);
            return;
        case OpKind::Commit:
            doCommit(idx);
            return;
        case OpKind::AbortAll:
            doAbortAll(idx);
            return;
        case OpKind::VidReset:
            doVidReset(idx);
            return;
        case OpKind::SlaConfirm:
            doSlaOp(idx, 0);
            return;
        case OpKind::SlaMismatch:
            doSlaOp(idx, op.value ? op.value : 1);
            return;
        }
    }

    Vid
    vidFor(const Op& op) const
    {
        if (op.kind == OpKind::NonSpecLoad ||
            op.kind == OpKind::NonSpecStore)
            return kNonSpecVid;
        return cells_[0]->sys.lcVid() + op.vidOff;
    }

    void
    doLoad(std::size_t idx, const Op& op, bool wrongPath)
    {
        const Vid vid = vidFor(op);
        if (vid > maxVid_)
            return; // outside the VID window; skip
        ++executed_;
        // Mirror the cells' policy consultation. A serialized access
        // (best-effort fallback lock held by this VID) has full
        // non-speculative semantics; wrong-path loads consult the lock
        // passively, exactly as CacheSystem::load does.
        bool serialized = false;
        if (vid != kNonSpecVid)
            serialized = wrongPath ? gold_.policy().serializes(vid)
                                   : gold_.beginSpecAccess(vid);
        const bool ltdAbort = !serialized && !wrongPath &&
            vid != kNonSpecVid &&
            gold_.limitedSetWouldAbort(op.addr, vid);
        const Vid effVid = serialized ? kNonSpecVid : vid;
        std::uint64_t want = gold_.valueAt(op.addr, op.size, effVid);
        sim::AccessResult r;
        std::uint64_t gen = 0;
        bool capacity = false;
        if (!runAll(idx,
                    [&](Cell& c) {
                        return c.sys.load(op.core, op.addr, op.size,
                                          vid, wrongPath);
                    },
                    r, gen, capacity))
            return;
        if (ltdAbort) {
            // The limited-set predictor is deterministic: the cells
            // key the same decision off identically maintained line
            // sets, so the capacity abort is mandatory.
            if (gen == 0 || !capacity) {
                fail(idx, "golden predicted a limited-set capacity "
                          "abort (vid " + std::to_string(vid) +
                          "), load succeeded");
                return;
            }
            syncAbort(gen);
            return; // the abort consumed the access
        }
        if (gen != 0) {
            // Loads never violate a dependence; only environmental
            // (capacity) aborts are acceptable here.
            if (!acceptEnvAbort(idx, gen, capacity, "load"))
                return;
            if (r.aborted)
                return; // the flush consumed the access itself
            // The flush raced the access mid-flight (a victim fold
            // failed during allocation); the load then completed
            // against the post-abort state and became the first read
            // of the restarted transaction. Mirror it in the golden
            // model and re-derive the expected value post-flush.
            want = gold_.valueAt(op.addr, op.size, effVid);
        }
        if (r.value != want) {
            fail(idx, "load value " + hex(r.value) +
                          " != golden " + hex(want) + " (vid " +
                          std::to_string(vid) +
                          (serialized ? ", serialized)" : ")"));
            return;
        }
        gold_.applyLoad(op.addr, effVid, wrongPath);
        if (r.needSla && !wrongPath && vid != kNonSpecVid &&
            s_.cfg.slaEnabled) {
            pending_.push_back(
                {op.core, {op.addr, vid, r.value, op.size}});
        }
    }

    void
    doStore(std::size_t idx, const Op& op)
    {
        const Vid vid = vidFor(op);
        if (vid > maxVid_)
            return;
        ++executed_;
        const bool serialized =
            vid != kNonSpecVid && gold_.beginSpecAccess(vid);
        const bool ltdAbort = !serialized && vid != kNonSpecVid &&
            gold_.limitedSetWouldAbort(op.addr, vid);
        const Vid effVid = serialized ? kNonSpecVid : vid;
        const bool predictAbort =
            !ltdAbort && gold_.storeAborts(op.addr, effVid);
        sim::AccessResult r;
        std::uint64_t gen = 0;
        bool capacity = false;
        if (!runAll(idx,
                    [&](Cell& c) {
                        return c.sys.store(op.core, op.addr,
                                           op.value, op.size, vid);
                    },
                    r, gen, capacity))
            return;
        if (ltdAbort) {
            if (gen == 0 || !capacity) {
                fail(idx, "golden predicted a limited-set capacity "
                          "abort (vid " + std::to_string(vid) +
                          "), store succeeded");
                return;
            }
            syncAbort(gen);
            return; // the abort consumed the store
        }
        if (gen != 0) {
            if (!capacity) {
                // A dependence abort: legal only if predicted. It
                // consumes a speculative store; a serialized
                // (fallback-holder) store retries internally after the
                // flush it raised and always completes — fold it into
                // the committed image below.
                if (!predictAbort) {
                    fail(idx, "store: abort not predicted by golden "
                              "model and no capacity abort recorded");
                    return;
                }
                syncAbort(gen);
                if (!serialized)
                    return;
            } else {
                // Environmental flush. If the store itself was
                // consumed, nothing was recorded. Otherwise it
                // completed against the post-abort state (where any
                // predicted dependence is gone too) — mirror it in the
                // golden model below.
                syncAbort(gen);
                if (r.aborted)
                    return;
            }
        } else if (predictAbort) {
            fail(idx, "golden predicted a dependence abort "
                      "(vid " + std::to_string(vid) +
                      (serialized ? ", serialized" : "") +
                      "), store succeeded");
            return;
        }
        gold_.applyStore(op.addr, op.value & sizeMask(op.size),
                         op.size, effVid);
    }

    /**
     * Confirms one pending SLA across cells. @p perturb != 0 models a
     * value-check mismatch (§5.1): the acknowledged value is skewed
     * before the cache re-verifies it. Returns false if the run
     * diverged *or* an abort consumed the speculative state (callers
     * drain-then-commit must skip the commit).
     */
    bool
    confirm(std::size_t idx, PendingSla p, std::uint64_t perturb)
    {
        SlaEntry e = p.e;
        if (perturb)
            e.value = (e.value + perturb) & sizeMask(e.size);
        const std::uint64_t want =
            gold_.valueAt(e.addr, e.size, e.vid);
        const bool predictMismatch = want != e.value;
        ++executed_;

        bool ok0 = false;
        std::uint64_t gen0 = 0, cap0 = 0;
        for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
            Cell& c = *cells_[ci];
            const std::uint64_t g = c.sys.abortGen();
            const std::uint64_t cap = c.sys.stats().capacityAborts;
            bool ok;
            try {
                ok = c.sys.slaConfirm(p.core, e);
            } catch (const std::exception& ex) {
                fail(idx, std::string(c.name) + " threw: " + ex.what());
                return false;
            }
            const std::uint64_t gd = c.sys.abortGen() - g;
            const std::uint64_t cd =
                c.sys.stats().capacityAborts - cap;
            if (ci == 0) {
                ok0 = ok;
                gen0 = gd;
                cap0 = cd;
            } else if (ok != ok0 || gd != gen0 || cd != cap0) {
                fail(idx, std::string("slaConfirm disagreement vs ") +
                              c.name + ": ok " + std::to_string(ok0) +
                              "/" + std::to_string(ok));
                return false;
            }
        }
        if (gen0 != 0) {
            if (predictMismatch || cap0 != 0) {
                syncAbort(gen0);
                return false; // state flushed; not a divergence
            }
            fail(idx, "slaConfirm aborted but golden predicted a "
                      "matching value " + hex(want));
            return false;
        }
        if (predictMismatch) {
            fail(idx, "golden predicted SLA mismatch (" + hex(want) +
                          " != acked " + hex(e.value) +
                          "), confirm succeeded");
            return false;
        }
        if (!ok0) {
            fail(idx, "slaConfirm returned false without aborting");
            return false;
        }
        gold_.applyConfirm(e.addr, e.vid);
        return true;
    }

    void
    doSlaOp(std::size_t idx, std::uint64_t perturb)
    {
        if (pending_.empty())
            return;
        PendingSla p = pending_.front();
        pending_.pop_front();
        confirm(idx, p, perturb);
    }

    void
    doCommit(std::size_t idx)
    {
        const Vid v = cells_[0]->sys.lcVid() + 1;
        if (v > maxVid_)
            return; // window exhausted; a VidReset op must run first
        // Branch resolution precedes commit: drain this VID's pending
        // acknowledgments (the runtime's SlaUnit::drain()).
        for (std::size_t i = 0; i < pending_.size();) {
            if (pending_[i].e.vid != v) {
                ++i;
                continue;
            }
            PendingSla p = pending_[i];
            pending_.erase(pending_.begin() +
                           static_cast<std::ptrdiff_t>(i));
            if (!confirm(idx, p, 0))
                return; // diverged, or an abort flushed the VID
        }
        ++executed_;
        // Maximal validation sets (Figure 9): all cells and the golden
        // model must agree on the committing VID's R/W sets.
        const std::vector<Addr> wantR = gold_.readSet(v);
        const std::vector<Addr> wantW = gold_.writeSet(v);
        for (auto& c : cells_) {
            if (c->sys.readSetOf(v) != wantR ||
                c->sys.writeSetOf(v) != wantW) {
                fail(idx, std::string("R/W set mismatch vs golden at "
                                      "commit of VID ") +
                              std::to_string(v) + " on " + c->name +
                              " (R " +
                              std::to_string(
                                  c->sys.readSetOf(v).size()) +
                              "/" + std::to_string(wantR.size()) +
                              " W " +
                              std::to_string(
                                  c->sys.writeSetOf(v).size()) +
                              "/" + std::to_string(wantW.size()) +
                              " lines)");
                return;
            }
        }
        for (auto& c : cells_) {
            try {
                c->sys.commit(v);
            } catch (const std::exception& ex) {
                fail(idx,
                     std::string(c->name) + " threw: " + ex.what());
                return;
            }
        }
        gold_.commit(v);
    }

    void
    doAbortAll(std::size_t idx)
    {
        ++executed_;
        for (auto& c : cells_) {
            try {
                c->sys.abortAll();
            } catch (const std::exception& ex) {
                fail(idx,
                     std::string(c->name) + " threw: " + ex.what());
                return;
            }
        }
        syncAbort();
    }

    void
    doVidReset(std::size_t idx)
    {
        if (!gold_.vidResetLegal())
            return; // transactions outstanding (§4.6); skip
        ++executed_;
        for (auto& c : cells_) {
            try {
                c->sys.vidReset();
            } catch (const std::exception& ex) {
                fail(idx,
                     std::string(c->name) + " threw: " + ex.what());
                return;
            }
        }
        gold_.vidReset();
        pending_.clear();
    }

    // --- checks ------------------------------------------------------

    void
    checkInvariants(std::size_t idx)
    {
        for (auto& c : cells_) {
            try {
                c->sys.checkInvariants();
            } catch (const std::exception& ex) {
                fail(idx, std::string("checkInvariants failed on ") +
                              c->name + ": " + ex.what());
                return;
            }
        }
    }

    void
    finalChecks()
    {
        const std::size_t end = static_cast<std::size_t>(-1);
        checkInvariants(s_.ops.empty() ? end : s_.ops.size() - 1);
        if (div_.found)
            return;
        // Quiesce: flush all speculative state, fold the committed
        // image, write everything back.
        for (auto& c : cells_) {
            try {
                c->sys.abortAll();
                c->sys.vidReset();
                c->sys.flushDirtyToMemory();
            } catch (const std::exception& ex) {
                fail(end, std::string("final quiesce threw on ") +
                              c->name + ": " + ex.what());
                return;
            }
        }
        gold_.abortAll();
        gold_.vidReset();
        // Golden vs. real committed image, word by word.
        for (Addr w : gold_.touchedWords()) {
            const std::uint64_t want = gold_.valueAt(w, 8, 0);
            for (auto& c : cells_) {
                const std::uint64_t got = c->sys.memory().read(w, 8);
                if (got != want) {
                    fail(end, std::string("final memory mismatch at ") +
                                  hex(w) + " on " + c->name + ": " +
                                  hex(got) + " != golden " + hex(want));
                    return;
                }
            }
        }
        // Full image equality across cells (catches stray writes to
        // addresses the golden never tracked).
        auto image = [](Cell& c) {
            std::map<Addr, sim::LineData> m;
            c.sys.memory().forEachLine(
                [&](Addr a, const sim::LineData& d) {
                    static const sim::LineData zero{};
                    if (d != zero)
                        m[a] = d;
                });
            return m;
        };
        const auto img0 = image(*cells_[0]);
        for (std::size_t ci = 1; ci < cells_.size(); ++ci) {
            if (image(*cells_[ci]) != img0) {
                fail(end,
                     std::string("final memory image differs: ") +
                         cells_[ci]->name + " vs " + cells_[0]->name);
                return;
            }
        }
    }

    void
    accumulate(Coverage& cov, bool primary)
    {
        // Base counters come from the first group in the mask only, so
        // a multi-group campaign counts each schedule once; the mode
        // counters are zero outside their group and sum unconditionally.
        if (primary) {
            const auto& st = cells_[0]->sys.stats();
            ++cov.schedules;
            cov.ops += executed_;
            cov.commits += st.commits;
            cov.aborts += st.aborts;
            cov.capacityAborts += st.capacityAborts;
            cov.vidResets += st.vidResets;
            cov.spills += st.specSpills;
            cov.refills += st.specRefills;
            cov.soRefetches += st.soRefetches;
            cov.slaConfirms += st.slaConfirms;
            cov.slaMismatchAborts += st.slaMismatchAborts;
        }
        const TxModeStats& ts = cells_[0]->sys.txPolicy().stats();
        cov.fallbackEntries += ts.fallbackEntries;
        cov.fallbackAccesses += ts.fallbackAccesses;
        cov.fallbackCommits += ts.fallbackCommits;
        cov.fallbackWrapRemaps += ts.fallbackWrapRemaps;
        cov.limitedSetAborts += ts.limitedSetAborts;
        // Fast-path exposure: summed over all cells (zero where the
        // mask bit is clear or the mode gates the knob off).
        for (auto& c : cells_) {
            const sim::FastStats& fs = c->sys.fastStats();
            cov.fastAttempts += fs.attempts;
            cov.fastHits += fs.hits();
            cov.fastGenRejections += fs.genRejections;
        }
    }

    const Schedule& s_;
    GoldenModel gold_;
    std::vector<std::unique_ptr<Cell>> cells_;
    Vid maxVid_ = 63;
    std::deque<PendingSla> pending_;
    std::uint64_t executed_ = 0;
    Divergence div_;
};

} // namespace

Divergence
runSchedule(const Schedule& s, Coverage* cov, unsigned groupMask,
            const RunHooks* hooks)
{
    bool primary = true;
    for (unsigned g : {unsigned(kGroupHmtx), unsigned(kGroupBtx),
                       unsigned(kGroupLtd)}) {
        if (!(groupMask & g))
            continue;
        Runner r(s, g, hooks);
        Divergence d = r.run(cov, primary);
        primary = false;
        if (d.found) {
            d.what = std::string(groupName(g)) + " group: " + d.what;
            return d;
        }
    }
    return {};
}

Schedule
shrinkSchedule(const Schedule& s, unsigned maxRuns, unsigned groupMask)
{
    Schedule cur = s;
    if (!runSchedule(cur, nullptr, groupMask).found)
        return cur;
    unsigned runs = 1;
    std::size_t chunk = cur.ops.size() / 2;
    if (chunk == 0)
        chunk = 1;
    while (runs < maxRuns) {
        bool removedAny = false;
        for (std::size_t i = 0;
             i + chunk <= cur.ops.size() && runs < maxRuns;) {
            Schedule cand = cur;
            cand.ops.erase(
                cand.ops.begin() + static_cast<std::ptrdiff_t>(i),
                cand.ops.begin() + static_cast<std::ptrdiff_t>(i + chunk));
            ++runs;
            if (runSchedule(cand, nullptr, groupMask).found) {
                cur.ops = std::move(cand.ops);
                removedAny = true;
            } else {
                i += chunk;
            }
        }
        if (chunk == 1) {
            if (!removedAny)
                break;
        } else {
            chunk = chunk / 2 ? chunk / 2 : 1;
        }
    }
    return cur;
}

} // namespace hmtx::check
