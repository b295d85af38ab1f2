/**
 * @file
 * CacheSystem bulk half: the whole-machine protocol operations —
 * group commit, global abort, VID reset, and the region-boundary
 * flush. Per-line transitions come from the pure engine in
 * core/protocol.hh; broadcast costs from the Interconnect.
 */

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/cache_system.hh"

namespace hmtx::sim
{

Cycles
CacheSystem::commit(Vid vid)
{
    if (vid != lcVid_ + 1) {
        throw std::logic_error(
            "commitMTX: commits must occur consecutively (§4.7); "
            "expected VID " + std::to_string(lcVid_ + 1) + ", got " +
            std::to_string(vid));
    }
    lcVid_ = vid;
    // Fast-path tags survive commits: a tag only ever matches a probe
    // with its own (VID, direction), VIDs advance monotonically until
    // vidReset, and fastProbe rejects VIDs at or below the watermark —
    // so tags whose reconcile the commit un-no-ops are unreachable,
    // and for live VIDs the fold is deferred exactly as lazy commit
    // already defers it (every slow access reconciles first).
    ++stats_.commits;
    ++stats_.committedTxs;
    trace_.event(TraceCommit, eq_.curTick(), "commit VID %u", vid);

    if (vid < rw_.size() && rw_[vid].combined != 0) {
        RwSets& s = rw_[vid];
        stats_.readSetLines += s.reads.size();
        stats_.writeSetLines += s.writes.size();
        stats_.combinedSetLines += s.combined;
        stats_.maxCombinedSetLines =
            std::max<std::uint64_t>(stats_.maxCombinedSetLines, s.combined);
        s.clear();
        std::erase(rwLive_, vid);
    }

    policy_.onCommit(vid);

    Cycles cost =
        net_->post(eq_.curTick(), FabricOp::GroupCommit, 0);
    if (policy_.eagerWalk()) {
        // Naive §4.4 scheme: walk and transition every speculative
        // line now. The per-cache registry is exactly the ORB-like
        // structure the paper assumes locates them [34] — without it
        // a full cache walk would cost one cycle per cache line,
        // >500k cycles per commit with Table 2's 32 MB L2. The walk
        // occupies the memory system, stalling every core's misses.
        WalkCounts agg = bulkWalk(
            OvPhase::None, WalkClass::Spec,
            [&](Line& l, WalkCounts& w) {
                if (isSpec(l.state)) {
                    ++w.n[0];
                    reconcile(l);
                }
            },
            [](Line&, LineData&, WalkCounts&) {});
        cost += agg.n[0] * cfg_.eagerPerLineCycles;
        net_->occupy(eq_.curTick(), cost);
    }
    stats_.commitProcessingCycles += cost;
    maybeCrossCheck();
    return cost;
}

Cycles
CacheSystem::abortAll()
{
    ++abortGen_;
    // No fastGen_ bump: the walk below syncLines (and thereby
    // fp-clears) every speculative line, rwGen_ retires all rw marks,
    // and committed lines — the only other tag carriers — are exactly
    // the lines an abort leaves untouched.
    ++stats_.aborts;
    WalkCounts agg = bulkWalk(
        OvPhase::AfterLines, WalkClass::Spec,
        [&](Line& l, WalkCounts& w) {
            if (!isSpec(l.state))
                return; // dirty committed lines survive aborts
            ++w.n[0];
            applyView(l, abortVersion(viewOf(l), lcVid_));
            syncLine(l);
        },
        [&](Line& l, LineData& d, WalkCounts& w) {
            LineTransition tr =
                commitLine(l.state, l.tag, lcVid_, l.dirty);
            tr = abortLine(tr.state, tr.tag, lcVid_, l.dirty);
            if (tr.state != State::Invalid && l.dirty) {
                // Committed data survives the abort: fold it back
                // into memory rather than keeping a nonspec entry
                // spilled.
                mem_.writeLine(l.base, d);
                ++w.n[1];
            }
            l.state = State::Invalid;
            l.tag = {};
        });
    const std::uint64_t touched = agg.n[0];
    stats_.writebacks += agg.n[1];
    for (Vid v : rwLive_)
        rw_[v].clear();
    rwLive_.clear();
    ++rwGen_; // stale Line rw marks must not suppress future inserts
    shadow_.clear();
    policy_.onAbort();
    Cycles cost =
        net_->post(eq_.curTick(), FabricOp::GroupAbort, 0);
    if (policy_.eagerWalk()) {
        cost += touched * cfg_.eagerPerLineCycles;
        net_->occupy(eq_.curTick(), cost);
    }
    stats_.commitProcessingCycles += cost;
    maybeCrossCheck();
    return cost;
}

Cycles
CacheSystem::vidReset()
{
    // Check the precondition *before* the destructive walk below: the
    // walk folds versions and rewrites memory, so throwing after it
    // would leave the machine reset in all but name — exactly the
    // stale-tag hazard §4.6 warns about.
    ++fastGen_; // VID recycling / bulk rewrite: retire all fast tags
    if (!rwLive_.empty()) {
        throw std::logic_error(
            "vidReset with outstanding uncommitted transactions");
    }
    WalkCounts agg = bulkWalk(
        OvPhase::BeforeLines, WalkClass::Spec,
        [&](Line& l, WalkCounts& w) {
            // Spec walk: plain dirty committed lines stay cached and
            // dirty across the reset (reconcile would be a no-op on
            // them), so only speculative lines need visiting.
            reconcile(l);
            if (isSpec(l.state)) {
                applyView(l, resetVersion(viewOf(l)));
                syncLine(l);
                ++w.n[0];
            }
        },
        [&](Line& l, LineData& d, WalkCounts& w) {
            reconcile(l);
            if (l.state == State::Invalid)
                return;
            // All transactions committed (precondition): spilled
            // data is committed; fold dirty survivors back into
            // memory.
            if (l.dirty && !isSpecSuperseded(l.state)) {
                mem_.writeLine(l.base, d);
                ++w.n[1];
            }
            l.state = State::Invalid;
        });
    stats_.writebacks += agg.n[1];
    lcVid_ = kNonSpecVid;
    policy_.onVidReset();
    ++rwGen_; // VIDs recycle after the reset; invalidate rw marks
    shadow_.clear();
    ++stats_.vidResets;
    trace_.event(TraceCommit, eq_.curTick(), "VID reset");
    maybeCrossCheck();
    return net_->post(eq_.curTick(), FabricOp::VidReset, 0);
}

void
CacheSystem::flushDirtyToMemory()
{
    ++fastGen_; // VID recycling / bulk rewrite: retire all fast tags
    WalkCounts agg = bulkWalk(
        OvPhase::BeforeLines, WalkClass::SpecAndDirty,
        [&](Line& l, WalkCounts& w) {
            // Union walk: a spec+dirty line appears via both class
            // registries; the second visit sees it already reconciled
            // and written back (clean), so the body is idempotent.
            reconcile(l);
            // Reconciliation may retire a superseded version to
            // Invalid; its stale data must not reach memory.
            if (l.state == State::Invalid)
                return;
            if (!isSpec(l.state) && l.dirty) {
                mem_.writeLine(l.base, dataOf(l));
                l.dirty = false;
                ++w.n[0];
                l.state = l.state == State::Modified
                    ? State::Exclusive
                    : State::Shared;
                syncLine(l);
            }
        },
        [&](Line& l, LineData& d, WalkCounts& w) {
            reconcile(l);
            if (l.state == State::Invalid)
                return;
            if (!isSpec(l.state)) {
                // The spilled version retired: its data is committed.
                if (l.dirty) {
                    mem_.writeLine(l.base, d);
                    ++w.n[0];
                }
                l.state = State::Invalid;
            }
        });
    stats_.writebacks += agg.n[0];
    maybeCrossCheck();
}

} // namespace hmtx::sim
