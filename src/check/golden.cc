/**
 * @file
 * GoldenModel implementation. Everything here is a direct transcription
 * of the §3/§4 semantics; the point is that none of it knows about
 * caches, fabrics, or the overflow table.
 */

#include <algorithm>
#include <cassert>

#include "check/golden.hh"

namespace hmtx::check
{

const GoldenModel::Word*
GoldenModel::wordIf(Addr a) const
{
    auto it = words_.find(a & ~Addr{7});
    return it == words_.end() ? nullptr : &it->second;
}

const GoldenModel::LineCtl*
GoldenModel::lineIf(Addr a) const
{
    auto it = lines_.find(lineAddr(a));
    return it == lines_.end() ? nullptr : &it->second;
}

std::uint64_t
GoldenModel::wordValueAt(const Word* w, Vid vid) const
{
    if (!w)
        return 0;
    // §4.1 visibility: the store with the largest writer VID <= vid;
    // committed stores have already folded their VIDs' order into the
    // same list, so one upper_bound covers both.
    auto it = w->vers.upper_bound(vid);
    if (it == w->vers.begin())
        return w->base;
    return std::prev(it)->second;
}

std::uint64_t
GoldenModel::valueAt(Addr a, unsigned size, Vid vid) const
{
    unsigned off = static_cast<unsigned>(a & 7);
    assert(off + size <= 8 && "accesses must not straddle a word");
    if (vid == kNonSpecVid)
        vid = lc_; // non-speculative accesses see the committed image
    std::uint64_t word = wordValueAt(wordIf(a), vid);
    std::uint64_t v = word >> (8 * off);
    if (size < 8)
        v &= (std::uint64_t{1} << (8 * size)) - 1;
    return v;
}

bool
GoldenModel::storeAborts(Addr a, Vid vid) const
{
    const LineCtl* lc = lineIf(a);
    Vid mark = lc ? lc->mark : kNonSpecVid;
    Vid writer = lc ? lc->writer : kNonSpecVid;
    if (vid == kNonSpecVid) {
        // A non-speculative store may not land under uncommitted
        // speculative accesses: it has no version order to slot into.
        return writer > lc_ || mark > lc_;
    }
    // §4.3: a store below any VID that already accessed the line is a
    // flow/output-dependence violation. `mark` aggregates the latest
    // version's writer and every read mark on it; a store below the
    // latest *writer* additionally means the store hits a superseded
    // version, which aborts for the same reason. mark >= writer, so
    // one compare covers both.
    return vid < mark;
}

bool
GoldenModel::limitedSetWouldAbort(Addr a, Vid vid) const
{
    if (!policy_.limitsSpecSets())
        return false;
    auto it = rw_.find(vid);
    if (it == rw_.end())
        return policy_.limitedSetExceeded(0);
    const auto& [reads, writes] = it->second;
    const Addr la = lineAddr(a);
    // Re-touching a line already in the sets never costs a new entry.
    if (reads.count(la) || writes.count(la))
        return false;
    std::size_t combined = reads.size();
    for (Addr w : writes)
        if (!reads.count(w))
            ++combined;
    return policy_.limitedSetExceeded(combined);
}

void
GoldenModel::applyLoad(Addr a, Vid vid, bool wrongPath)
{
    if (vid == kNonSpecVid)
        return; // committed-image reads leave no marks
    // §5.1: with SLAs the wrong-path load defers its mark to the ack;
    // without them it marks immediately (and may cause false aborts).
    bool marks = !wrongPath || !slaEnabled_;
    if (marks)
        applyConfirm(a, vid);
    if (!wrongPath)
        rw_[vid].first.insert(lineAddr(a));
}

void
GoldenModel::applyConfirm(Addr a, Vid vid)
{
    LineCtl& lc = lineOf(a);
    // A read marks only the version it hits; reads of superseded
    // versions are already bounded by the superseding writer's VID
    // and need no mark (§4.2).
    if (vid >= lc.writer)
        lc.mark = std::max(lc.mark, vid);
}

void
GoldenModel::applyStore(Addr a, std::uint64_t v, unsigned size, Vid vid)
{
    assert(!storeAborts(a, vid));
    unsigned off = static_cast<unsigned>(a & 7);
    assert(off + size <= 8 && "accesses must not straddle a word");
    Word& w = wordOf(a);
    Vid at = vid == kNonSpecVid ? lc_ : vid;
    // Read-modify-write of the containing word at the store's VID:
    // bytes outside the store come from the version visible to it.
    std::uint64_t merged = wordValueAt(&w, at);
    if (size == 8) {
        merged = v;
    } else {
        std::uint64_t mask = ((std::uint64_t{1} << (8 * size)) - 1)
                             << (8 * off);
        merged = (merged & ~mask) | ((v << (8 * off)) & mask);
    }
    if (vid == kNonSpecVid) {
        // Non-speculative store: every surviving version is committed
        // (the abort predicate guaranteed it); fold the word and write
        // the new committed image.
        w.vers.clear();
        w.base = merged;
        return;
    }
    w.vers[vid] = merged;
    LineCtl& lc = lineOf(a);
    lc.writer = std::max(lc.writer, vid);
    lc.mark = std::max(lc.mark, vid);
    rw_[vid].second.insert(lineAddr(a));
}

void
GoldenModel::commit(Vid vid)
{
    assert(vid == lc_ + 1 && "commits must occur consecutively (§4.7)");
    policy_.onCommit(vid);
    lc_ = vid;
    // Committed versions stay in the word lists (they are the
    // committed image for later VIDs); line marks <= lc_ are inert
    // because every future access carries a VID > lc_.
    rw_.erase(vid);
}

void
GoldenModel::abortAll()
{
    policy_.onAbort();
    for (auto& [addr, w] : words_)
        w.vers.erase(w.vers.upper_bound(lc_), w.vers.end());
    // All surviving state is committed: marks reset exactly as the
    // hardware clears mod/high tags (Figure 7).
    for (auto& [addr, lc] : lines_)
        lc = LineCtl{};
    rw_.clear();
}

void
GoldenModel::vidReset()
{
    assert(vidResetLegal());
    policy_.onVidReset();
    for (auto& [addr, w] : words_) {
        w.base = wordValueAt(&w, lc_);
        w.vers.clear();
    }
    for (auto& [addr, lc] : lines_)
        lc = LineCtl{};
    lc_ = kNonSpecVid;
}

std::vector<Addr>
GoldenModel::readSet(Vid vid) const
{
    auto it = rw_.find(vid);
    if (it == rw_.end())
        return {};
    return {it->second.first.begin(), it->second.first.end()};
}

std::vector<Addr>
GoldenModel::writeSet(Vid vid) const
{
    auto it = rw_.find(vid);
    if (it == rw_.end())
        return {};
    return {it->second.second.begin(), it->second.second.end()};
}

std::vector<Addr>
GoldenModel::touchedWords() const
{
    std::vector<Addr> out;
    out.reserve(words_.size());
    for (const auto& [addr, w] : words_)
        out.push_back(addr);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace hmtx::check
