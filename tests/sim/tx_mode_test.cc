/**
 * @file
 * CacheSystem-level tests of the commit-mode axis: MachineConfig
 * validation of the TxPolicy knobs, best-effort fallback engagement
 * and serialization, fallback behaviour across global aborts and VID
 * window resets, and the limited-set K bound on speculative sets.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/cache_system.hh"
#include "sim/event_queue.hh"

namespace hmtx::sim
{
namespace
{

MachineConfig
btxConfig(unsigned retries = 1, unsigned threshold = 0)
{
    MachineConfig cfg;
    cfg.txMode = TxMode::BestEffort;
    cfg.btxMaxRetries = retries;
    cfg.btxAbortThreshold = threshold;
    return cfg;
}

MachineConfig
ltdConfig(unsigned k)
{
    MachineConfig cfg;
    cfg.txMode = TxMode::LimitedSet;
    cfg.limitedSetK = k;
    return cfg;
}

std::string
thrownMessage(const MachineConfig& cfg)
{
    try {
        cfg.validate();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return {};
}

// --- validation (satellite: misconfiguration rejection) --------------------

TEST(TxModeValidation, RejectsZeroLimitedSetK)
{
    MachineConfig cfg = ltdConfig(0);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_NE(thrownMessage(cfg).find("limitedSetK"),
              std::string::npos);
    // The constructor enforces it too: a miswired cell cannot even be
    // built.
    EventQueue eq;
    EXPECT_THROW(CacheSystem(eq, cfg), std::invalid_argument);
}

TEST(TxModeValidation, RejectsZeroRetryBudget)
{
    MachineConfig cfg = btxConfig(0);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_NE(thrownMessage(cfg).find("btxMaxRetries"),
              std::string::npos);
}

TEST(TxModeValidation, RejectsThresholdBelowRetries)
{
    MachineConfig cfg = btxConfig(4, 2);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_NE(thrownMessage(cfg).find("btxAbortThreshold"),
              std::string::npos);
    cfg.btxAbortThreshold = 4; // == retries is the legal floor
    EXPECT_NO_THROW(cfg.validate());
}

TEST(TxModeValidation, RejectsUnboundedSetsInBoundedModes)
{
    for (MachineConfig cfg : {btxConfig(), ltdConfig(4)}) {
        cfg.unboundedSpecSets = true;
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
        EXPECT_NE(thrownMessage(cfg).find("unboundedSpecSets"),
                  std::string::npos);
    }
}

TEST(TxModeValidation, AcceptsTheHmtxModesUnchanged)
{
    for (TxMode m : {TxMode::LazyHmtx, TxMode::EagerHmtx}) {
        MachineConfig cfg;
        cfg.txMode = m;
        cfg.unboundedSpecSets = true;
        EXPECT_NO_THROW(cfg.validate()) << txModeName(m);
    }
}

// --- best-effort fallback --------------------------------------------------

/** Forces a dependence abort: @p writer stores under a line already
 *  read by a higher VID, which the protocol must flush globally. */
void
forceAbort(CacheSystem& sys, Addr a, Vid readerVid, Vid writerVid)
{
    AccessResult rd = sys.load(0, a, 8, readerVid);
    ASSERT_FALSE(rd.aborted);
    AccessResult wr = sys.store(1, a, 1, 8, writerVid);
    ASSERT_TRUE(wr.aborted);
}

TEST(BestEffort, FallbackEngagesAndSerializes)
{
    EventQueue eq;
    CacheSystem sys(eq, btxConfig(1));
    sys.memory().write(0x1000, 10, 8);
    sys.memory().write(0x2000, 20, 8);

    forceAbort(sys, 0x1000, 2, 1);
    EXPECT_TRUE(sys.txPolicy().fallbackArmed());
    EXPECT_FALSE(sys.txPolicy().fallbackHeld());

    // The retry of VID 1 (= LC+1) takes the lock on its first access.
    AccessResult r = sys.load(1, 0x1000, 8, 1);
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.value, 10u);
    EXPECT_TRUE(sys.txPolicy().fallbackHeld());
    EXPECT_EQ(sys.txPolicy().fallbackVid(), 1u);
    EXPECT_EQ(sys.txPolicy().stats().fallbackEntries, 1u);

    // Serialized stores are non-speculative: the value reaches
    // committed memory without any commit.
    ASSERT_FALSE(sys.store(1, 0x2000, 77, 8, 1).aborted);
    sys.flushDirtyToMemory();
    EXPECT_EQ(sys.memory().read(0x2000, 8), 77u);
    EXPECT_GT(sys.txPolicy().stats().fallbackCycles, 0u);

    sys.commit(1);
    EXPECT_FALSE(sys.txPolicy().fallbackHeld());
    EXPECT_EQ(sys.txPolicy().stats().fallbackCommits, 1u);
    sys.checkInvariants();
}

TEST(BestEffort, RetryBoundaryIsExact)
{
    EventQueue eq;
    CacheSystem sys(eq, btxConfig(2));
    sys.memory().write(0x1000, 10, 8);

    forceAbort(sys, 0x1000, 2, 1);
    EXPECT_FALSE(sys.txPolicy().fallbackArmed()); // N-1 aborts: retry
    ASSERT_FALSE(sys.load(1, 0x3000, 8, 1).aborted);
    EXPECT_FALSE(sys.txPolicy().fallbackHeld()); // still speculative

    // That retry dies the same way; the N-th abort arms the lock.
    AccessResult wr = sys.store(1, 0x3040, 1, 8, 3);
    ASSERT_FALSE(wr.aborted);
    ASSERT_FALSE(sys.load(0, 0x3040, 8, 4).aborted);
    ASSERT_TRUE(sys.store(1, 0x3040, 2, 8, 3).aborted);
    EXPECT_TRUE(sys.txPolicy().fallbackArmed());
    EXPECT_EQ(sys.txPolicy().stats().retryAborts, 2u);

    ASSERT_FALSE(sys.load(1, 0x1000, 8, 1).aborted);
    EXPECT_TRUE(sys.txPolicy().fallbackHeld());
    sys.checkInvariants();
}

/** Satellite edge case: a capacity-style global flush while the lock
 *  is held. The holder owns no speculative state, so the lock (and
 *  its serialized semantics) survives the flush. */
TEST(BestEffort, GlobalAbortWhileLockHeldKeepsTheLock)
{
    EventQueue eq;
    CacheSystem sys(eq, btxConfig(1));
    sys.memory().write(0x1000, 10, 8);
    sys.memory().write(0x2000, 20, 8);

    forceAbort(sys, 0x1000, 2, 1);
    ASSERT_FALSE(sys.load(1, 0x1000, 8, 1).aborted);
    ASSERT_TRUE(sys.txPolicy().fallbackHeld());

    // A younger VID speculates alongside the holder...
    ASSERT_FALSE(sys.load(2, 0x2000, 8, 2).aborted);
    // ...and a global flush (as a capacity overflow would raise)
    // clears it without releasing the lock.
    sys.abortAll();
    EXPECT_TRUE(sys.txPolicy().fallbackHeld());
    EXPECT_TRUE(sys.txPolicy().serializes(1));

    // The holder's serialized store can collide with fresh speculative
    // state; the self-triggered flush retries internally and the store
    // still lands in committed memory.
    ASSERT_FALSE(sys.load(2, 0x2000, 8, 2).aborted);
    const std::uint64_t abortsBefore = sys.stats().aborts;
    AccessResult st = sys.store(1, 0x2000, 55, 8, 1);
    EXPECT_FALSE(st.aborted);
    EXPECT_GT(sys.stats().aborts, abortsBefore);
    EXPECT_TRUE(sys.txPolicy().fallbackHeld());
    sys.flushDirtyToMemory();
    EXPECT_EQ(sys.memory().read(0x2000, 8), 55u);

    sys.commit(1);
    EXPECT_FALSE(sys.txPolicy().fallbackHeld());
    sys.checkInvariants();
}

/** Satellite edge case: VID-window wraparound while the fallback lock
 *  is held. The holder has no speculative state, so the reset is
 *  legal; the lock follows the holder to its post-reset VID (1). */
TEST(BestEffort, VidResetWhileHeldRemapsTheHolder)
{
    EventQueue eq;
    CacheSystem sys(eq, btxConfig(1));
    sys.memory().write(0x1000, 10, 8);

    sys.commit(1); // LC = 1 so the engaging VID is 2, not 1
    forceAbort(sys, 0x1000, 3, 2);
    ASSERT_FALSE(sys.load(1, 0x1000, 8, 2).aborted);
    ASSERT_TRUE(sys.txPolicy().fallbackHeld());
    ASSERT_EQ(sys.txPolicy().fallbackVid(), 2u);

    sys.vidReset();
    EXPECT_TRUE(sys.txPolicy().fallbackHeld());
    EXPECT_EQ(sys.txPolicy().fallbackVid(), 1u);
    EXPECT_TRUE(sys.txPolicy().serializes(1));
    EXPECT_FALSE(sys.txPolicy().serializes(2));
    EXPECT_EQ(sys.txPolicy().stats().fallbackWrapRemaps, 1u);

    // The renamed holder still serializes and still releases.
    ASSERT_FALSE(sys.store(1, 0x1040, 9, 8, 1).aborted);
    sys.flushDirtyToMemory();
    EXPECT_EQ(sys.memory().read(0x1040, 8), 9u);
    sys.commit(1);
    EXPECT_FALSE(sys.txPolicy().fallbackHeld());
    EXPECT_EQ(sys.txPolicy().stats().fallbackCommits, 1u);
    sys.checkInvariants();
}

// --- limited-set mode ------------------------------------------------------

TEST(LimitedSet, KthLineFitsKPlusFirstAborts)
{
    EventQueue eq;
    CacheSystem sys(eq, ltdConfig(2));
    ASSERT_FALSE(sys.load(0, 0x1000, 8, 1).aborted);
    ASSERT_FALSE(sys.load(0, 0x1040, 8, 1).aborted); // K-th line: fits
    AccessResult r = sys.load(0, 0x1080, 8, 1); // K+1-th: aborts
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(sys.txPolicy().stats().limitedSetAborts, 1u);
    EXPECT_EQ(sys.stats().capacityAborts, 1u);
    sys.checkInvariants();
}

TEST(LimitedSet, RetouchingTrackedLinesIsFree)
{
    EventQueue eq;
    CacheSystem sys(eq, ltdConfig(2));
    ASSERT_FALSE(sys.load(0, 0x1000, 8, 1).aborted);
    ASSERT_FALSE(sys.store(0, 0x1040, 5, 8, 1).aborted);
    // Re-touching either line — even crossing load/store — costs no
    // new entry; only a third distinct line trips the bound.
    EXPECT_FALSE(sys.load(0, 0x1040, 8, 1).aborted);
    EXPECT_FALSE(sys.store(0, 0x1000, 6, 8, 1).aborted);
    EXPECT_EQ(sys.txPolicy().stats().limitedSetAborts, 0u);
    EXPECT_TRUE(sys.store(0, 0x1080, 7, 8, 1).aborted);
    EXPECT_EQ(sys.txPolicy().stats().limitedSetAborts, 1u);
    sys.checkInvariants();
}

TEST(LimitedSet, CommitClearsTheBudget)
{
    EventQueue eq;
    CacheSystem sys(eq, ltdConfig(2));
    ASSERT_FALSE(sys.load(0, 0x1000, 8, 1).aborted);
    ASSERT_FALSE(sys.load(0, 0x1040, 8, 1).aborted);
    sys.commit(1);
    // The next transaction starts a fresh K-line budget.
    EXPECT_FALSE(sys.load(0, 0x1080, 8, 2).aborted);
    EXPECT_FALSE(sys.load(0, 0x10c0, 8, 2).aborted);
    EXPECT_EQ(sys.txPolicy().stats().limitedSetAborts, 0u);
    sys.checkInvariants();
}

TEST(LimitedSet, BudgetsArePerVid)
{
    EventQueue eq;
    CacheSystem sys(eq, ltdConfig(1));
    // Two concurrent transactions each track their own single line.
    ASSERT_FALSE(sys.load(0, 0x1000, 8, 1).aborted);
    ASSERT_FALSE(sys.load(1, 0x2000, 8, 2).aborted);
    EXPECT_TRUE(sys.load(1, 0x2040, 8, 2).aborted);
    sys.checkInvariants();
}

} // namespace
} // namespace hmtx::sim
