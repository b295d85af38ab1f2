/**
 * @file
 * Schedule generation and the replay text format.
 */

#include <cstdio>
#include <set>
#include <sstream>
#include <unordered_map>

#include "check/schedule.hh"
#include "sim/rng.hh"

namespace hmtx::check
{

namespace
{

/** Token <-> kind table for the replay format. */
const std::pair<OpKind, const char*> kKindTokens[] = {
    {OpKind::Load, "L"},          {OpKind::Store, "S"},
    {OpKind::NonSpecLoad, "NL"},  {OpKind::NonSpecStore, "NS"},
    {OpKind::WrongPathLoad, "WP"},{OpKind::Commit, "C"},
    {OpKind::AbortAll, "A"},      {OpKind::VidReset, "R"},
    {OpKind::SlaConfirm, "K"},    {OpKind::SlaMismatch, "KX"},
};

const char*
tokenOf(OpKind k)
{
    for (const auto& [kind, tok] : kKindTokens)
        if (kind == k)
            return tok;
    return "?";
}

bool
kindOf(const std::string& tok, OpKind& out)
{
    for (const auto& [kind, t] : kKindTokens) {
        if (tok == t) {
            out = kind;
            return true;
        }
    }
    return false;
}

/** Picks an access size and a word-aligned-legal offset for it. */
void
pickSizeOffset(sim::Rng& rng, unsigned& size, unsigned& off)
{
    switch (rng.range(6)) {
    case 0:
        size = 4;
        off = rng.chance(0.5) ? 4 : 0;
        break;
    case 1:
        size = rng.chance(0.5) ? 2 : 1;
        off = rng.range(8 - size + 1);
        break;
    default:
        size = 8;
        off = 0;
        break;
    }
}

} // namespace

Schedule
generate(std::uint64_t seed, unsigned numOps)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x6d5a56f1c9f1d3b7ull);
    Schedule s;

    s.cfg.numCores = rng.chance(0.3) ? 4 : 2;
    s.cfg.l1KB = 1;
    s.cfg.l1Assoc = 2;
    s.cfg.l2KB = 8;
    s.cfg.l2Assoc = rng.chance(0.25) ? 4 : 8;
    // Mostly the paper's m=6 window; sometimes a 4-bit window so the
    // fuzz stream slams into VID overflow and the reset path (§4.6).
    s.cfg.vidBits = rng.chance(0.3) ? 4 : 6;
    s.cfg.unboundedSpecSets = rng.chance(0.4);
    s.cfg.slaEnabled = !rng.chance(0.2);

    // Legacy v1 fields no cell reads (schedule.hh). They are still
    // drawn the way a multi-CPU host drew them (the third shard choice
    // recorded as 4), so the RNG stream — and with it every later knob
    // and op — is the same on every host.
    const unsigned shardChoices[3] = {1, 2, 4};
    for (int c = 0; c < 4; ++c) {
        const unsigned sh = shardChoices[rng.range(3)];
        s.cfg.shards[c] = sh;
        s.cfg.shardThreads[c] =
            sh == 1 ? 1 : (rng.chance(0.5) ? 2 : 0);
    }
    for (unsigned& t : s.cfg.engineThreads)
        t = rng.chance(0.5) ? 1 : (rng.chance(0.5) ? 2 : 0);

    // Best-effort group: small retry budgets so the fallback lock
    // engages constantly; half the schedules add an early-fallback
    // threshold (>= the budget — the config layer rejects less).
    s.cfg.btxRetries = 1 + static_cast<unsigned>(rng.range(3));
    s.cfg.btxThreshold = rng.chance(0.5)
        ? 0
        : s.cfg.btxRetries + static_cast<unsigned>(rng.range(8));
    // Limited-set group: tiny K so the K-th-line boundary and the
    // capacity-abort path fire on nearly every transaction.
    s.cfg.limitedK = 1 + static_cast<unsigned>(rng.range(6));
    // Zero-event fast path: random per-cell toggles, so each schedule
    // doubles as a fast-on vs fast-off differential across cells.
    s.cfg.fastPathMask = static_cast<unsigned>(rng.range(1u << 10));

    // Address pool: a clutch of lines that all collide in one set of
    // the tiny L1 *and* L2 (stride = max set span), plus a few
    // scattered lines. Collisions force evictions, overflow spills,
    // pristine-S-O writebacks, and capacity aborts.
    unsigned l1Sets = s.cfg.l1KB * 1024 / kLineBytes / s.cfg.l1Assoc;
    unsigned l2Sets = s.cfg.l2KB * 1024 / kLineBytes / s.cfg.l2Assoc;
    Addr stride =
        static_cast<Addr>(std::max(l1Sets, l2Sets)) * kLineBytes;
    std::vector<Addr> pool;
    unsigned colliders = 3 + static_cast<unsigned>(rng.range(5));
    for (unsigned i = 0; i < colliders; ++i)
        pool.push_back(0x40000 + i * stride);
    unsigned scattered = 2 + static_cast<unsigned>(rng.range(3));
    for (unsigned i = 0; i < scattered; ++i)
        pool.push_back(0x80000 + (i * 7 + 1) * kLineBytes);

    auto pickAddr = [&](sim::Rng& r) {
        Addr line = pool[r.range(pool.size())];
        return line + (r.chance(0.35) ? 8 : 0); // two words per line
    };
    auto pickVidOff = [&](sim::Rng& r) {
        // Biased low so commits can keep up with the window.
        auto off = 1 + r.range(4);
        if (r.chance(0.25))
            off += r.range(4);
        return static_cast<std::uint8_t>(off);
    };

    s.ops.reserve(numOps);
    while (s.ops.size() < numOps) {
        Op op;
        op.core = static_cast<std::uint8_t>(rng.range(s.cfg.numCores));
        op.vidOff = pickVidOff(rng);
        unsigned size = 8, off = 0;
        std::uint64_t roll = rng.range(100);
        if (roll < 24) {
            op.kind = OpKind::Load;
            pickSizeOffset(rng, size, off);
            op.addr = pickAddr(rng) + off;
        } else if (roll < 46) {
            op.kind = OpKind::Store;
            pickSizeOffset(rng, size, off);
            op.addr = pickAddr(rng) + off;
            op.value = rng.next();
        } else if (roll < 52) {
            op.kind = OpKind::NonSpecLoad;
            pickSizeOffset(rng, size, off);
            op.addr = pickAddr(rng) + off;
        } else if (roll < 56) {
            op.kind = OpKind::NonSpecStore;
            pickSizeOffset(rng, size, off);
            op.addr = pickAddr(rng) + off;
            op.value = rng.next();
        } else if (roll < 62) {
            op.kind = OpKind::WrongPathLoad;
            pickSizeOffset(rng, size, off);
            op.addr = pickAddr(rng) + off;
        } else if (roll < 76) {
            op.kind = OpKind::Commit;
        } else if (roll < 84) {
            op.kind = OpKind::SlaConfirm;
        } else if (roll < 86) {
            op.kind = OpKind::SlaMismatch;
            op.value = 1 + rng.range(0xff); // value perturbation
        } else if (roll < 89) {
            op.kind = OpKind::AbortAll;
        } else if (roll < 92) {
            op.kind = OpKind::VidReset;
        } else {
            // Evict burst: walk several distinct colliding lines with
            // plain loads to churn the tiny sets.
            unsigned n = 3 + static_cast<unsigned>(rng.range(4));
            for (unsigned i = 0; i < n && s.ops.size() < numOps; ++i) {
                Op e;
                e.kind = rng.chance(0.5) ? OpKind::NonSpecLoad
                                         : OpKind::Load;
                e.core =
                    static_cast<std::uint8_t>(rng.range(s.cfg.numCores));
                e.vidOff = pickVidOff(rng);
                e.size = 8;
                e.addr = pool[(i * 3 + rng.range(pool.size())) %
                              pool.size()];
                s.ops.push_back(e);
            }
            continue;
        }
        op.size = static_cast<std::uint8_t>(size);
        s.ops.push_back(op);
    }
    return s;
}

std::string
describe(const Op& op)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%s core=%u vid=lc+%u size=%u addr=0x%llx val=0x%llx",
                  tokenOf(op.kind), unsigned(op.core),
                  unsigned(op.vidOff), unsigned(op.size),
                  static_cast<unsigned long long>(op.addr),
                  static_cast<unsigned long long>(op.value));
    return buf;
}

std::string
serialize(const Schedule& s)
{
    std::ostringstream os;
    os << "hmtx-fuzz-schedule v1\n";
    const FuzzConfig& c = s.cfg;
    os << "cores " << c.numCores << "\n"
       << "l1kb " << c.l1KB << "\n"
       << "l1assoc " << c.l1Assoc << "\n"
       << "l2kb " << c.l2KB << "\n"
       << "l2assoc " << c.l2Assoc << "\n"
       << "vidbits " << c.vidBits << "\n"
       << "unbounded " << (c.unboundedSpecSets ? 1 : 0) << "\n"
       << "sla " << (c.slaEnabled ? 1 : 0) << "\n";
    os << "shards";
    for (unsigned sh : c.shards)
        os << ' ' << sh;
    os << "\nshardthreads";
    for (unsigned t : c.shardThreads)
        os << ' ' << t;
    os << "\nenginethreads";
    for (unsigned t : c.engineThreads)
        os << ' ' << t;
    os << "\nbtx " << c.btxRetries << ' ' << c.btxThreshold << "\n"
       << "limitedk " << c.limitedK << "\n"
       << "fastpath " << c.fastPathMask << "\n";
    if (s.isProgram)
        os << "program 1\n";
    for (const Op& op : s.ops) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s %u %u %u 0x%llx 0x%llx\n",
                      tokenOf(op.kind), unsigned(op.core),
                      unsigned(op.vidOff), unsigned(op.size),
                      static_cast<unsigned long long>(op.addr),
                      static_cast<unsigned long long>(op.value));
        os << buf;
    }
    os << "end\n";
    return os.str();
}

bool
parse(const std::string& text, Schedule& out, std::string& err)
{
    std::istringstream is(text);
    std::string line;
    out = Schedule{};
    out.omittedKnobs = kOmitEngineThreads | kOmitBtx | kOmitLimitedK |
        kOmitFastPath;
    bool sawVersion = false, sawEnd = false;
    unsigned lineNo = 0;
    // Hand-edited witnesses must fail loudly, not replay the wrong
    // schedule: every config token may appear at most once, and only
    // before the first op line.
    std::set<std::string> seenCfg;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        if (!sawVersion) {
            if (line != "hmtx-fuzz-schedule v1") {
                err = "line 1: expected 'hmtx-fuzz-schedule v1'";
                return false;
            }
            sawVersion = true;
            continue;
        }
        std::istringstream ls(line);
        std::string tok;
        ls >> tok;
        auto fail = [&](const std::string& what) {
            err = "line " + std::to_string(lineNo) + ": " + what;
            return false;
        };
        /** The line must hold nothing beyond the parsed fields. */
        auto lineDone = [&] {
            std::string extra;
            return !(ls >> extra);
        };
        FuzzConfig& c = out.cfg;
        OpKind kind;
        if (tok == "end") {
            sawEnd = true;
            break;
        } else if (kindOf(tok, kind)) {
            Op op;
            op.kind = kind;
            unsigned core, vidOff, size;
            std::uint64_t addr, value;
            if (!(ls >> core >> vidOff >> size >> std::hex >> addr >>
                  value))
                return fail("truncated or malformed op line (want "
                            "KIND core vidOff size addr value)");
            if (!lineDone())
                return fail("trailing fields after op");
            if (core > 255)
                return fail("core out of range");
            if (vidOff < 1 || vidOff > 64)
                return fail("vidOff out of range");
            if (size < 1 || size > 8 || (addr & 7) + size > 8)
                return fail("access straddles a word");
            op.core = static_cast<std::uint8_t>(core);
            op.vidOff = static_cast<std::uint8_t>(vidOff);
            op.size = static_cast<std::uint8_t>(size);
            op.addr = addr;
            op.value = value;
            out.ops.push_back(op);
            continue;
        }
        // Config lines, each legal exactly once and only in the
        // header (before any op).
        if (!out.ops.empty())
            return fail("config line '" + tok + "' after the first op");
        if (!seenCfg.insert(tok).second)
            return fail("duplicate '" + tok + "' line");
        if (tok == "cores") {
            if (!(ls >> c.numCores))
                return fail("bad cores");
            if (c.numCores < 1 || c.numCores > 64)
                return fail("cores out of range (1..64)");
        } else if (tok == "l1kb") {
            if (!(ls >> c.l1KB) || c.l1KB == 0)
                return fail("bad l1kb");
        } else if (tok == "l1assoc") {
            if (!(ls >> c.l1Assoc) || c.l1Assoc == 0)
                return fail("bad l1assoc");
        } else if (tok == "l2kb") {
            if (!(ls >> c.l2KB) || c.l2KB == 0)
                return fail("bad l2kb");
        } else if (tok == "l2assoc") {
            if (!(ls >> c.l2Assoc) || c.l2Assoc == 0)
                return fail("bad l2assoc");
        } else if (tok == "vidbits") {
            if (!(ls >> c.vidBits))
                return fail("bad vidbits");
            if (c.vidBits < 2 || c.vidBits > 16)
                return fail("vidbits out of range (2..16)");
        } else if (tok == "unbounded") {
            unsigned v;
            if (!(ls >> v) || v > 1)
                return fail("bad unbounded (want 0 or 1)");
            c.unboundedSpecSets = v != 0;
        } else if (tok == "sla") {
            unsigned v;
            if (!(ls >> v) || v > 1)
                return fail("bad sla (want 0 or 1)");
            c.slaEnabled = v != 0;
        } else if (tok == "shards") {
            for (unsigned& sh : c.shards) {
                if (!(ls >> sh))
                    return fail("bad shards (want 4 cell counts)");
                if (sh < 1 || sh > 4096)
                    return fail("shard count out of range (1..4096)");
            }
        } else if (tok == "shardthreads") {
            for (unsigned& t : c.shardThreads) {
                if (!(ls >> t))
                    return fail("bad shardthreads (want 4 cell "
                                "policies)");
                if (t > 4096)
                    return fail("shardthreads out of range (0..4096)");
            }
        } else if (tok == "enginethreads") {
            for (unsigned& t : c.engineThreads) {
                if (!(ls >> t))
                    return fail("bad enginethreads (want 2 cell "
                                "policies)");
                if (t > 4096)
                    return fail("enginethreads out of range "
                                "(0..4096)");
            }
            out.omittedKnobs &= ~kOmitEngineThreads;
        } else if (tok == "btx") {
            if (!(ls >> c.btxRetries >> c.btxThreshold))
                return fail("bad btx");
            if (c.btxRetries == 0)
                return fail("btx retries must be >= 1");
            if (c.btxThreshold != 0 && c.btxThreshold < c.btxRetries)
                return fail("btx threshold below retry budget");
            out.omittedKnobs &= ~kOmitBtx;
        } else if (tok == "limitedk") {
            if (!(ls >> c.limitedK) || c.limitedK == 0)
                return fail("bad limitedk");
            out.omittedKnobs &= ~kOmitLimitedK;
        } else if (tok == "fastpath") {
            if (!(ls >> c.fastPathMask))
                return fail("bad fastpath");
            if (c.fastPathMask >= (1u << 10))
                return fail("fastpath mask out of range (10 cell "
                            "bits)");
            out.omittedKnobs &= ~kOmitFastPath;
        } else if (tok == "program") {
            unsigned v;
            if (!(ls >> v) || v > 1)
                return fail("bad program (want 0 or 1)");
            out.isProgram = v != 0;
        } else {
            return fail("unknown token '" + tok + "'");
        }
        if (!lineDone())
            return fail("trailing fields after '" + tok + "'");
    }
    if (!sawVersion) {
        err = "empty schedule file";
        return false;
    }
    if (!sawEnd) {
        err = "missing 'end' line";
        return false;
    }
    return true;
}

} // namespace hmtx::check
