/**
 * @file
 * Standalone differential fuzzing driver (DESIGN.md §10).
 *
 *   hmtx_fuzz [--schedules N] [--ops N] [--seed0 S] [--threads N]
 *             [--corpus-out DIR] [--no-shrink]
 *   hmtx_fuzz --replay FILE [--shrink]
 *
 * Batch mode generates N schedules from consecutive seeds and runs
 * each against the golden model across the 8-cell config matrix. On
 * the first divergence it ddmin-shrinks the schedule, writes the
 * minimal replay file (to --corpus-out if given, else the cwd), prints
 * it, and exits nonzero. On success it prints a coverage summary so CI
 * logs show what the campaign actually exercised.
 *
 * --threads N runs the batch on N worker threads. Schedules are
 * independent (generate(seed, ops) is a pure function of the seed, so
 * every thread's RNG stream derives from the base seed), workers claim
 * seeds from a shared counter, and a divergence is reported for the
 * *smallest* diverging seed — every seed below it is still checked —
 * then re-run single-threaded for a deterministic report and shrink.
 * Results are therefore identical to a single-threaded campaign.
 *
 * Replay mode parses one schedule file and runs it; with --shrink it
 * first minimizes a diverging schedule before reporting.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/differ.hh"
#include "check/schedule.hh"

using namespace hmtx;
using namespace hmtx::check;

namespace
{

void
usage()
{
    std::cerr <<
        "usage: hmtx_fuzz [--schedules N] [--ops N] [--seed0 S]\n"
        "                 [--threads N] [--corpus-out DIR]\n"
        "                 [--no-shrink] [--cells GROUPS]\n"
        "       hmtx_fuzz --replay FILE [--shrink] [--cells GROUPS]\n"
        "GROUPS: comma list of hmtx, btx, ltd, or all (default)\n";
}

bool
parseCells(const std::string& arg, unsigned& mask)
{
    mask = 0;
    std::size_t pos = 0;
    while (pos <= arg.size()) {
        std::size_t comma = arg.find(',', pos);
        std::string tok = arg.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (tok == "all")
            mask |= kGroupAll;
        else if (tok == "hmtx")
            mask |= kGroupHmtx;
        else if (tok == "btx")
            mask |= kGroupBtx;
        else if (tok == "ltd")
            mask |= kGroupLtd;
        else
            return false;
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return mask != 0;
}

int
reportDivergence(const Schedule &sched, const Divergence &d, bool shrink,
                 const std::string &corpusDir, std::uint64_t seed,
                 unsigned groupMask)
{
    std::cerr << "DIVERGENCE (seed " << seed << ", op "
              << d.opIndex << "): " << d.what << "\n";

    Schedule minimal = sched;
    if (shrink) {
        std::cerr << "shrinking " << sched.ops.size() << " ops...\n";
        minimal = shrinkSchedule(sched, 4000, groupMask);
        std::cerr << "minimal schedule: " << minimal.ops.size()
                  << " ops\n";
        Divergence dmin = runSchedule(minimal, nullptr, groupMask);
        if (dmin.found)
            std::cerr << "minimal divergence: " << dmin.what << "\n";
    }

    std::string out = serialize(minimal);
    std::string path = (corpusDir.empty() ? std::string(".") : corpusDir) +
        "/div-seed" + std::to_string(seed) + ".sched";
    std::ofstream f(path);
    if (f.good()) {
        f << out;
        std::cerr << "wrote " << path << "\n";
    } else {
        std::cerr << "could not write " << path << "\n";
    }
    std::cerr << "--- replay file ---\n" << out;
    return 1;
}

/**
 * Multi-threaded campaign over seeds [seed0, seed0 + schedules).
 * Workers claim seeds in increasing order from a shared counter and
 * record the minimum diverging seed; seeds above that minimum are
 * skipped, seeds below it always complete, so the returned seed (if
 * any) is exactly the one a single-threaded campaign would hit first.
 * Per-thread Coverage is summed into @p cov on a clean campaign.
 */
std::uint64_t
runBatchThreaded(std::uint64_t seed0, std::uint64_t schedules,
                 unsigned ops, unsigned threads, unsigned groupMask,
                 Coverage &cov)
{
    constexpr std::uint64_t kNone = ~std::uint64_t{0};
    std::atomic<std::uint64_t> nextSeed{seed0};
    std::atomic<std::uint64_t> firstBad{kNone};
    std::atomic<std::uint64_t> clean{0};
    const std::uint64_t end = seed0 + schedules;

    std::vector<Coverage> covs(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (;;) {
                const std::uint64_t seed = nextSeed.fetch_add(1);
                if (seed >= end || seed >= firstBad.load())
                    return;
                Schedule s = generate(seed, ops);
                if (runSchedule(s, &covs[t], groupMask).found) {
                    std::uint64_t cur = firstBad.load();
                    while (seed < cur &&
                           !firstBad.compare_exchange_weak(cur, seed)) {
                    }
                    continue;
                }
                const std::uint64_t n = clean.fetch_add(1) + 1;
                if (n % 500 == 0)
                    std::cerr << n << "/" << schedules
                              << " schedules clean\n";
            }
        });
    }
    for (std::thread &th : pool)
        th.join();

    if (firstBad.load() != kNone)
        return firstBad.load();
    for (const Coverage &c : covs) {
        cov.schedules += c.schedules;
        cov.ops += c.ops;
        cov.commits += c.commits;
        cov.aborts += c.aborts;
        cov.capacityAborts += c.capacityAborts;
        cov.vidResets += c.vidResets;
        cov.spills += c.spills;
        cov.refills += c.refills;
        cov.soRefetches += c.soRefetches;
        cov.slaConfirms += c.slaConfirms;
        cov.slaMismatchAborts += c.slaMismatchAborts;
        cov.fallbackEntries += c.fallbackEntries;
        cov.fallbackAccesses += c.fallbackAccesses;
        cov.fallbackCommits += c.fallbackCommits;
        cov.fallbackWrapRemaps += c.fallbackWrapRemaps;
        cov.limitedSetAborts += c.limitedSetAborts;
        cov.fastAttempts += c.fastAttempts;
        cov.fastHits += c.fastHits;
        cov.fastGenRejections += c.fastGenRejections;
    }
    return kNone;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t schedules = 200;
    unsigned ops = 160;
    std::uint64_t seed0 = 1;
    unsigned threads = 1;
    std::string corpusDir;
    std::string replayFile;
    bool shrink = true;
    bool replayShrink = false;
    unsigned groupMask = kGroupAll;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs an argument\n";
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--schedules")
            schedules = std::strtoull(next("--schedules"), nullptr, 0);
        else if (a == "--ops")
            ops = static_cast<unsigned>(
                std::strtoul(next("--ops"), nullptr, 0));
        else if (a == "--seed0")
            seed0 = std::strtoull(next("--seed0"), nullptr, 0);
        else if (a == "--threads")
            threads = std::max(
                1u, static_cast<unsigned>(
                        std::strtoul(next("--threads"), nullptr, 0)));
        else if (a == "--corpus-out")
            corpusDir = next("--corpus-out");
        else if (a == "--no-shrink")
            shrink = false;
        else if (a == "--replay")
            replayFile = next("--replay");
        else if (a == "--shrink")
            replayShrink = true;
        else if (a == "--cells") {
            if (!parseCells(next("--cells"), groupMask)) {
                std::cerr << "bad --cells value\n";
                usage();
                return 2;
            }
        } else {
            std::cerr << "unknown argument: " << a << "\n";
            usage();
            return 2;
        }
    }

    if (!replayFile.empty()) {
        std::ifstream in(replayFile);
        if (!in.good()) {
            std::cerr << "cannot open " << replayFile << "\n";
            return 2;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        Schedule s;
        std::string err;
        if (!parse(buf.str(), s, err)) {
            std::cerr << replayFile << ": parse error: " << err << "\n";
            return 2;
        }
        // Pre-PR-7/PR-8 witnesses omit the newer knob lines; say what
        // defaults this replay actually assumed so the run is
        // unambiguous.
        if (s.omittedKnobs != 0) {
            std::cerr << replayFile
                      << ": older replay format, assuming defaults:";
            if (s.omittedKnobs & kOmitEngineThreads)
                std::cerr << " enginethreads="
                          << s.cfg.engineThreads[0] << ","
                          << s.cfg.engineThreads[1]
                          << " (legacy field, no cell reads it)";
            if (s.omittedKnobs & kOmitBtx)
                std::cerr << " btxRetries=" << s.cfg.btxRetries
                          << " btxThreshold=" << s.cfg.btxThreshold;
            if (s.omittedKnobs & kOmitLimitedK)
                std::cerr << " limitedK=" << s.cfg.limitedK;
            if (s.omittedKnobs & kOmitFastPath)
                std::cerr << " fastPathMask=" << s.cfg.fastPathMask;
            std::cerr << "\n";
        }
        Coverage rcov;
        Divergence d = runSchedule(s, &rcov, groupMask);
        if (!d.found) {
            std::cout << replayFile << ": no divergence ("
                      << s.ops.size() << " ops)\n"
                      << "  fallbackEntries=" << rcov.fallbackEntries
                      << " fallbackAccesses=" << rcov.fallbackAccesses
                      << " fallbackCommits=" << rcov.fallbackCommits
                      << " wrapRemaps=" << rcov.fallbackWrapRemaps
                      << " limitedSetAborts=" << rcov.limitedSetAborts
                      << "\n"
                      << "  fastAttempts=" << rcov.fastAttempts
                      << " fastHits=" << rcov.fastHits
                      << " fastGenRejections=" << rcov.fastGenRejections
                      << "\n";
            return 0;
        }
        return reportDivergence(s, d, replayShrink, corpusDir, 0,
                                groupMask);
    }

    Coverage cov;
    if (threads > 1) {
        const std::uint64_t bad = runBatchThreaded(
            seed0, schedules, ops, threads, groupMask, cov);
        if (bad != ~std::uint64_t{0}) {
            // Deterministic single-threaded re-run of the minimum
            // diverging seed for the report and the shrink.
            Schedule s = generate(bad, ops);
            Divergence d = runSchedule(s, nullptr, groupMask);
            return reportDivergence(s, d, shrink, corpusDir, bad,
                                    groupMask);
        }
    } else {
        for (std::uint64_t seed = seed0; seed < seed0 + schedules;
             ++seed) {
            Schedule s = generate(seed, ops);
            Divergence d = runSchedule(s, &cov, groupMask);
            if (d.found)
                return reportDivergence(s, d, shrink, corpusDir, seed,
                                        groupMask);
            if ((seed - seed0 + 1) % 500 == 0)
                std::cerr << (seed - seed0 + 1) << "/" << schedules
                          << " schedules clean\n";
        }
    }

    std::cout << "fuzz campaign clean: " << cov.schedules
              << " schedules, " << cov.ops << " ops\n"
              << "  commits=" << cov.commits
              << " aborts=" << cov.aborts
              << " capacityAborts=" << cov.capacityAborts
              << " vidResets=" << cov.vidResets << "\n"
              << "  spills=" << cov.spills
              << " refills=" << cov.refills
              << " soRefetches=" << cov.soRefetches << "\n"
              << "  slaConfirms=" << cov.slaConfirms
              << " slaMismatchAborts=" << cov.slaMismatchAborts << "\n"
              << "  fallbackEntries=" << cov.fallbackEntries
              << " fallbackAccesses=" << cov.fallbackAccesses
              << " fallbackCommits=" << cov.fallbackCommits
              << " wrapRemaps=" << cov.fallbackWrapRemaps
              << " limitedSetAborts=" << cov.limitedSetAborts << "\n"
              << "  fastAttempts=" << cov.fastAttempts
              << " fastHits=" << cov.fastHits
              << " fastGenRejections=" << cov.fastGenRejections << "\n";
    return 0;
}
