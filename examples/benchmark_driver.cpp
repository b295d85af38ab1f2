/**
 * @file
 * Domain example: drive any of the paper's 8 benchmarks under any
 * execution model from the command line.
 *
 *   benchmark_driver [benchmark] [model]
 *
 *   benchmark: 052.alvinn | 130.li | 164.gzip | 186.crafty |
 *              197.parser | 256.bzip2 | 456.hmmer | ispell
 *   model:     seq | hmtx | smtx-min | smtx-max
 *
 * With no arguments it sweeps 197.parser through all four models and
 * prints a comparison — a miniature of the paper's whole evaluation.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "runtime/executors.hh"
#include "sim/stats_report.hh"
#include "smtx/smtx.hh"
#include "workloads/all.hh"

using namespace hmtx;

namespace
{

runtime::ExecResult
runModel(const std::string& bench, const std::string& model,
         const sim::MachineConfig& cfg)
{
    auto wl = workloads::makeByName(bench);
    if (!wl) {
        std::fprintf(stderr, "unknown benchmark '%s'\n",
                     bench.c_str());
        std::exit(1);
    }
    if (model == "seq")
        return runtime::Runner::runSequential(*wl, cfg);
    if (model == "hmtx")
        return runtime::Runner::runHmtx(*wl, cfg);
    if (model == "smtx-min")
        return smtx::SmtxRunner::run(*wl, cfg,
                                     smtx::RwSetMode::Minimal);
    if (model == "smtx-max")
        return smtx::SmtxRunner::run(*wl, cfg,
                                     smtx::RwSetMode::Maximal);
    std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
    std::exit(1);
}

void
report(const runtime::ExecResult& r, const runtime::ExecResult* seq)
{
    std::printf("%-16s %10" PRIu64 " cycles", r.model.c_str(),
                r.cycles);
    if (seq && seq->cycles)
        std::printf("  %5.2fx", static_cast<double>(seq->cycles) /
                                    static_cast<double>(r.cycles));
    std::printf("  insts=%-8" PRIu64 " busTxns=%-7" PRIu64
                " aborts=%" PRIu64 "\n",
                r.instructions, r.stats.busTxns, r.stats.aborts);
    if (seq && r.checksum != seq->checksum) {
        std::fprintf(stderr, "OUTPUT MISMATCH vs sequential!\n");
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    sim::MachineConfig cfg; // Table 2 defaults

    std::string bench = argc > 1 ? argv[1] : "197.parser";
    if (argc > 2) {
        runtime::ExecResult seq = runModel(bench, "seq", cfg);
        runtime::ExecResult r = runModel(bench, argv[2], cfg);
        report(seq, nullptr);
        report(r, &seq);
        std::printf("\n--- full statistics (%s) ---\n",
                    r.model.c_str());
        sim::StatsReport(r.stats, &r.indexStats, &cfg, &r.txStats)
            .print();
        return 0;
    }

    std::printf("%s under every execution model (4 cores):\n\n",
                bench.c_str());
    runtime::ExecResult seq = runModel(bench, "seq", cfg);
    report(seq, nullptr);
    for (const char* m : {"hmtx", "smtx-min", "smtx-max"})
        report(runModel(bench, m, cfg), &seq);
    std::printf("\nHMTX validates every load and store in hardware; "
                "SMTX-max pays a queue record per\naccess and "
                "SMTX-min needed an expert to shrink the sets by "
                "hand (§2.3, §6.1).\n");
    return 0;
}
