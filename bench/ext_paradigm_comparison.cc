/**
 * @file
 * Extension bench: speculative DOACROSS (TLS-style, one transaction
 * per iteration per core) vs speculative PS-DSWP (multithreaded
 * transactions), §2.1/§2.2.
 *
 * Part 1 sweeps the weight of the loop's *sequential* portion: the
 * part that carries the loop dependence and therefore sits on
 * DOACROSS's serial chain (token + sequential work every iteration)
 * but streams on PS-DSWP's dedicated first stage. The crossover is
 * the paper's argument: real pointer-chasing loops have substantial
 * sequential portions, so pipeline parallelism wins and needs MTX
 * support.
 *
 * Part 2 reports the benchmark suite for completeness. Our proxies
 * keep stage 1 deliberately thin (a work-list chase), which flatters
 * DOACROSS — an honest caveat recorded in EXPERIMENTS.md.
 */

#include "bench/common.hh"
#include "workloads/linked_list.hh"

using namespace hmtx;
using namespace hmtx::bench;

int
main()
{
    sim::MachineConfig cfg; // Table 2, 4 cores

    std::printf("Extension §2.1: DOACROSS (TLS) vs PS-DSWP (MTX)\n");
    std::printf("\nPart 1: sweep of the sequential-stage weight "
                "(linked list, 200 iterations,\n240-round work "
                "function)\n");
    rule(92);
    std::printf("%-14s | %-12s %-9s | %-12s %-9s | %-10s\n",
                "stage1 weight", "DOACROSS", "speedup", "PS-DSWP",
                "speedup", "winner");
    rule(92);
    for (unsigned s1 : {0u, 120u, 300u, 600u}) {
        workloads::LinkedListWorkload::Params p;
        p.nodes = 200;
        p.workRounds = 240;
        p.stage1Rounds = s1;

        workloads::LinkedListWorkload seqWl(p), daWl(p), psWl(p);
        runtime::ExecResult seq =
            runtime::Runner::runSequential(seqWl, cfg);
        runtime::ExecResult rd =
            runtime::Runner::runDoacross(daWl, cfg, cfg.numCores);
        runtime::ExecResult rp = runtime::Runner::runHmtx(psWl, cfg);
        requireChecksum("sweep", seq, rd);
        requireChecksum("sweep", seq, rp);

        double sd = speedup(seq, rd);
        double sp = speedup(seq, rp);
        std::printf(
            "%3u cycles    | %12llu %8.2fx | %12llu %8.2fx | %-10s\n",
            s1, static_cast<unsigned long long>(rd.cycles), sd,
            static_cast<unsigned long long>(rp.cycles), sp,
            sp > sd ? "PS-DSWP" : "DOACROSS");
    }
    rule(92);

    std::printf("\nPart 2: benchmark suite (thin-stage-1 proxies; "
                "see caveat below)\n");
    rule(92);
    std::vector<double> da, ps;
    for (auto& wl : workloads::makeSuite()) {
        const std::string name = wl->name();
        if (wl->paradigm() == runtime::Paradigm::Doall)
            continue; // no loop-carried dependence to compare

        auto seqWl = workloads::makeByName(name);
        runtime::ExecResult seq =
            runtime::Runner::runSequential(*seqWl, cfg);
        auto daWl = workloads::makeByName(name);
        runtime::ExecResult rd =
            runtime::Runner::runDoacross(*daWl, cfg, cfg.numCores);
        requireChecksum(name, seq, rd);
        auto psWl = workloads::makeByName(name);
        runtime::ExecResult rp = runtime::Runner::runHmtx(*psWl, cfg);
        requireChecksum(name, seq, rp);

        da.push_back(speedup(seq, rd));
        ps.push_back(speedup(seq, rp));
        std::printf("%-12s | DOACROSS %5.2fx | PS-DSWP %5.2fx\n",
                    name.c_str(), da.back(), ps.back());
    }
    std::printf("%-12s | DOACROSS %5.2fx | PS-DSWP %5.2fx\n",
                "Geomean", geomean(da), geomean(ps));
    rule(92);
    std::printf(
        "\nReading: with a negligible sequential stage DOACROSS "
        "degenerates to speculative\nDOALL and wins; as the "
        "sequential portion grows, its (token + stage 1) serial\n"
        "chain caps throughput while PS-DSWP keeps streaming — the "
        "crossover in Part 1.\nReal pointer-chasing hot loops sit on "
        "the PS-DSWP side (the paper's motivation);\nour scaled "
        "proxies' stage 1 is a thin work-list chase, so Part 2 "
        "flatters DOACROSS.\nBoth paradigms run on HMTX: DOACROSS "
        "needs only TLS-style transactions, PS-DSWP\nneeds the "
        "multithreaded transactions this system contributes.\n");
    return 0;
}
