/**
 * @file
 * Regenerates Figure 1's comparison: sequential vs DOACROSS vs DSWP
 * vs PS-DSWP on the linked-list loop, demonstrating the two §2.1
 * claims — DOACROSS and DSWP "could only profitably make use of two
 * threads" while PS-DSWP keeps scaling, and DOACROSS pays the
 * inter-core latency every iteration while pipeline parallelism is
 * far less sensitive to it.
 */

#include "bench/common.hh"
#include "workloads/linked_list.hh"

using namespace hmtx;
using namespace hmtx::bench;

namespace
{

runtime::ExecResult
run(const std::string& which, unsigned threads,
    const sim::MachineConfig& cfg)
{
    workloads::LinkedListWorkload::Params p;
    p.nodes = 200;
    p.workRounds = 240;   // stage-2 work per node
    p.stage1Rounds = 200; // traversal-side processing per node
    workloads::LinkedListWorkload wl(p);
    if (which == "seq")
        return runtime::Runner::runSequential(wl, cfg);
    if (which == "doacross")
        return runtime::Runner::runDoacross(wl, cfg, threads);
    // Pipeline: 1 stage-1 core + (threads - 1) stage-2 workers.
    return runtime::Runner::runPipeline(wl, cfg, threads - 1);
}

} // namespace

int
main()
{
    sim::MachineConfig base; // Table 2: cache-to-cache = 40 cycles
    sim::MachineConfig slow = base;
    slow.l2Latency = 120; // a high-latency interconnect

    std::printf("Figure 1: scheduling paradigms on the linked-list "
                "loop (200 iterations)\n");
    rule(92);
    std::printf("%-22s | %10s %9s | %10s %9s | %11s\n", "Model",
                "cyc @40", "speedup", "cyc @120", "speedup",
                "sensitivity");
    rule(92);

    runtime::ExecResult seqB = run("seq", 1, base);
    runtime::ExecResult seqS = run("seq", 1, slow);

    struct Row
    {
        const char* label;
        const char* model;
        unsigned threads;
    };
    const Row rows[] = {
        {"sequential", "seq", 1},
        {"DOACROSS (2 threads)", "doacross", 2},
        {"DOACROSS (4 threads)", "doacross", 4},
        {"DSWP     (2 threads)", "pipeline", 2},
        {"PS-DSWP  (4 threads)", "pipeline", 4},
    };
    for (const Row& row : rows) {
        runtime::ExecResult rb = run(row.model, row.threads, base);
        runtime::ExecResult rs = run(row.model, row.threads, slow);
        std::printf(
            "%-22s | %10llu %8.2fx | %10llu %8.2fx | %10.2fx\n",
            row.label, static_cast<unsigned long long>(rb.cycles),
            speedup(seqB, rb),
            static_cast<unsigned long long>(rs.cycles),
            speedup(seqS, rs),
            static_cast<double>(rs.cycles) /
                static_cast<double>(rb.cycles));
    }
    rule(92);
    std::printf(
        "\nPaper claims (§2.1): DOACROSS serializes (token latency + "
        "stage 1) per iteration, so\nit gains little beyond 2 threads "
        "and degrades as inter-core latency grows; DSWP is\nbounded "
        "by its largest stage; PS-DSWP replicates the parallel stage "
        "and keeps scaling.\n");
    return 0;
}
