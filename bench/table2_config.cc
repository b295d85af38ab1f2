/**
 * @file
 * Prints Table 2 — the architectural configuration — from the live
 * MachineConfig defaults, so drift between documentation and code is
 * impossible.
 */

#include <cstdio>

#include "bench/common.hh"
#include "power/model.hh"

using namespace hmtx;
using namespace hmtx::bench;

int
main()
{
    sim::MachineConfig c;

    std::printf("Table 2: Architectural configuration\n");
    rule(72);
    auto row = [](const char* feature, const std::string& param) {
        std::printf("%-28s %s\n", feature, param.c_str());
    };
    row("Architecture",
        "4-wide in-order timing model (Alpha 21264-class budget)");
    row("Clock Speed", "2.0 GHz");
    row("Cores", std::to_string(c.numCores));
    row("L1 I and D Caches",
        std::to_string(c.l1SizeKB) + "KB, " +
            std::to_string(c.l1Assoc) + "-way set associative, " +
            std::to_string(c.l1Latency) + " cycle latency");
    row("Shared L2 Cache",
        std::to_string(c.l2SizeKB / 1024) + "MB, " +
            std::to_string(c.l2Assoc) + "-way set associative, " +
            std::to_string(c.l2Latency) + " cycle latency");
    row("Cache Line Size", std::to_string(kLineBytes) + "B");
    row("Base Cache Coherence", "MOESI (snoopy bus)");
    row("Memory",
        std::to_string(c.memLatency) + " cycle latency (sparse)");
    row("VID width (m)", std::to_string(c.vidBits) + " bits -> " +
                             std::to_string(c.maxVid()) +
                             " concurrent transactions");
    row("SLA buffer", std::to_string(c.slaCapacity) + " entries");
    rule(72);

    power::PowerModel base(c, false), ext(c, true);
    std::printf("\nDerived (power model): commodity %.1f mm^2, "
                "+HMTX %.1f mm^2 (+%.1f);\nleakage %.3f W -> %.3f W\n",
                base.area().totalMm2(), ext.area().totalMm2(),
                ext.area().totalMm2() - base.area().totalMm2(),
                base.leakageW(), ext.leakageW());
    std::printf("\nPaper Table 2: Alpha 21264 @ 2.0 GHz, 64KB 8-way "
                "2-cycle L1s, 32MB 32-way\n40-cycle shared L2, 64B "
                "lines, MOESI, 1GB 200-cycle memory, Linux 2.6.27, "
                "GCC 4.3.2.\nFull-system OS/compiler details are "
                "abstracted by the simulator (DESIGN.md).\n");
    return 0;
}
