/**
 * @file
 * The benchmark's metric catalogue (the names BENCHMARK.json lists)
 * and the per-layer counts read from the structs the simulator
 * returns.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include "harness.hh"

#include "core/tx_policy.hh"
#include "sim/stats.hh"

namespace perfbench
{

struct MetricDef
{
    const char* name;
    const char* unit;
};

/** Kv mode suffixes, in the order the kv workloads run them. */
inline constexpr const char* kModeNames[] = {"lazy", "eager", "btx",
                                             "ltd"};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"host_accesses_per_s", "1/s"},
    {"host_requests_per_s", "1/s"},
    {"host_schedules_per_s", "1/s"},
    {"host_interleavings_per_s", "1/s"},
    {"sim_speedup_geomean", "x"},
    {"sim_smtx_speedup_geomean", "x"},
    {"sim_p50_cycles.lazy", "cycles"},
    {"sim_p50_cycles.eager", "cycles"},
    {"sim_p50_cycles.btx", "cycles"},
    {"sim_p50_cycles.ltd", "cycles"},
    {"sim_p999_cycles.lazy", "cycles"},
    {"sim_p999_cycles.eager", "cycles"},
    {"sim_p999_cycles.btx", "cycles"},
    {"sim_p999_cycles.ltd", "cycles"},
};

inline constexpr MetricDef kPerLayer[] = {
    // Spans: host self time around each entry-point call.
    {"workloads.make_ms", "ms"},
    {"runtime.sequential_ms", "ms"},
    {"runtime.hmtx_ms", "ms"},
    {"smtx.run_ms", "ms"},
    {"runtime.sequential_ns_per_access", "ns"},
    {"runtime.hmtx_ns_per_access", "ns"},
    {"smtx.ns_per_access", "ns"},
    {"workloads.kv_serve_ms.lazy", "ms"},
    {"workloads.kv_serve_ms.eager", "ms"},
    {"workloads.kv_serve_ms.btx", "ms"},
    {"workloads.kv_serve_ms.ltd", "ms"},
    {"workloads.kv_serve_ns_per_access.lazy", "ns"},
    {"workloads.kv_serve_ns_per_access.eager", "ns"},
    {"workloads.kv_serve_ns_per_access.btx", "ns"},
    {"workloads.kv_serve_ns_per_access.ltd", "ns"},
    {"check.generate_ms", "ms"},
    {"check.run_schedule_ms.hmtx", "ms"},
    {"check.run_schedule_ms.btx", "ms"},
    {"check.run_schedule_ms.ltd", "ms"},
    {"check.explore_ms", "ms"},
    {"trace.overhead_pct", "%"},
    // sim
    {"sim.accesses", "count"},
    {"sim.l1_hit_ratio", "ratio"},
    {"sim.mem_fetches", "count"},
    {"sim.writebacks", "count"},
    {"sim.fast.attempts", "count"},
    {"sim.fast.hit_ratio", "ratio"},
    {"sim.fast.gen_rejections", "count"},
    {"sim.fast.event_bypasses", "count"},
    {"sim.index.snoop_filter_ratio", "ratio"},
    {"sim.index.registry_walk_lines", "count"},
    {"sim.bus_txns", "count"},
    {"sim.dir_lookups", "count"},
    {"sim.spec_spills", "count"},
    {"sim.spec_refills", "count"},
    {"sim.so_overflow_writebacks", "count"},
    {"sim.so_refetches", "count"},
    // core
    {"core.commits", "count"},
    {"core.aborts", "count"},
    {"core.capacity_aborts", "count"},
    {"core.commit_ratio", "ratio"},
    {"core.new_versions", "count"},
    {"core.sla_confirms", "count"},
    {"core.sla_mismatch_aborts", "count"},
    {"core.avoided_aborts", "count"},
    {"core.tx.fallback_entries", "count"},
    {"core.tx.fallback_accesses", "count"},
    {"core.tx.fallback_cycles", "cycles"},
    {"core.tx.retry_aborts", "count"},
    {"core.tx.early_fallbacks", "count"},
    {"core.tx.limited_set_aborts", "count"},
    // runtime and smtx
    {"runtime.instructions", "count"},
    {"runtime.transactions", "count"},
    {"runtime.vid_resets", "count"},
    {"runtime.vid_stall_cycles", "cycles"},
    {"runtime.mispredicts", "count"},
    {"smtx.misspeculations", "count"},
    // workloads (kv_serve)
    {"serve.useful_ratio", "ratio"},
    {"serve.drains", "count"},
    {"serve.lock_restarts", "count"},
    {"serve.non_spec_fallbacks", "count"},
    {"serve.window_resets", "count"},
    {"serve.idle_cycles", "cycles"},
    {"serve.scratch_high_water_kb", "KiB"},
    // check
    {"check.ops", "count"},
    {"check.aborts", "count"},
    {"check.capacity_aborts", "count"},
    {"check.fallback_entries", "count"},
    {"check.fast_hits", "count"},
    {"check.explored", "count"},
    {"check.pruned", "count"},
    {"check.prune_ratio", "ratio"},
    {"check.env_aborts", "count"},
};

/** Sets a plain per-layer count. */
inline void
setCount(PassOut& p, const char* name, double v,
         const char* unit = "count")
{
    p.layers[name] = {v, unit, ""};
}

/** Sets a per-layer ratio with its base. */
inline void
setRatio(PassOut& p, const char* name, const char* num, double n,
         const char* den, double d)
{
    p.layers[name] = {ratio(n, d), "ratio", ratioBase(num, n, den, d)};
}

/** Per-layer counts of the memory system and the protocol core. */
inline void
addSysLayers(PassOut& p, const hmtx::sim::SysStats& s)
{
    const double acc = static_cast<double>(s.loads + s.stores);
    setCount(p, "sim.accesses", acc);
    setRatio(p, "sim.l1_hit_ratio", "l1_hits",
             static_cast<double>(s.l1Hits), "l1_lookups",
             static_cast<double>(s.l1Hits + s.l1Misses));
    setCount(p, "sim.mem_fetches", static_cast<double>(s.memFetches));
    setCount(p, "sim.writebacks", static_cast<double>(s.writebacks));
    setCount(p, "sim.bus_txns", static_cast<double>(s.busTxns));
    setCount(p, "sim.dir_lookups", static_cast<double>(s.dirLookups));
    setCount(p, "sim.spec_spills", static_cast<double>(s.specSpills));
    setCount(p, "sim.spec_refills", static_cast<double>(s.specRefills));
    setCount(p, "sim.so_overflow_writebacks",
             static_cast<double>(s.soOverflowWritebacks));
    setCount(p, "sim.so_refetches", static_cast<double>(s.soRefetches));
    setCount(p, "core.commits", static_cast<double>(s.commits));
    setCount(p, "core.aborts", static_cast<double>(s.aborts));
    setCount(p, "core.capacity_aborts",
             static_cast<double>(s.capacityAborts));
    setRatio(p, "core.commit_ratio", "commits",
             static_cast<double>(s.commits), "commits+aborts",
             static_cast<double>(s.commits + s.aborts));
    setCount(p, "core.new_versions", static_cast<double>(s.newVersions));
    setCount(p, "core.sla_confirms", static_cast<double>(s.slaConfirms));
    setCount(p, "core.sla_mismatch_aborts",
             static_cast<double>(s.slaMismatchAborts));
    setCount(p, "core.avoided_aborts",
             static_cast<double>(s.avoidedAborts));
}

/** Per-layer counts of the tx_policy layer. */
inline void
addTxLayers(PassOut& p, const hmtx::TxModeStats& t)
{
    setCount(p, "core.tx.fallback_entries",
             static_cast<double>(t.fallbackEntries));
    setCount(p, "core.tx.fallback_accesses",
             static_cast<double>(t.fallbackAccesses));
    setCount(p, "core.tx.fallback_cycles",
             static_cast<double>(t.fallbackCycles), "cycles");
    setCount(p, "core.tx.retry_aborts",
             static_cast<double>(t.retryAborts));
    setCount(p, "core.tx.early_fallbacks",
             static_cast<double>(t.earlyFallbacks));
    setCount(p, "core.tx.limited_set_aborts",
             static_cast<double>(t.limitedSetAborts));
}

/** Sums a padding-free struct of 64-bit counters field by field
 *  (SysStats, TxModeStats, FastStats, IndexStats, check::Coverage).
 *  A max-style field sums too; none of those feeds a reported metric. */
template <class T>
void
accumulate(T& into, const T& s)
{
    static_assert(sizeof(T) % 8 == 0 &&
                  std::has_unique_object_representations_v<T>);
    std::uint64_t a[sizeof(T) / 8], b[sizeof(T) / 8];
    std::memcpy(a, &into, sizeof(T));
    std::memcpy(b, &s, sizeof(T));
    for (std::size_t i = 0; i < sizeof(T) / 8; ++i)
        a[i] += b[i];
    std::memcpy(&into, a, sizeof(T));
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
