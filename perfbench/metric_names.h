/**
 * @file
 * Every metric the benchmark prints, with its unit. BENCHMARK.json at
 * the repository root lists the same names; a traced run prints every
 * per-layer name on every workload, so a layer a workload does not
 * reach reads 0 there (see perfbench/README.md).
 */

#ifndef PERFBENCH_METRIC_NAMES_H
#define PERFBENCH_METRIC_NAMES_H

namespace perfbench {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed with --trace 0. */
inline constexpr MetricSpec kEndToEnd[] = {
    {"job_s", "s"},
    {"setup_s", "s"},
    {"sim_s_per_s", "sim_s/s"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics, printed with --trace 1. */
inline constexpr MetricSpec kPerLayer[] = {
    {"trace.synth_s", "s"},
    {"trace.samples", "count"},
    {"il.compile_s", "s"},
    {"sim.calibrate_s", "s"},
    {"sim.simulate_s.oracle", "s"},
    {"sim.simulate_s.pa", "s"},
    {"sim.simulate_s.sw", "s"},
    {"sim.fleet_build_s", "s"},
    {"sim.fleet_run_s", "s"},
    {"sim.supervised_s", "s"},
    {"hub.ingest_s.per_sample", "s"},
    {"hub.ingest_s.block", "s"},
    {"hub.ns_per_sample.per_sample", "ns"},
    {"hub.ns_per_sample.block", "ns"},
    {"hub.ingest_share", "ratio"},
    {"hub.allocs_per_ksample.per_sample", "1/ksample"},
    {"hub.allocs_per_ksample.block", "1/ksample"},
    {"hub.wake_events", "count"},
    {"hub.plan_cache.misses", "count"},
    {"hub.plan_cache.hit_rate", "ratio"},
    {"hub.plan_cache.plans", "count"},
    {"hub.placer.conditions.MSP430", "count"},
    {"hub.placer.conditions.LM4F120", "count"},
    {"hub.placer.conditions.iCE40-hub", "count"},
    {"hub.placer.conditions.AP", "count"},
    {"hub.ram_bytes_per_device", "B"},
    {"transport.retransmits", "count"},
    {"transport.frames_lost", "count"},
    {"transport.frames_dropped", "count"},
    {"transport.bytes_corrupted", "count"},
    {"transport.decoder_dropped_bytes", "count"},
    {"transport.retx_per_trigger", "ratio"},
    {"supervision.hub_resets", "count"},
    {"supervision.repushed_conditions", "count"},
    {"supervision.down_s", "sim_s"},
    {"supervision.fallback_awake_s", "sim_s"},
    {"reconfig.committed", "count"},
    {"reconfig.rolled_back", "count"},
    {"reconfig.delta_to_full", "ratio"},
    {"sim.recall_min.corrupt_1e-4", "ratio"},
    {"sim.recall_min.corrupt_3e-4", "ratio"},
    {"sim.recall_min.corrupt_1e-3", "ratio"},
    {"sim.recall_min.corrupt_2e-3", "ratio"},
    {"sim.recall_min.corrupt_3e-3", "ratio"},
    {"sim.recall_min.corrupt_5e-3", "ratio"},
    {"sim.recall_min.corrupt_7e-3", "ratio"},
    {"sim.recall_min.corrupt_1e-2", "ratio"},
    {"sim.recall_min.resets", "ratio"},
    {"sim.recall_min.reconfig", "ratio"},
    {"sim.table2_err_pct", "%"},
    {"support.pool_threads", "count"},
    {"support.nproc", "count"},
    {"bench.job_wall_s", "s"},
    {"bench.job_self_s", "s"},
    {"bench.trace_overhead_s", "s"},
};

} // namespace perfbench

#endif // PERFBENCH_METRIC_NAMES_H
