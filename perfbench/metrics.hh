/**
 * @file
 * The benchmark's metric table: every metric it reports, with its
 * unit and the direction that counts as better.  BENCHMARK.json lists
 * the same metrics in the same order; `run.py --self-test` checks
 * that the two agree.  Which layer metric should move which
 * end-to-end metric, on which workload, is in perfbench/README.md.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <vector>

namespace perfbench
{

struct MetricInfo
{
    const char *name;
    const char *unit;
    const char *better;  ///< "higher" or "lower"
};

/** Host-side metrics of the untraced run (`--trace 0`). */
inline const std::vector<MetricInfo> &
endToEndMetrics()
{
    static const std::vector<MetricInfo> m = {
        {"wall_s", "s", "lower"},
        {"cpu_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"setup_s", "s", "lower"},
    };
    return m;
}

/** Layer metrics of the traced run (`--trace 1`). */
inline const std::vector<MetricInfo> &
perLayerMetrics()
{
    static const std::vector<MetricInfo> m = {
        {"workload.canon_ms", "ms", "lower"},
        {"workload.build_ms", "ms", "lower"},
        {"core.profile_walk_ms", "ms", "lower"},
        {"core.profile_walk_minstr_per_s", "Minstr/s", "higher"},
        {"sim.analysis_ms", "ms", "lower"},
        {"sim.analysis_kinstr_per_s", "kinstr/s", "higher"},
        {"control.offline_analyze_ms", "ms", "lower"},
        {"core.shaker_ms", "ms", "lower"},
        {"core.shaker_kinstr_per_s", "kinstr/s", "higher"},
        {"core.shaker_segments", "count", "higher"},
        {"core.threshold_ms", "ms", "lower"},
        {"core.edit_ms", "ms", "lower"},
        {"sim.production_ms", "ms", "lower"},
        {"sim.production_kinstr_per_s", "kinstr/s", "higher"},
        {"sim.ff_edges", "count", "higher"},
        {"control.global_bisect_ms", "ms", "lower"},
        {"exp.cell_ms.baseline", "ms", "lower"},
        {"exp.cell_ms.online", "ms", "lower"},
        {"exp.cell_ms.offline", "ms", "lower"},
        {"exp.cell_ms.profile", "ms", "lower"},
        {"exp.cell_ms.global", "ms", "lower"},
        {"exp.memo_hits", "count", "higher"},
        {"exp.memo_misses", "count", "lower"},
        {"exp.memo_hit_ratio", "ratio", "higher"},
        {"exp.cache_flush_ms", "ms", "lower"},
        {"exp.cache_load_ms", "ms", "lower"},
        {"exp.warm_sweep_ms", "ms", "lower"},
        {"exp.cache_rejected", "count", "lower"},
        {"util.pool_utilization", "ratio", "higher"},
        {"util.pool_tail_ms", "ms", "lower"},
        {"trace.overhead_s", "s", "lower"},
    };
    return m;
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
