/**
 * @file
 * The traced layer replay: re-runs a workload's cells by calling each
 * layer's public function directly — the profile walk, the full-speed
 * analysis simulation, the shaker, threshold, edit, the production
 * simulation, the off-line analysis and the global bisection — with
 * a span around every call, and checks that each replayed outcome
 * equals the sweep's outcome for the same cell.  If it did not, the
 * per-layer numbers would describe a different program.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <map>
#include <string>

#include "harness.hh"

namespace perfbench
{

/** What the replay measured and checked. */
struct ReplayReport
{
    /** Per-layer metric values, by metric name. */
    std::map<std::string, double> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string firstDiff;
};

/**
 * Replay every cell of @p w, the baseline of every roster workload,
 * and — for each of the five policies the sweep does not run — that
 * policy's headline spec on the first two roster workloads, so every
 * layer is measured on every workload.  Reference outcomes come from
 * @p ref, the runner of an untraced sweep of @p w (its cells are
 * memoized there; the extra cells are computed).  Replays run over
 * @p jobs threads under span @p parent.
 */
ReplayReport replayLayers(const Workload &w,
                          const mcd::exp::ExpConfig &cfg,
                          mcd::exp::Runner &ref, unsigned jobs,
                          std::uint64_t parent);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
