/**
 * @file
 * The off-line "perfect future knowledge" baseline [30]: the shaker
 * and slowdown-thresholding algorithms applied per fixed instruction
 * interval of the *production* run itself, yielding a frequency
 * schedule that a re-run applies with no instrumentation cost.
 */

#ifndef MCD_CONTROL_OFFLINE_HH
#define MCD_CONTROL_OFFLINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/shaker.hh"
#include "power/power.hh"
#include "sim/processor.hh"
#include "workload/program.hh"

namespace mcd::control
{

/**
 * Off-line oracle parameters.
 *
 * The controller emits a `sim::SchedulePoint` list: per-domain
 * target frequencies in MHz, keyed by simulated time in picoseconds.
 * Voltage is not a separate knob — each domain's supply follows its
 * frequency through `sim::SimConfig::voltageFor()` (the linear
 * XScale-like curve, 0.65 V / 650 mV at `minMhz` up to 1.20 V /
 * 1200 mV at `maxMhz`).
 */
struct OfflineConfig
{
    /**
     * Reconfiguration interval, in committed instructions (the paper
     * uses fixed intervals; its main results use 10,000).  Smaller
     * intervals track phase changes more closely but amplify ramp
     * overhead.
     */
    std::uint64_t intervalInstrs = 10'000;
    /**
     * Slowdown target d, in percent of baseline run time: the oracle
     * picks per-interval frequencies so the estimated run-time
     * increase stays within d%.  This is the x-axis knob of the
     * Figure 10/11 trade-off curves (paper default: 5%).
     */
    double slowdownPct = 5.0;
    /**
     * Schedule lead, in committed instructions: frequencies are
     * requested this many instructions before the interval starts,
     * hiding the DVFS ramp time — the oracle knows the future.
     */
    std::uint64_t leadInstrs = 2'000;
    /** Phase-2 slack analysis knobs (see core/shaker.hh); phase 3
     *  thresholds on their step grid (core::thresholdConfigFor). */
    core::ShakerConfig shaker;
};

/**
 * The half of the oracle that does not read d: one exact analysis
 * run of the production input, cut into reconfiguration intervals,
 * each shaken into histograms.  offlineSchedule() thresholds it at
 * any d, so one analysis serves a whole d sweep; it is immutable once
 * built and may be shared across threads.
 */
struct OfflineAnalysis
{
    /** One interval: the committed instruction it starts at and its
     *  shaker histograms. */
    struct Interval
    {
        std::uint64_t startInstr = 0;
        core::NodeHistograms hists;
    };
    std::vector<Interval> intervals;
    /**
     * The analysis run itself: full speed, exact, over the production
     * window.  Its trace sink only reads commit records, so in exact
     * mode this is the MCD baseline run, field for field (the
     * `baseline` policy serves it; tests/test_policy.cc pins it).
     */
    sim::RunResult run;
};

/**
 * Analyze a production run with future knowledge: simulate it at
 * full speed, shaking every `intervalInstrs` interval as it commits,
 * and keep the run.  Reads @p cfg's `intervalInstrs` and `shaker`
 * only.
 *
 * The analysis run always executes in exact mode: the shaker needs
 * the complete per-instruction event trace, which sampled probes
 * cannot provide.  Only the production re-run (offlineRun) honours
 * SimConfig::sampling.
 *
 * @param cfg     oracle parameters
 * @param program workload
 * @param input   production input set
 * @param scfg    simulator configuration
 * @param pcfg    power configuration
 * @param window  instructions to analyze
 */
OfflineAnalysis
offlineHistograms(const OfflineConfig &cfg,
                  const workload::Program &program,
                  const workload::InputSet &input,
                  const sim::SimConfig &scfg,
                  const power::PowerConfig &pcfg, std::uint64_t window);

/**
 * Threshold @p analysis at `cfg.slowdownPct` into the schedule to
 * apply on the re-run, each point `cfg.leadInstrs` early.
 */
std::vector<sim::SchedulePoint>
offlineSchedule(const OfflineConfig &cfg,
                const OfflineAnalysis &analysis);

/**
 * Analyze a production run with future knowledge and produce the
 * frequency schedule to apply on the re-run: offlineSchedule() of
 * offlineHistograms().
 */
std::vector<sim::SchedulePoint>
offlineAnalyze(const OfflineConfig &cfg,
               const workload::Program &program,
               const workload::InputSet &input,
               const sim::SimConfig &scfg,
               const power::PowerConfig &pcfg, std::uint64_t window);

/**
 * Convenience: analyze, then re-run the production input under the
 * schedule and return the result.  @p checkpoints (optional) is a
 * prebuilt sampled-mode checkpoint set for the production re-run
 * (sim/checkpoint.hh); ignored in exact mode.
 */
sim::RunResult
offlineRun(const OfflineConfig &cfg, const workload::Program &program,
           const workload::InputSet &input, const sim::SimConfig &scfg,
           const power::PowerConfig &pcfg, std::uint64_t window,
           std::shared_ptr<const sim::CheckpointSet> checkpoints =
               nullptr);

/**
 * offlineRun() on a prebuilt @p analysis of the same production run
 * (offlineHistograms() with @p cfg's interval and shaker knobs):
 * threshold it at @p cfg's d, then re-run under the schedule.
 */
sim::RunResult
offlineRun(const OfflineConfig &cfg, const OfflineAnalysis &analysis,
           const workload::Program &program,
           const workload::InputSet &input, const sim::SimConfig &scfg,
           const power::PowerConfig &pcfg, std::uint64_t window,
           std::shared_ptr<const sim::CheckpointSet> checkpoints =
               nullptr);

} // namespace mcd::control

#endif // MCD_CONTROL_OFFLINE_HH
