/**
 * @file
 * End-to-end profile-driven reconfiguration pipeline: the paper's
 * four phases wired together behind one API.
 *
 *   1. profile the training run, build the call tree, select
 *      long-running nodes;
 *   2. simulate the training run at full speed, collect the
 *      primitive-event trace per node, run the shaker;
 *   3. slowdown-threshold the histograms into per-node frequencies;
 *   4. edit the application (instrumentation plan);
 *   then run the edited binary on a production input.
 */

#ifndef MCD_CORE_PIPELINE_HH
#define MCD_CORE_PIPELINE_HH

#include <map>
#include <memory>

#include "core/editor.hh"
#include "core/profiler.hh"
#include "core/runtime.hh"
#include "core/shaker.hh"
#include "core/threshold.hh"
#include "sim/processor.hh"

namespace mcd::core
{

/** Configuration of the whole pipeline. */
struct PipelineConfig
{
    ContextMode mode = ContextMode::LF;
    /** Slowdown threshold d (percent), Section 3.3. */
    double slowdownPct = 5.0;
    ProfileConfig profile;
    ShakerConfig shaker;
    AnalysisCollector::Limits limits;
    /** Timing-simulated instructions for the phase-2 analysis run. */
    std::uint64_t analysisWindow = 200'000;
    RuntimeCosts costs;
};

/**
 * Phases 1-2, the half of the pipeline that does not read d: the
 * training call tree with its long-running nodes, and the shaker's
 * histograms per node.  Thresholding (phase 3) and editing (phase 4)
 * start from it at any d, so one training serves a whole d sweep;
 * it is immutable once built and may be shared across threads.
 */
struct TrainedProfile
{
    CallTree tree;
    std::map<std::uint32_t, NodeHistograms> nodeHists;
};

/**
 * Run phases 1-2 on the training input: profile it under
 * @p cfg.mode, then simulate @p cfg.analysisWindow instructions of it
 * at full speed and shake the trace per node.  Reads every
 * PipelineConfig field but slowdownPct and costs.
 *
 * @param program workload
 * @param train   training input set
 * @param cfg     pipeline configuration
 * @param scfg    simulator configuration for the analysis run
 * @param pcfg    power model configuration
 */
TrainedProfile trainProfile(const workload::Program &program,
                            const workload::InputSet &train,
                            const PipelineConfig &cfg,
                            const sim::SimConfig &scfg,
                            const power::PowerConfig &pcfg);

/**
 * Driver object owning the per-d state (frequencies, plan) on top of
 * a possibly shared TrainedProfile.
 */
class ProfilePipeline
{
  public:
    /**
     * @param program workload (must outlive the pipeline)
     * @param cfg     pipeline configuration
     */
    ProfilePipeline(const workload::Program &program,
                    const PipelineConfig &cfg);

    /**
     * Run phases 1-4 on the training input: adopt() of a fresh
     * trainProfile().
     *
     * @param train training input set
     * @param scfg  simulator configuration for the analysis run
     * @param pcfg  power model configuration
     */
    void train(const workload::InputSet &train,
               const sim::SimConfig &scfg,
               const power::PowerConfig &pcfg);

    /**
     * Run phases 3-4 on a prebuilt training: threshold its histograms
     * at this pipeline's d and edit.  @p trained must come from
     * trainProfile() with this pipeline's program and configuration
     * (d aside); other pipelines may share it.
     */
    void adopt(std::shared_ptr<const TrainedProfile> trained);

    /**
     * Run the edited binary on a production input.
     *
     * @param input  production input set
     * @param scfg   simulator configuration
     * @param pcfg   power model configuration
     * @param window instructions to simulate
     * @param rt_out optional: receives dynamic instrumentation counts
     * @param hook   optional interval controller run alongside the
     *               instrumented binary (e.g. a reactive guard that
     *               can override profile-chosen frequencies); fired
     *               every @p hook_interval committed instructions
     * @param checkpoints optional prebuilt sampled-mode checkpoint
     *               set for this run (sim/checkpoint.hh); ignored in
     *               exact mode
     */
    sim::RunResult
    runProduction(const workload::InputSet &input,
                  const sim::SimConfig &scfg,
                  const power::PowerConfig &pcfg, std::uint64_t window,
                  RuntimeStats *rt_out = nullptr,
                  sim::IntervalHook *hook = nullptr,
                  std::uint64_t hook_interval = 0,
                  std::shared_ptr<const sim::CheckpointSet>
                      checkpoints = nullptr);

    /** The training call tree (valid after train()/adopt()). */
    const CallTree &tree() const { return trained_->tree; }
    /** The instrumentation plan (valid after train()/adopt()). */
    const InstrumentationPlan &plan() const { return plan_; }
    /** Chosen frequencies per long-running node. */
    const std::map<std::uint32_t, sim::FreqSet> &
    nodeFrequencies() const
    {
        return nodeFreqs;
    }
    /** Shaker outputs per node (for inspection/tests). */
    const std::map<std::uint32_t, NodeHistograms> &
    nodeHistograms() const
    {
        return trained_->nodeHists;
    }

  private:
    const workload::Program &program;
    PipelineConfig cfg;
    std::shared_ptr<const TrainedProfile> trained_;
    std::map<std::uint32_t, sim::FreqSet> nodeFreqs;
    InstrumentationPlan plan_;
};

} // namespace mcd::core

#endif // MCD_CORE_PIPELINE_HH
