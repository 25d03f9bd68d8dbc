#include "core/pipeline.hh"

#include "util/logging.hh"
#include "util/spec.hh"

namespace mcd::core
{

TrainedProfile
trainProfile(const workload::Program &program,
             const workload::InputSet &train,
             const PipelineConfig &cfg, const sim::SimConfig &scfg,
             const power::PowerConfig &pcfg)
{
    // Phase 1: profiling run (functional), long-running selection.
    TrainedProfile t{profileProgram(program, train, cfg.mode,
                                    cfg.profile),
                     {}};

    // Phase 2: full-speed analysis simulation with event tracing.
    NodeTracker tracker(t.tree);
    AnalysisCollector collector(shakerConfigFor(cfg.shaker, scfg, pcfg),
                                cfg.limits);
    // The shaker needs the complete per-instruction event trace of
    // the analysis window; sampled probes would leave holes in it,
    // so the analysis run is always exact.
    sim::SimConfig acfg = scfg;
    acfg.sampling = sim::SamplingConfig{};
    sim::Processor analysis(acfg, pcfg, program, train);
    analysis.setMarkerHandler(&tracker);
    analysis.setTraceSink(&collector);
    analysis.run(cfg.analysisWindow);
    t.nodeHists = collector.finish();
    return t;
}

ProfilePipeline::ProfilePipeline(const workload::Program &p,
                                 const PipelineConfig &c)
    : program(p), cfg(c)
{
}

void
ProfilePipeline::train(const workload::InputSet &train_input,
                       const sim::SimConfig &scfg,
                       const power::PowerConfig &pcfg)
{
    adopt(std::make_shared<const TrainedProfile>(
        trainProfile(program, train_input, cfg, scfg, pcfg)));
}

void
ProfilePipeline::adopt(std::shared_ptr<const TrainedProfile> trained)
{
    trained_ = std::move(trained);

    // Phase 3: slowdown thresholding.
    ThresholdConfig tcfg = thresholdConfigFor(cfg.slowdownPct, cfg.shaker);
    nodeFreqs.clear();
    for (const auto &kv : trained_->nodeHists) {
        if (kv.first != 0 && trained_->tree.node(kv.first).longRunning)
            nodeFreqs[kv.first] = chooseFrequencies(kv.second, tcfg);
    }

    // Phase 4: application editing.
    plan_ = buildPlan(trained_->tree, nodeFreqs, cfg.mode);
}

sim::RunResult
ProfilePipeline::runProduction(
    const workload::InputSet &input, const sim::SimConfig &scfg,
    const power::PowerConfig &pcfg, std::uint64_t window,
    RuntimeStats *rt_out, sim::IntervalHook *hook,
    std::uint64_t hook_interval,
    std::shared_ptr<const sim::CheckpointSet> checkpoints)
{
    if (!trained_)
        panic("ProfilePipeline::runProduction() before train() or "
              "adopt()");
    if (hook && hook_interval == 0)
        throw util::SpecError(
            "ProfilePipeline::runProduction(): an interval hook needs "
            "a positive hook_interval (0 would silently disable it)");
    ProfileRuntime runtime(trained_->tree, plan_, cfg.costs);
    sim::Processor proc(scfg, pcfg, program, input);
    proc.setMarkerHandler(&runtime);
    proc.setCheckpoints(std::move(checkpoints));
    if (hook)
        proc.setIntervalHook(hook, hook_interval);
    sim::RunResult r = proc.run(window);
    if (rt_out)
        *rt_out = runtime.stats();
    return r;
}

} // namespace mcd::core
