#include "core/pipeline.hh"

#include "util/logging.hh"

namespace mcd::core
{

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
    // Phase 1: profiling run (functional), long-running selection.
    tree_ = std::make_unique<CallTree>(
        profileProgram(program, train_input, cfg.mode, cfg.profile));

    // Phase 2: full-speed analysis simulation with event tracing.
    ShakerConfig shaker_cfg = shakerConfigFor(cfg.shaker, scfg, pcfg);
    NodeTracker tracker(*tree_);
    AnalysisCollector collector(shaker_cfg, cfg.limits);
    // The shaker needs the complete per-instruction event trace of
    // the analysis window; sampled probes would leave holes in it,
    // so the analysis run is always exact.
    sim::SimConfig acfg = scfg;
    acfg.sampling = sim::SamplingConfig{};
    sim::Processor analysis(acfg, pcfg, program, train_input);
    analysis.setMarkerHandler(&tracker);
    analysis.setTraceSink(&collector);
    analysis.run(cfg.analysisWindow);
    nodeHists = collector.finish();

    // Phase 3: slowdown thresholding.
    ThresholdConfig tcfg;
    tcfg.slowdownPct = cfg.slowdownPct;
    tcfg.steps = shaker_cfg.steps;
    nodeFreqs.clear();
    for (const auto &kv : nodeHists) {
        if (kv.first != 0 && tree_->node(kv.first).longRunning)
            nodeFreqs[kv.first] = chooseFrequencies(kv.second, tcfg);
    }

    // Phase 4: application editing.
    plan_ = buildPlan(*tree_, nodeFreqs, cfg.mode);
    trained = true;
}

sim::RunResult
ProfilePipeline::runProduction(
    const workload::InputSet &input, const sim::SimConfig &scfg,
    const power::PowerConfig &pcfg, std::uint64_t window,
    RuntimeStats *rt_out, sim::IntervalHook *hook,
    std::uint64_t hook_interval,
    std::shared_ptr<const sim::CheckpointSet> checkpoints)
{
    if (!trained)
        fatal("ProfilePipeline::runProduction() before train()");
    if (hook && hook_interval == 0)
        fatal("ProfilePipeline::runProduction(): an interval hook "
              "needs a positive hook_interval (0 would silently "
              "disable it)");
    ProfileRuntime runtime(*tree_, plan_, cfg.costs);
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
