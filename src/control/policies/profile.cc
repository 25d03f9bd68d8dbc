/**
 * @file
 * The paper's contribution as a policy: the four-phase profile-driven
 * pipeline (profile the training run, shake, threshold at d, edit),
 * then an instrumented production run on the reference input.
 */

#include "control/policies/pipeline_policy.hh"
#include "workload/suite.hh"

namespace mcd::control
{
namespace
{

class ProfilePolicy final : public PipelinePolicy
{
  public:
    const char *
    name() const override
    {
        return "profile";
    }

    const char *
    description() const override
    {
        return "profile-driven pipeline: train on the training "
               "input, run production instrumented";
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const PolicyContext &ctx) const override
    {
        workload::Benchmark bm = workload::makeBenchmark(bench);
        core::ProfilePipeline pipe(bm.program,
                                   pipelineConfig(spec, ctx));
        pipe.train(bm.train, ctx.sim, ctx.power);
        core::RuntimeStats rt;
        sim::RunResult r = pipe.runProduction(
            bm.ref, ctx.sim, ctx.power, ctx.productionWindow, &rt,
            nullptr, 0, checkpointsFor(ctx, bench));
        return pipelineOutcome(r, rt, pipe);
    }
};

} // namespace

MCD_REGISTER_POLICY(ProfilePolicy);

} // namespace mcd::control
