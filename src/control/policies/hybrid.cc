/**
 * @file
 * A policy the paper does not have, shipped as proof that the policy
 * API is open: the profile-driven pipeline with an on-line IPC guard
 * layered on top.
 *
 * The profile method commits to training-run frequencies; when the
 * reference input enters behaviour the training run never saw (see
 * Table 3's coverage gaps: mpeg2 decode, vpr), those frequencies can
 * collapse an interval's IPC with no mechanism to notice.  `hybrid`
 * keeps the instrumented pipeline but monitors per-interval IPC the
 * way the on-line controller's guard does, and on a collapse
 * overrides the profile's choice by returning every domain to full
 * speed until the next reconfiguration point re-asserts the plan.
 *
 * This file is also the template for adding a policy: one
 * self-registering translation unit, listed in
 * src/control/CMakeLists.txt — no changes to exp/ or bench/.
 */

#include "control/ipc_guard.hh"
#include "control/policies/pipeline_policy.hh"

namespace mcd::control
{
namespace
{

/**
 * The recovery half of the attack/decay controller: return all
 * domains to maximum frequency when an interval's IPC collapses more
 * than `guard` below the best recent interval (control::IpcGuard).
 * It never lowers a frequency — downward moves remain the profile
 * plan's business.
 */
class IpcGuardHook final : public sim::IntervalHook
{
  public:
    IpcGuardHook(double drop, Mhz f_max) : guard(drop), fMax(f_max) {}

    void
    onInterval(const sim::IntervalStats &s,
               sim::DvfsControl &ctl) override
    {
        if (!guard.collapsed(s.ipc))
            return;
        // Count an override only when some domain actually moves;
        // during a sustained collapse the chip is already at full
        // speed and re-asserting it is a no-op.
        bool moves = false;
        for (Domain dom : scaledDomains()) {
            if (ctl.targetFreq(dom) != fMax)
                moves = true;
            ctl.setTarget(dom, fMax);
        }
        if (moves)
            ++nOverrides;
        guard.relax();
    }

    std::uint64_t
    overrides() const
    {
        return nOverrides;
    }

  private:
    IpcGuard guard;
    Mhz fMax;
    std::uint64_t nOverrides = 0;
};

class HybridPolicy final : public PipelinePolicy
{
  public:
    const char *
    name() const override
    {
        return "hybrid";
    }

    const char *
    description() const override
    {
        return "profile pipeline with an on-line IPC guard that "
               "overrides collapsing intervals";
    }

    std::vector<ParamInfo>
    params() const override
    {
        std::vector<ParamInfo> ps = PipelinePolicy::params();
        ps.push_back(ParamInfo::num(
            "guard", 0.10,
            "IPC drop, as a fraction of the best recent "
            "interval IPC, that triggers a full-speed override",
            0.0, 1.0));
        ps.push_back(ParamInfo::num(
            "interval", 2000.0,
            "guard evaluation interval, committed instructions", 1.0,
            1e12, /*integer=*/true));
        return ps;
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const PolicyContext &ctx) const override
    {
        workload::Benchmark bm = workload::makeBenchmark(bench);
        core::ProfilePipeline pipe = trainedPipeline(bm, bench, spec, ctx);

        IpcGuardHook guard(spec.num("guard"), ctx.sim.maxMhz);
        // The schema bounds interval to [1, 1e12], so the cast is
        // well-defined and the hook interval positive.
        auto interval =
            static_cast<std::uint64_t>(spec.num("interval"));
        core::RuntimeStats rt;
        sim::RunResult r = pipe.runProduction(
            bm.ref, ctx.sim, ctx.power, ctx.productionWindow, &rt,
            &guard, interval, checkpointsFor(ctx, bench));

        Outcome res = pipelineOutcome(r, rt, pipe);
        // Guard overrides are reconfigurations the chip performs on
        // top of the instrumented ones; the simulator only counts
        // the marker/schedule paths, so add them explicitly.
        res.reconfigs += static_cast<double>(guard.overrides());
        return res;
    }
};

} // namespace

MCD_REGISTER_POLICY(HybridPolicy);

} // namespace mcd::control
