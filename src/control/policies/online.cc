/**
 * @file
 * Semeraro et al.'s on-line attack/decay hardware controller as a
 * policy (the paper's reactive baseline).
 */

#include "control/online.hh"
#include "control/policy.hh"
#include "sim/processor.hh"
#include "workload/suite.hh"

namespace mcd::control
{
namespace
{

class OnlinePolicy final : public Policy
{
  public:
    static OnlineConfig
    configFor(const PolicySpec &spec, const PolicyContext &ctx)
    {
        OnlineConfig oc;
        oc.aggressiveness = spec.num("aggr");
        oc.intIqSize = ctx.sim.intIqSize;
        oc.fpIqSize = ctx.sim.fpIqSize;
        oc.lsqSize = ctx.sim.lsqSize;
        oc.robSize = ctx.sim.robSize;
        return oc;
    }

    const char *
    name() const override
    {
        return "online";
    }

    const char *
    description() const override
    {
        return "on-line attack/decay controller reacting to queue "
               "utilization (Semeraro et al., MICRO 2002)";
    }

    std::vector<ParamInfo>
    params() const override
    {
        return {
            ParamInfo::num(
                "aggr", 1.0,
                "aggressiveness: scales decay, relaxes the IPC "
                "guard (1.0 = the paper's operating point)",
                0.0, 1000.0),
        };
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const PolicyContext &ctx) const override
    {
        workload::Benchmark bm = workload::makeBenchmark(bench);
        OnlineConfig oc = configFor(spec, ctx);
        AttackDecayController ctl(oc, ctx.sim);
        sim::Processor proc(ctx.sim, ctx.power, bm.program, bm.ref);
        proc.setIntervalHook(&ctl, oc.intervalInstrs);
        proc.setCheckpoints(checkpointsFor(ctx, bench));
        return runOutcome(proc.run(ctx.productionWindow));
    }

    bool
    makeTileController(const PolicySpec &spec,
                       const PolicyContext &ctx,
                       std::unique_ptr<sim::IntervalHook> *hook,
                       std::uint64_t *interval_instrs) const override
    {
        OnlineConfig oc = configFor(spec, ctx);
        *hook = std::make_unique<AttackDecayController>(oc, ctx.sim);
        *interval_instrs = oc.intervalInstrs;
        return true;
    }
};

} // namespace

MCD_REGISTER_POLICY(OnlinePolicy);

} // namespace mcd::control
