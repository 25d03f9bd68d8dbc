/**
 * @file
 * The off-line "perfect future knowledge" oracle as a policy:
 * shaker + thresholding applied to the production run itself per
 * fixed instruction interval, re-run under the resulting schedule.
 */

#include "control/offline.hh"
#include "control/policy.hh"
#include "util/logging.hh"
#include "workload/suite.hh"

namespace mcd::control
{
namespace
{

class OfflinePolicy final : public Policy
{
  public:
    const char *
    name() const override
    {
        return "offline";
    }

    const char *
    description() const override
    {
        return "off-line oracle: perfect-knowledge per-interval "
               "schedule, the profile method's upper bound";
    }

    std::vector<ParamInfo>
    params() const override
    {
        return {
            ParamInfo::num(
                "d", DEFAULT_SLOWDOWN_PCT,
                "slowdown threshold, percent of baseline run time",
                0.0, 1000.0),
        };
    }

    std::string
    contextKey(const PolicyContext &ctx) const override
    {
        return strprintf("w%llu|i%llu",
                         (unsigned long long)ctx.productionWindow,
                         (unsigned long long)ctx.offlineInterval);
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const PolicyContext &ctx) const override
    {
        workload::Benchmark bm = workload::makeBenchmark(bench);
        OfflineConfig oc;
        oc.intervalInstrs = ctx.offlineInterval;
        oc.slowdownPct = spec.num("d");
        return runOutcome(offlineRun(oc, bm.program, bm.ref, ctx.sim,
                                     ctx.power, ctx.productionWindow,
                                     checkpointsFor(ctx, bench)));
    }
};

} // namespace

MCD_REGISTER_POLICY(OfflinePolicy);

} // namespace mcd::control
