/**
 * @file
 * The global-DVS baseline as a policy: the MCD chip with all four
 * domains bisected to the one frequency whose run time matches the
 * off-line oracle's (Section 4.1) — what conventional chip-wide DVFS
 * could do under the same performance budget.
 *
 * The off-line run it matches is obtained through
 * `PolicyContext::evaluate`, i.e. through the harness memo: whether
 * the off-line cell ran first or this one does, the oracle is
 * computed exactly once.
 */

#include "control/globaldvs.hh"
#include "control/policy.hh"
#include "util/logging.hh"
#include "workload/suite.hh"

namespace mcd::control
{
namespace
{

class GlobalPolicy final : public Policy
{
  public:
    const char *
    name() const override
    {
        return "global";
    }

    const char *
    description() const override
    {
        return "chip-wide DVS, all four domains at one frequency, "
               "matched to the off-line oracle's run time";
    }

    std::vector<ParamInfo>
    params() const override
    {
        return {
            ParamInfo::num(
                "d", DEFAULT_SLOWDOWN_PCT,
                "slowdown threshold of the off-line run whose time "
                "is matched",
                0.0, 1000.0),
        };
    }

    std::string
    contextKey(const PolicyContext &ctx) const override
    {
        // The off-line interval is part of the key because the
        // off-line run this policy matches depends on it.
        return strprintf("w%llu|i%llu",
                         (unsigned long long)ctx.productionWindow,
                         (unsigned long long)ctx.offlineInterval);
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const PolicyContext &ctx) const override
    {
        // Target: match the off-line algorithm's run time at the
        // same threshold d (Section 4.1).
        Outcome off = ctx.evaluate(
            bench, PolicySpec::of("offline").set("d", spec.num("d")));
        workload::Benchmark bm = workload::makeBenchmark(bench);
        GlobalDvsResult g = globalDvsMatch(
            bm.program, bm.ref, ctx.sim, ctx.power,
            ctx.productionWindow, static_cast<Tick>(off.timePs),
            /*iters=*/6, checkpointsFor(ctx, bench));
        Outcome res = runOutcome(g.run);
        res.globalFreq = g.freq;
        return res;
    }
};

} // namespace

MCD_REGISTER_POLICY(GlobalPolicy);

} // namespace mcd::control
