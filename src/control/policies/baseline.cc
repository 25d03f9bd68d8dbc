/**
 * @file
 * The MCD baseline policy: all domains at maximum frequency.  Every
 * other policy's metrics are computed relative to this run
 * (Section 4.1).
 *
 * It is also the off-line oracle's analysis run: the same
 * `Processor`, configuration, input and window, with a trace sink
 * that only reads commit records.  In exact mode a finished
 * `offline|<bench>` analysis therefore serves this cell without a
 * simulation (tests/test_policy.cc pins the identity).  The baseline
 * only looks: it never builds an analysis or waits on one in flight,
 * so a sweep with no off-line cell never pays for the shaker.
 */

#include "control/offline.hh"
#include "control/policy.hh"
#include "sim/processor.hh"
#include "workload/suite.hh"

namespace mcd::control
{
namespace
{

class BaselinePolicy final : public Policy
{
  public:
    const char *
    name() const override
    {
        return "baseline";
    }

    const char *
    description() const override
    {
        return "MCD baseline, all domains at maximum frequency";
    }

    bool
    relativeToBaseline() const override
    {
        return false;
    }

    Outcome
    run(const std::string &bench, const PolicySpec &,
        const PolicyContext &ctx) const override
    {
        // A sampled baseline runs on checkpoints; the analysis run is
        // always exact.
        if (!ctx.sim.sampling.sampled()) {
            if (auto analysis = finishedArtifact<OfflineAnalysis>(
                    ctx, "offline|" + bench))
                return runOutcome(analysis->run);
        }
        workload::Benchmark bm = workload::makeBenchmark(bench);
        sim::Processor proc(ctx.sim, ctx.power, bm.program, bm.ref);
        proc.setCheckpoints(checkpointsFor(ctx, bench));
        return runOutcome(proc.run(ctx.productionWindow));
    }

    bool
    makeTileController(const PolicySpec &, const PolicyContext &,
                       std::unique_ptr<sim::IntervalHook> *hook,
                       std::uint64_t *interval_instrs) const override
    {
        // Max speed needs no callbacks: a tile with no hook runs all
        // domains at the initial (maximum) frequency.
        hook->reset();
        *interval_instrs = 0;
        return true;
    }
};

} // namespace

MCD_REGISTER_POLICY(BaselinePolicy);

} // namespace mcd::control
