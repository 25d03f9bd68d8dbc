/**
 * @file
 * The base of the policies built on the profile pipeline (`profile`,
 * `hybrid`, and any future pipeline-based policy): one schema for the
 * pipeline's parameters, one spec -> pipeline mapping over one shared
 * training per (mode, bench), one cache-key fragment and one Outcome
 * mapping, so the policies cannot silently diverge in what they run
 * or report.
 */

#ifndef MCD_CONTROL_POLICIES_PIPELINE_POLICY_HH
#define MCD_CONTROL_POLICIES_PIPELINE_POLICY_HH

#include <vector>

#include "control/policy.hh"
#include "core/pipeline.hh"
#include "util/logging.hh"
#include "workload/suite.hh"

namespace mcd::control
{

class PipelinePolicy : public Policy
{
  public:
    std::vector<ParamInfo>
    params() const override
    {
        return {
            ParamInfo::text(
                "mode", "LF",
                "calling-context definition (LFCP|LFP|FCP|FP|LF|F)",
                CONTEXT_MODE),
            ParamInfo::num(
                "d", DEFAULT_SLOWDOWN_PCT,
                "slowdown threshold, percent of baseline run time",
                0.0, 1000.0),
        };
    }

    std::string
    contextKey(const PolicyContext &ctx) const override
    {
        return strprintf("w%llu|a%llu",
                         (unsigned long long)ctx.productionWindow,
                         (unsigned long long)ctx.analysisWindow);
    }

  protected:
    /** The pipeline a canonical @p spec asks for. */
    static core::PipelineConfig
    pipelineConfig(const PolicySpec &spec, const PolicyContext &ctx)
    {
        core::PipelineConfig pc;
        pc.mode = spec.mode("mode");
        pc.slowdownPct = spec.num("d");
        pc.profile.maxInstrs = ctx.profileMaxInstrs;
        pc.analysisWindow = ctx.analysisWindow;
        return pc;
    }

    /**
     * The pipeline a canonical @p spec asks for on @p bm (the
     * canonical @p bench), thresholded and edited on the context's
     * shared training for the spec's mode (`train|<mode>|<bench>`):
     * every d, `profile` and `hybrid` alike, reuses one phase 1-2
     * run.
     */
    static core::ProfilePipeline
    trainedPipeline(const workload::Benchmark &bm,
                    const std::string &bench, const PolicySpec &spec,
                    const PolicyContext &ctx)
    {
        core::PipelineConfig pc = pipelineConfig(spec, ctx);
        core::ProfilePipeline pipe(bm.program, pc);
        pipe.adopt(sharedArtifact<core::TrainedProfile>(
            ctx,
            std::string("train|") + compactModeName(pc.mode) + '|' +
                bench,
            [&] {
                return std::make_shared<const core::TrainedProfile>(
                    core::trainProfile(bm.program, bm.train, pc,
                                       ctx.sim, ctx.power));
            }));
        return pipe;
    }

    /** A production run's outcome plus the trained plan's
     *  diagnostics. */
    static Outcome
    pipelineOutcome(const sim::RunResult &r,
                    const core::RuntimeStats &rt,
                    const core::ProfilePipeline &pipe)
    {
        Outcome res = runOutcome(r);
        res.overheadCycles = static_cast<double>(r.overheadCycles);
        res.feCycles = static_cast<double>(r.feCycles);
        res.dynReconfigPoints =
            static_cast<double>(rt.dynReconfigPoints);
        res.dynInstrPoints = static_cast<double>(rt.dynInstrPoints);
        res.staticReconfigPoints = pipe.plan().staticReconfigPoints;
        res.staticInstrPoints = pipe.plan().staticInstrPoints;
        res.tableBytes =
            static_cast<double>(pipe.plan().nextNodeTableBytes +
                                pipe.plan().freqTableBytes);
        return res;
    }
};

} // namespace mcd::control

#endif // MCD_CONTROL_POLICIES_PIPELINE_POLICY_HH
