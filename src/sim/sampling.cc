/**
 * @file
 * The `--sample` spec grammar and the sampled-mode run loop:
 * detailed probes separated by functional skips, extrapolated to
 * whole-run time/energy with 95% confidence intervals.  See
 * docs/SAMPLING.md for the error model and sim/checkpoint.hh for the
 * functional-state machinery.
 */

#include "sim/sampling.hh"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/processor.hh"
#include "util/spec.hh"
#include "util/stats.hh"

namespace mcd::sim
{

namespace
{

/** The `--sample` modes, `exact` and `sampled`, as spec-engine
 *  kinds. */
class SamplingKind final : public util::SpecKind
{
  public:
    explicit SamplingKind(bool sampled) : sampled(sampled) {}

    const char *
    name() const override
    {
        return sampled ? "sampled" : "exact";
    }

    const char *
    description() const override
    {
        return sampled ? "detailed probes + functional warm-up"
                       : "detailed simulation of every instruction";
    }

    std::vector<util::SpecParamInfo>
    params() const override
    {
        if (!sampled)
            return {};
        using P = util::SpecParamInfo;
        const SamplingConfig def;
        return {
            P::count("interval", static_cast<double>(def.intervalInstrs),
                     "instructions per sampling interval", 1, 1e12),
            P::count("sample", static_cast<double>(def.sampleInstrs),
                     "detailed commits measured per interval", 1, 1e12),
            P::count("warmup", static_cast<double>(def.warmupInstrs),
                     "detailed commits discarded per probe", 1, 1e12),
            P::num("ci", def.ciBiasPct,
                   "CI floor, percent of the estimate", 0, 100),
        };
    }

  private:
    bool sampled;
};

const util::SpecRegistry &
samplingModes()
{
    static const util::SpecRegistry *modes = [] {
        auto *r = new util::SpecRegistry("sampling mode");
        r->add(std::make_unique<SamplingKind>(false));
        r->add(std::make_unique<SamplingKind>(true));
        return r;
    }();
    return *modes;
}

} // namespace

SamplingConfig
parseSamplingSpec(const std::string &text)
{
    std::string name;
    util::SpecParams params;
    std::string err;
    if (!util::splitSpec(text, "sampling spec", name, params, err))
        throw util::SpecError(err);
    samplingModes().canonicalize(name, params);

    SamplingConfig cfg;
    if (name == "exact")
        return cfg;
    cfg.mode = SamplingMode::Sampled;
    auto count = [&](const char *key) {
        return static_cast<std::uint64_t>(params.at(key).num);
    };
    cfg.intervalInstrs = count("interval");
    cfg.sampleInstrs = count("sample");
    cfg.warmupInstrs = count("warmup");
    cfg.ciBiasPct = params.at("ci").num;
    if (cfg.probeInstrs() >= cfg.intervalInstrs)
        throw util::SpecError(
            "bad sampling spec '" + text +
            "': warmup + sample must be smaller than interval (probe " +
            std::to_string(cfg.probeInstrs()) + " >= interval " +
            std::to_string(cfg.intervalInstrs) + ")");
    return cfg;
}

std::string
canonicalSamplingSpec(const SamplingConfig &cfg)
{
    if (!cfg.sampled())
        return "exact";
    util::SpecParams params;
    params.set("interval", static_cast<double>(cfg.intervalInstrs));
    params.set("sample", static_cast<double>(cfg.sampleInstrs));
    params.set("warmup", static_cast<double>(cfg.warmupInstrs));
    params.set("ci", cfg.ciBiasPct);
    samplingModes().canonicalize("sampled", params);
    return params.str("sampled");
}

// --- sampled run loop --------------------------------------------------

void
Processor::copyInFuncState(const FuncState &f)
{
    warm = f;
    // A holdover item from the previous probe's final fetch group
    // belongs to the discarded detailed trajectory; the functional
    // stream position is authoritative.
    haveHoldover = false;
}

void
Processor::deliverSkipMarker(const workload::Marker &m)
{
    if (!markerHandler)
        return;
    MarkerAction a = markerHandler->onMarker(m);
    // Only the persistent state effect of the action is applied
    // during a skip: frequency targets shape everything that follows.
    // Transient stall/energy costs of instrumentation are already
    // represented, at probe marker density, in the per-instruction
    // estimates the probes measure.
    if (a.reconfig)
        reconfigure(a.freqs);
}

RunResult
Processor::runSampled(std::uint64_t max_instrs)
{
    const SamplingConfig &sp = cfg.sampling;
    const std::uint64_t probe_len = sp.probeInstrs();

    // Degenerate geometry (rejected by parseSamplingSpec, but the
    // struct can be built directly): run exact.
    if (probe_len == 0 || sp.intervalInstrs <= probe_len) {
        beginRun(max_instrs);
        while (!runDone())
            stepEdge();
        return finishRun();
    }

    const CheckpointSet *cps = nullptr;
    if (checkpoints_ && checkpoints_->matches(sp, max_instrs))
        cps = checkpoints_.get();

    // Inline mode: walk the functional trajectory live.
    std::unique_ptr<FuncState> live;
    if (!cps)
        live = std::make_unique<FuncState>(cfg, program, input);

    auto add_deltas = [this](const FuncDeltas &d) {
        branches += d.branches;
        mispredicts += d.mispredicts;
        icacheMissCount += d.icacheMisses;
        l1dAccessCount += d.l1dAccesses;
        l1dMissCount += d.l1dMisses;
        l2MissCount += d.l2Misses;
        dramAccessCount += d.dramAccesses;
    };

    std::vector<double> cpi;       // ps per instr, per interval
    std::vector<double> epi_chip;  // nJ per instr, per interval
    std::vector<double> epi_dram;
    std::uint64_t k = 0;  // interval index


    for (;;) {
        std::uint64_t v = committedInstrs + skippedInstrs;
        if (v >= max_instrs)
            break;

        ProbeSlot slot = probeSlot(sp, k, max_instrs);
        std::uint64_t target = slot.start;
        std::uint64_t this_probe = slot.len;

        const FuncState *fs;
        if (cps) {
            if (k >= cps->points().size())
                break;
            const CheckpointSet::Point &pt = cps->points()[k];
            // Replay the recorded pre-skip span up to probe start.
            for (const CheckpointSet::SpanEvent &e :
                 pt.skipMarkers) {
                applyScheduleUpTo(e.index);
                deliverSkipMarker(e.marker);
            }
            skippedInstrs += pt.skipLen;
            add_deltas(pt.skipDeltas);
            applyScheduleUpTo(committedInstrs + skippedInstrs);
            if (pt.probeLen == 0)
                break;  // tail point: window or program end
            this_probe = pt.probeLen;
            fs = &pt.state;
        } else {
            // Functional pre-skip from v to the probe position.
            if (target > v) {
                std::uint64_t span_start = v;
                FuncDeltas sd = live->advance(
                    target - v, [&](const workload::Marker &mk,
                                    std::uint64_t idx) {
                        applyScheduleUpTo(span_start + idx);
                        deliverSkipMarker(mk);
                    });
                skippedInstrs += sd.instrs;
                add_deltas(sd);
                applyScheduleUpTo(committedInstrs + skippedInstrs);
                if (sd.instrs < target - span_start)
                    break;  // program ended inside the pre-skip
            }
            if (this_probe == 0)
                break;  // tail skip done
            fs = live.get();
        }
        if (fs->streamEnded)
            break;
        copyInFuncState(*fs);

        // --- detailed probe: warm-up commits, then measurement ---
        std::uint64_t probe_start = committedInstrs;
        std::uint64_t warm_target = probe_start + sp.warmupInstrs;
        bool measuring = this_probe > sp.warmupInstrs;
        beginRun(fetchedInstrs + this_probe);
        bool have0 = false;
        Tick t0 = 0;
        double e0_chip = 0.0;
        double e0_dram = 0.0;
        while (!runDone()) {
            stepEdge();
            if (measuring && !have0 &&
                committedInstrs >= warm_target) {
                // Fold parked domains' clock-tree energy up to now
                // so both snapshots see the same accounting state.
                kernel.syncStats();
                t0 = lastCommitTime;
                e0_chip = power_.chipEnergyNj();
                e0_dram = power_.dramEnergyNj();
                have0 = true;
            }
        }
        if (have0 && committedInstrs > warm_target) {
            kernel.syncStats();
            double dn =
                static_cast<double>(committedInstrs - warm_target);
            cpi.push_back(
                static_cast<double>(lastCommitTime - t0) / dn);
            epi_chip.push_back(
                (power_.chipEnergyNj() - e0_chip) / dn);
            epi_dram.push_back(
                (power_.dramEnergyNj() - e0_dram) / dn);
        }
        if (committedInstrs - probe_start < this_probe)
            break;  // program ran to completion inside the probe

        // Advance the live walk over the probe span (markers there
        // were delivered by the detailed probe); the next iteration's
        // pre-skip covers the rest of the interval.
        if (!cps)
            live->advance(this_probe, FuncState::MarkerFn{});
        applyScheduleUpTo(committedInstrs + skippedInstrs);
        ++k;
    }

    RunResult r = finishRun();
    r.sampled = true;
    r.sampleIntervals = cpi.size();
    r.skippedInstrs = skippedInstrs;
    r.instrs = committedInstrs + skippedInstrs;

    if (skippedInstrs > 0) {
        double skipped = static_cast<double>(skippedInstrs);
        MeanCi t_est = meanCi95(cpi);
        MeanCi ec_est = meanCi95(epi_chip);
        MeanCi ed_est = meanCi95(epi_dram);
        if (t_est.n == 0 && committedInstrs > 0) {
            // No probe completed a measurement span (tiny window):
            // fall back to the overall detailed averages.
            double dn = static_cast<double>(committedInstrs);
            t_est.mean = static_cast<double>(r.timePs) / dn;
            ec_est.mean = r.chipEnergyNj / dn;
            ed_est.mean = r.dramEnergyNj / dn;
        }
        double raw_chip = r.chipEnergyNj;
        r.timePs += static_cast<Tick>(
            std::llround(t_est.mean * skipped));
        r.chipEnergyNj += ec_est.mean * skipped;
        r.dramEnergyNj += ed_est.mean * skipped;
        // Per-domain energies scale with the chip total (the probes
        // fix the split; the extrapolation preserves it).
        if (raw_chip > 0.0) {
            double scale = r.chipEnergyNj / raw_chip;
            for (Domain d : scaledDomains())
                r.domainEnergyNj[domainIndex(d)] *= scale;
        }
        r.domainEnergyNj[domainIndex(Domain::External)] =
            r.dramEnergyNj;

        double bias = sp.ciBiasPct / 100.0;
        r.timeCiPs = static_cast<Tick>(std::llround(
            std::max(t_est.ci95 * skipped,
                     bias * static_cast<double>(r.timePs))));
        r.energyCiNj = std::max(ec_est.ci95 * skipped,
                                bias * r.chipEnergyNj);
    }
    return r;
}

} // namespace mcd::sim
