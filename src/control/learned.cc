/**
 * @file
 * Implementation of the learned DVFS controller (control/learned.hh):
 * the per-domain linear model, the seeded exploration trainer, the
 * frozen production controller and the multi-pass training driver.
 */

#include "control/learned.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/processor.hh"
#include "workload/program.hh"

namespace mcd::control
{

namespace
{

/** IPC drop, as a fraction of the best recent interval IPC, that
 *  labels an action unsafe (training) or forces full speed
 *  (production).  Matches the hybrid guard's default operating
 *  point. */
constexpr double IPC_GUARD = 0.10;

/** Floor of explored/predicted frequency fractions: the controller
 *  never requests below 25% of the range on its own — the paper's
 *  hardware range itself bottoms out at minMhz, and exploring the
 *  extreme floor mostly teaches the guard, not the model. */
constexpr double FRACTION_FLOOR = 0.25;

/** Frequency moves smaller than this (MHz) are not written: an
 *  untrained model predicting full speed must produce a run
 *  bit-identical to the baseline, not a stream of no-op targets. */
constexpr double TARGET_EPS_MHZ = 0.5;

double
occupancyFraction(Domain d, const sim::IntervalStats &s,
                  const sim::SimConfig &sim)
{
    double occ = s.queueOcc[domainIndex(d)];
    double cap = 1.0;
    switch (d) {
    case Domain::FrontEnd:
        cap = sim.fetchQueueSize;
        break;
    case Domain::Integer:
        cap = sim.intIqSize;
        break;
    case Domain::FloatingPoint:
        cap = sim.fpIqSize;
        break;
    case Domain::Memory:
        cap = sim.lsqSize;
        break;
    default:
        break;
    }
    return cap > 0.0 ? std::clamp(occ / cap, 0.0, 1.0) : 0.0;
}

} // namespace

LearnedModel::LearnedModel()
{
    // Bias-only full-speed prediction: an untrained model is the
    // baseline by construction.
    for (auto &wd : w) {
        wd.fill(0.0);
        wd[0] = 1.0;
    }
}

double
LearnedModel::predict(Domain d, const LearnedFeatures &x) const
{
    const LearnedFeatures &wd = w[domainIndex(d)];
    double y = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        y += wd[i] * x[i];
    return std::clamp(y, 0.0, 1.0);
}

void
LearnedModel::update(Domain d, const LearnedFeatures &x,
                     double label, double lr)
{
    LearnedFeatures &wd = w[domainIndex(d)];
    double err = label - predict(d, x);
    for (std::size_t i = 0; i < x.size(); ++i)
        wd[i] += lr * err * x[i];
    ++samples;
}

std::uint64_t
LearnedModel::digest() const
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ (v & 0xffu)) * 1099511628211ULL;
            v >>= 8;
        }
    };
    for (const LearnedFeatures &wd : w)
        for (double v : wd) {
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(v));
            std::memcpy(&bits, &v, sizeof(bits));
            mix(bits);
        }
    mix(samples);
    return h;
}

LearnedFeatures
learnedFeatures(Domain d, const sim::IntervalStats &s,
                const sim::SimConfig &sim)
{
    LearnedFeatures x{};
    x[0] = 1.0;
    x[1] = occupancyFraction(d, s, sim);
    x[2] = sim.fetchWidth > 0
               ? std::clamp(s.ipc / sim.fetchWidth, 0.0, 1.0)
               : 0.0;
    x[3] = sim.robSize > 0
               ? std::clamp(s.robOcc / sim.robSize, 0.0, 1.0)
               : 0.0;
    return x;
}

LearnedTrainer::LearnedTrainer(LearnedModel *m,
                               const sim::SimConfig &sim,
                               const LearnedParams &p, Rng r)
    : model(m), simCfg(sim), params(p), rng(r), guard(IPC_GUARD)
{
}

void
LearnedTrainer::onInterval(const sim::IntervalStats &s,
                           sim::DvfsControl &ctl)
{
    // 1. Credit assignment for the previous interval's action: if
    //    IPC held within the guard of the best recent interval, the
    //    applied fraction was safe — regress toward it; if IPC
    //    collapsed, the domain needed full speed.  The trainer only
    //    labels: it never overrides, so it never relaxes the guard.
    bool collapsed = guard.collapsed(s.ipc);
    if (!first) {
        for (Domain d : scaledDomains()) {
            double label =
                collapsed ? 1.0 : prevAction[domainIndex(d)];
            model->update(d, prevFeat[domainIndex(d)], label,
                          params.lr);
        }
    }

    // 2. Pick this interval's per-domain actions: seeded exploration
    //    with probability `explore`, model prediction otherwise.
    //    One uniform draw per domain per interval, in domain order —
    //    the draw sequence (and so the whole trajectory) is a pure
    //    function of the seed.
    Mhz fMin = simCfg.minMhz;
    Mhz fMax = simCfg.maxMhz;
    for (Domain d : scaledDomains()) {
        LearnedFeatures x = learnedFeatures(d, s, simCfg);
        double gate = rng.uniform();
        double u;
        if (gate < params.explore)
            u = FRACTION_FLOOR +
                rng.uniform() * (1.0 - FRACTION_FLOOR);
        else
            u = std::max(model->predict(d, x), FRACTION_FLOOR);
        ctl.setTarget(d, fMin + u * (fMax - fMin));
        prevFeat[domainIndex(d)] = x;
        prevAction[domainIndex(d)] = u;
    }
    first = false;
}

LearnedController::LearnedController(const LearnedModel &m,
                                     const sim::SimConfig &sim)
    : model(m), simCfg(sim), fMin(sim.minMhz), fMax(sim.maxMhz),
      guard(IPC_GUARD)
{
}

void
LearnedController::onInterval(const sim::IntervalStats &s,
                              sim::DvfsControl &ctl)
{
    // IPC guard: a collapse forces every domain back to full speed
    // (the mpeg2/vpr situation the hybrid guard exists for).
    if (guard.collapsed(s.ipc)) {
        for (Domain d : scaledDomains())
            if (std::abs(ctl.targetFreq(d) - fMax) > TARGET_EPS_MHZ)
                ctl.setTarget(d, fMax);
        guard.relax();
        return;
    }

    for (Domain d : scaledDomains()) {
        LearnedFeatures x = learnedFeatures(d, s, simCfg);
        double u = std::max(model.predict(d, x), FRACTION_FLOOR);
        Mhz f = fMin + u * (fMax - fMin);
        if (std::abs(f - ctl.targetFreq(d)) > TARGET_EPS_MHZ)
            ctl.setTarget(d, f);
    }
}

LearnedModel
trainLearnedModel(const workload::Program &program,
                  const workload::InputSet &train,
                  const sim::SimConfig &sim,
                  const power::PowerConfig &power,
                  const LearnedConfig &cfg, const LearnedParams &params)
{
    LearnedModel model;
    if (cfg.trainWindow == 0 || cfg.trainPasses == 0)
        return model;

    // Training is an analysis run: it needs the full per-interval
    // feedback loop, so it forces exact mode regardless of the
    // harness sampling spec (docs/SAMPLING.md, "Analysis runs").
    sim::SimConfig exact = sim;
    exact.sampling = sim::SamplingConfig();

    Rng rng(params.seed);
    for (std::uint64_t pass = 0; pass < cfg.trainPasses; ++pass) {
        LearnedTrainer trainer(&model, exact, params, rng);
        sim::Processor proc(exact, power, program, train);
        proc.setIntervalHook(&trainer, params.intervalInstrs);
        proc.run(cfg.trainWindow);
        // Continue the exploration stream into the next pass.
        rng = trainer.takeRng();
    }
    return model;
}

} // namespace mcd::control
