/**
 * @file
 * The learned DVFS controller: an online per-domain regressor/bandit
 * trained on interval statistics (queue occupancies, IPC, ROB
 * pressure) harvested from seeded exploration runs of the *training*
 * input, then frozen and used to predict per-domain frequencies on
 * the production run.
 *
 * Training is bit-deterministic: exploration draws come from a
 * `mcd::Rng` seeded by the spec's `seed` knob, the training
 * trajectory is a pure function of (benchmark, SimConfig,
 * PowerConfig, LearnedConfig, spec knobs), and the model weights are
 * plain doubles updated in a fixed order — the same seed always
 * yields the same weights, the same production schedule and the same
 * outcome.  The harness-level training knobs (`LearnedConfig`) join
 * the experiment cache fingerprint under prefix `ln` (see
 * exp::configFingerprint and CACHE_VERSION v9), the per-run knobs
 * travel in the canonical spec text, so cached learned outcomes can
 * never be served across differing training regimes.
 */

#ifndef MCD_CONTROL_LEARNED_HH
#define MCD_CONTROL_LEARNED_HH

#include <array>
#include <cstdint>

#include "control/ipc_guard.hh"
#include "power/power.hh"
#include "sim/config.hh"
#include "sim/trace.hh"
#include "util/rng.hh"

namespace mcd::workload
{
struct Program;
struct InputSet;
} // namespace mcd::workload

namespace mcd::control
{

/**
 * Harness-level training knobs for the `learned` policy, set on
 * `exp::ExpConfig` (and mirrored into `PolicyContext`).  Every field
 * joins the experiment cache fingerprint (prefix `ln`): the training
 * regime shapes the learned weights and therefore every cached
 * learned outcome.
 */
struct LearnedConfig
{
    /**
     * Instructions simulated per training pass over the training
     * input.  0 disables training entirely: the untrained model
     * predicts full speed everywhere, so the policy degrades to the
     * MCD baseline instead of acting on garbage weights.
     */
    std::uint64_t trainWindow = 40'000;
    /** Training passes over the training input; the model carries
     *  its weights (and the exploration RNG stream) across passes. */
    std::uint64_t trainPasses = 2;
};

/** Feature vector length: bias, domain queue occupancy, IPC, ROB
 *  occupancy (all normalized to [0, 1]-ish ranges). */
constexpr int LEARNED_FEATURES = 4;

using LearnedFeatures = std::array<double, LEARNED_FEATURES>;

/** Per-run knobs carried in the canonical `learned:` spec text. */
struct LearnedParams
{
    std::uint64_t seed = 1;          ///< exploration RNG seed
    double lr = 0.08;                ///< SGD learning rate
    double explore = 0.25;           ///< exploration probability
    std::uint64_t intervalInstrs = 2'000;  ///< control interval
};

/**
 * Per-domain linear model mapping interval features to a frequency
 * fraction in [0, 1] of the [minMhz, maxMhz] range.  Initial weights
 * predict 1.0 (full speed) for every input, so an untrained model is
 * behaviorally the baseline.
 */
struct LearnedModel
{
    std::array<LearnedFeatures, NUM_SCALED_DOMAINS> w{};
    /** Training updates applied; 0 = untrained (baseline). */
    std::uint64_t samples = 0;

    LearnedModel();

    /** Predicted frequency fraction for @p d, clamped to [0, 1]. */
    double predict(Domain d, const LearnedFeatures &x) const;

    /** One SGD step toward @p label for domain @p d. */
    void update(Domain d, const LearnedFeatures &x, double label,
                double lr);

    /** FNV-1a over the weight bits and the sample count — the
     *  bit-identity fingerprint of a training trajectory. */
    std::uint64_t digest() const;

    bool trained() const { return samples > 0; }
};

/**
 * Normalized feature vector of domain @p d for one interval:
 * {1, occupancy(d)/capacity(d), ipc/fetchWidth, robOcc/robSize}.
 * The FrontEnd slot of `IntervalStats::queueOcc` carries fetch-queue
 * occupancy and is normalized by `SimConfig::fetchQueueSize`.
 */
LearnedFeatures learnedFeatures(Domain d,
                                const sim::IntervalStats &s,
                                const sim::SimConfig &sim);

/**
 * Training hook: each interval it (1) labels the previous interval's
 * action — the applied fraction if IPC held up, full speed if IPC
 * collapsed — and applies one SGD step per domain, then (2) picks
 * this interval's per-domain fractions (seeded exploration with
 * probability `explore`, model prediction otherwise) and programs
 * them.  All state is owned here; the model survives the run.
 */
class LearnedTrainer : public sim::IntervalHook
{
  public:
    LearnedTrainer(LearnedModel *model, const sim::SimConfig &sim,
                   const LearnedParams &params, Rng rng);

    void onInterval(const sim::IntervalStats &s,
                    sim::DvfsControl &ctl) override;

    /** The exploration RNG, handed back so multi-pass training
     *  continues one stream instead of replaying pass 1. */
    Rng takeRng() const { return rng; }

  private:
    LearnedModel *model;
    sim::SimConfig simCfg;
    LearnedParams params;
    Rng rng;
    std::array<LearnedFeatures, NUM_SCALED_DOMAINS> prevFeat{};
    std::array<double, NUM_SCALED_DOMAINS> prevAction{};
    IpcGuard guard;
    bool first = true;
};

/**
 * Production hook: predicts per-domain fractions from the frozen
 * model each interval, with the shared IPC guard (a collapse forces
 * full speed).  Frequency targets are only written when they move,
 * so an untrained model (predicting full speed) never reconfigures
 * and the run is bit-identical to the baseline.
 */
class LearnedController : public sim::IntervalHook
{
  public:
    LearnedController(const LearnedModel &model,
                      const sim::SimConfig &sim);

    void onInterval(const sim::IntervalStats &s,
                    sim::DvfsControl &ctl) override;

  private:
    LearnedModel model;
    sim::SimConfig simCfg;
    Mhz fMin;
    Mhz fMax;
    IpcGuard guard;
};

/**
 * Train a model on @p train: `cfg.trainPasses` exact-mode simulation
 * passes of `cfg.trainWindow` instructions each, under a
 * LearnedTrainer at `params.intervalInstrs`.  Deterministic for
 * fixed inputs; returns an untrained model when `cfg.trainWindow`
 * is 0.
 */
LearnedModel trainLearnedModel(const workload::Program &program,
                               const workload::InputSet &train,
                               const sim::SimConfig &sim,
                               const power::PowerConfig &power,
                               const LearnedConfig &cfg,
                               const LearnedParams &params);

} // namespace mcd::control

#endif // MCD_CONTROL_LEARNED_HH
