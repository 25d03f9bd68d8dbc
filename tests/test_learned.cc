/**
 * @file
 * Tests for the learned DVFS policy (control/learned.hh and
 * control/policies/learned.cc): bit-identical same-seed training
 * trajectories, seed/knob sensitivity of the trained weights, the
 * untrained model's baseline equivalence (trainWindow = 0 degrades
 * to the MCD baseline, not garbage), the pinned canonical cache-key
 * fragment, a regret-vs-oracle sanity bound, and the documented
 * refusal to run under sampled simulation (docs/SAMPLING.md).
 */

#include <gtest/gtest.h>

#include <string>

#include "control/learned.hh"
#include "control/policy.hh"
#include "exp/experiment.hh"
#include "workload/spec.hh"
#include "workload/suite.hh"

#include "cache_key_util.hh"

using namespace mcd;
using control::LearnedConfig;
using control::LearnedModel;
using control::LearnedParams;
using control::PolicySpec;
using exp::ExpConfig;
using exp::Outcome;
using exp::Runner;

namespace
{

/** Small windows so training + production stays test-sized. */
ExpConfig
smallConfig()
{
    ExpConfig cfg;
    cfg.productionWindow = 8'000;
    cfg.analysisWindow = 8'000;
    cfg.offlineInterval = 4'000;
    cfg.learned.trainWindow = 6'000;
    cfg.learned.trainPasses = 2;
    cfg.cacheFile.clear();
    return cfg;
}

/** Train a model on gsm_decode's training input under @p params. */
LearnedModel
trainOn(const LearnedParams &params,
        std::uint64_t window = 6'000, std::uint64_t passes = 2)
{
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::SimConfig sim;
    power::PowerConfig power;
    LearnedConfig cfg;
    cfg.trainWindow = window;
    cfg.trainPasses = passes;
    return control::trainLearnedModel(bm.program, bm.train, sim,
                                      power, cfg, params);
}

} // namespace

// ---------------------------------------------------------------- //
// Training determinism                                             //
// ---------------------------------------------------------------- //

TEST(LearnedTraining, SameSeedIsBitIdentical)
{
    LearnedParams params;
    LearnedModel a = trainOn(params);
    LearnedModel b = trainOn(params);
    ASSERT_TRUE(a.trained());
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.digest(), b.digest());
    // digest() hashes double bits; spell the strongest form out too.
    for (std::size_t d = 0; d < a.w.size(); ++d)
        for (std::size_t i = 0; i < a.w[d].size(); ++i)
            EXPECT_DOUBLE_EQ(a.w[d][i], b.w[d][i]) << d << "," << i;
}

TEST(LearnedTraining, DigestIsPinned)
{
    // digest() hashes the weight bits least significant byte first;
    // pinned so a change of hasher cannot move it.
    LearnedModel m;
    EXPECT_EQ(m.digest(), 0xa7a8ed558bd749e3ULL);
    m.update(Domain::Integer, {1.0, 0.5, 0.25, 0.125}, 0.25, 0.08);
    EXPECT_EQ(m.digest(), 0x9067c91033049818ULL);
}

TEST(LearnedTraining, SeedAndKnobsShapeTheTrajectory)
{
    LearnedParams base;
    LearnedModel ref = trainOn(base);

    LearnedParams seeded = base;
    seeded.seed = 2;
    EXPECT_NE(trainOn(seeded).digest(), ref.digest());

    LearnedParams rate = base;
    rate.lr = 0.16;
    EXPECT_NE(trainOn(rate).digest(), ref.digest());

    // More passes continue the same RNG stream, not replay pass 1.
    EXPECT_NE(trainOn(base, 6'000, 1).digest(), ref.digest());
}

TEST(LearnedTraining, UntrainedModelPredictsFullSpeed)
{
    LearnedModel m;
    EXPECT_FALSE(m.trained());
    // Bias-only weights: full speed whatever the interval looks like.
    control::LearnedFeatures busy = {1.0, 0.9, 0.1, 0.8};
    control::LearnedFeatures idle = {1.0, 0.0, 0.0, 0.0};
    for (Domain d : scaledDomains()) {
        EXPECT_DOUBLE_EQ(m.predict(d, busy), 1.0);
        EXPECT_DOUBLE_EQ(m.predict(d, idle), 1.0);
    }
    EXPECT_EQ(trainOn(LearnedParams{}, 0).samples, 0u);
}

// ---------------------------------------------------------------- //
// Harness integration                                              //
// ---------------------------------------------------------------- //

TEST(LearnedPolicy, CanonicalSpecAndCacheKeyArePinned)
{
    Runner runner(smallConfig());
    std::string key =
        runner.cacheKey("gsm_decode", PolicySpec::of("learned"));
    ASSERT_TRUE(testpins::hasCacheKeyTag(key)) << key;
    // The training regime (LearnedConfig) travels in the fingerprint
    // (prefix `ln`), not in this tail — changing it must still change
    // the key.
    EXPECT_EQ(testpins::cacheKeyTail(key),
              "|learned:seed=1.000,lr=0.080,explore=0.250,"
              "interval=2000.000|gsm_decode|w8000");

    ExpConfig regime = smallConfig();
    regime.learned.trainWindow = 12'000;
    EXPECT_NE(Runner(regime).cacheKey("gsm_decode",
                                      PolicySpec::of("learned")),
              key);
}

TEST(LearnedPolicy, SameSeedOutcomeIsReproducible)
{
    Outcome a = Runner(smallConfig())
                    .run("gsm_decode", PolicySpec::of("learned"));
    Outcome b = Runner(smallConfig())
                    .run("gsm_decode", PolicySpec::of("learned"));
    EXPECT_DOUBLE_EQ(a.timePs, b.timePs);
    EXPECT_DOUBLE_EQ(a.energyNj, b.energyNj);
    EXPECT_DOUBLE_EQ(a.metrics.energyDelayImprovementPct,
                     b.metrics.energyDelayImprovementPct);
}

TEST(LearnedPolicy, NoTrainingDataFallsBackToBaseline)
{
    ExpConfig cfg = smallConfig();
    cfg.learned.trainWindow = 0;
    Runner runner(cfg);
    Outcome learned =
        runner.run("gsm_decode", PolicySpec::of("learned"));
    Outcome baseline =
        runner.run("gsm_decode", PolicySpec::of("baseline"));
    // The untrained model predicts full speed and the controller only
    // writes targets that move, so the schedule is the baseline
    // schedule: identical time, zero reconfigs.  Energy agrees to
    // accumulation order — installing the interval hook changes the
    // order the per-cycle energy terms are summed in, which moves the
    // last ulp but nothing physical.
    EXPECT_DOUBLE_EQ(learned.timePs, baseline.timePs);
    EXPECT_NEAR(learned.energyNj, baseline.energyNj,
                1e-9 * baseline.energyNj);
    EXPECT_DOUBLE_EQ(learned.reconfigs, 0.0);
    EXPECT_DOUBLE_EQ(learned.metrics.slowdownPct, 0.0);
    EXPECT_NEAR(learned.metrics.energySavingsPct, 0.0, 1e-9);
}

TEST(LearnedPolicy, RegretAgainstOracleIsBounded)
{
    Runner runner(smallConfig());
    Outcome oracle = runner.run(
        "gsm_decode", PolicySpec::of("offline").set("d", 10.0));
    Outcome learned =
        runner.run("gsm_decode", PolicySpec::of("learned"));
    double regret = oracle.metrics.energyDelayImprovementPct -
                    learned.metrics.energyDelayImprovementPct;
    // Deterministic, so this is a pin more than a tolerance: the
    // trained controller must stay within shouting distance of the
    // offline oracle and must never *hurt* energy x delay by more
    // than the oracle gains.
    EXPECT_LT(regret, 50.0);
    EXPECT_GT(learned.metrics.energyDelayImprovementPct, -25.0);
}

TEST(LearnedPolicy, RefusesSampledSimulation)
{
    ExpConfig cfg = smallConfig();
    cfg.sim.sampling.mode = sim::SamplingMode::Sampled;
    cfg.sim.sampling.intervalInstrs = 4'000;
    cfg.sim.sampling.sampleInstrs = 600;
    cfg.sim.sampling.warmupInstrs = 200;
    Runner runner(cfg);
    // Feedback controllers diverge in decision space under sampling
    // (docs/SAMPLING.md); the learned policy must refuse loudly, with
    // the same catchable error the CLI reports.
    EXPECT_THROW(runner.run("gsm_decode", PolicySpec::of("learned")),
                 workload::SpecError);
}
