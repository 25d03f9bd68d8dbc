/**
 * @file
 * Integration tests: the full profile pipeline end-to-end against
 * the paper's headline claims, on a subset of the suite small enough
 * for CI latency.
 */

#include <gtest/gtest.h>

#include "control/offline.hh"
#include "control/policy.hh"
#include "core/pipeline.hh"
#include "exp/experiment.hh"
#include "sim/processor.hh"
#include "util/spec.hh"
#include "util/stats.hh"
#include "workload/suite.hh"

using namespace mcd;
using namespace mcd::core;
using namespace mcd::sim;
using namespace mcd::workload;

namespace
{

SimConfig
expSim()
{
    SimConfig c;
    c.rampNsPerMhz = 2.2;
    return c;
}

} // namespace

TEST(Integration, ProfilePipelineSavesEnergyBoundedSlowdown)
{
    const std::uint64_t window = 80'000;
    for (const char *name : {"gsm_decode", "swim", "mcf"}) {
        Benchmark bm = makeBenchmark(name);
        SimConfig scfg = expSim();
        power::PowerConfig pcfg;

        Processor base(scfg, pcfg, bm.program, bm.ref);
        RunResult rb = base.run(window);

        PipelineConfig pc;
        pc.mode = ContextMode::LF;
        pc.slowdownPct = 8.0;
        ProfilePipeline pipe(bm.program, pc);
        pipe.train(bm.train, scfg, pcfg);
        RunResult rp = pipe.runProduction(bm.ref, scfg, pcfg, window);

        Metrics m = computeMetrics(static_cast<double>(rp.timePs),
                                   rp.chipEnergyNj,
                                   static_cast<double>(rb.timePs),
                                   rb.chipEnergyNj);
        EXPECT_GT(m.energySavingsPct, 5.0) << name;
        EXPECT_LT(m.slowdownPct, 25.0) << name;
        EXPECT_GT(m.energyDelayImprovementPct, 0.0) << name;
    }
}

TEST(Integration, ProfileMatchesOfflineClosely)
{
    // The paper's central claim: profile-driven reconfiguration
    // yields virtually the off-line oracle's improvement.
    const std::uint64_t window = 80'000;
    Benchmark bm = makeBenchmark("gsm_decode");
    SimConfig scfg = expSim();
    power::PowerConfig pcfg;

    Processor base(scfg, pcfg, bm.program, bm.ref);
    RunResult rb = base.run(window);

    control::OfflineConfig oc;
    oc.slowdownPct = 8.0;
    RunResult ro = control::offlineRun(oc, bm.program, bm.ref, scfg,
                                       pcfg, window);

    PipelineConfig pc;
    pc.mode = ContextMode::LF;
    pc.slowdownPct = 8.0;
    ProfilePipeline pipe(bm.program, pc);
    pipe.train(bm.train, scfg, pcfg);
    RunResult rp = pipe.runProduction(bm.ref, scfg, pcfg, window);

    Metrics moff = computeMetrics(static_cast<double>(ro.timePs),
                                  ro.chipEnergyNj,
                                  static_cast<double>(rb.timePs),
                                  rb.chipEnergyNj);
    Metrics mprof = computeMetrics(static_cast<double>(rp.timePs),
                                   rp.chipEnergyNj,
                                   static_cast<double>(rb.timePs),
                                   rb.chipEnergyNj);
    EXPECT_NEAR(mprof.energySavingsPct, moff.energySavingsPct, 6.0);
    EXPECT_NEAR(mprof.slowdownPct, moff.slowdownPct, 6.0);
}

TEST(Integration, TrainingTransfersAcrossInputs)
{
    // Training on the small input and producing on the large one
    // must stay close to training and producing on the same input.
    const std::uint64_t window = 80'000;
    Benchmark bm = makeBenchmark("jpeg_compress");
    SimConfig scfg = expSim();
    power::PowerConfig pcfg;

    Processor base(scfg, pcfg, bm.program, bm.ref);
    RunResult rb = base.run(window);

    auto run_with_training = [&](const InputSet &train) {
        PipelineConfig pc;
        pc.mode = ContextMode::LF;
        pc.slowdownPct = 8.0;
        ProfilePipeline pipe(bm.program, pc);
        pipe.train(train, scfg, pcfg);
        RunResult r = pipe.runProduction(bm.ref, scfg, pcfg, window);
        return computeMetrics(static_cast<double>(r.timePs),
                              r.chipEnergyNj,
                              static_cast<double>(rb.timePs),
                              rb.chipEnergyNj);
    };
    Metrics cross = run_with_training(bm.train);
    Metrics self = run_with_training(bm.ref);
    EXPECT_NEAR(cross.energySavingsPct, self.energySavingsPct, 5.0);
}

TEST(Integration, Mpeg2PathDivergence)
{
    // mpeg2 decode: L+F reconfigures on reference-only paths, the
    // path-tracking variant does not (Section 4.2) — so L+F must
    // execute at least as many reconfigurations.
    const std::uint64_t window = 80'000;
    Benchmark bm = makeBenchmark("mpeg2_decode");
    SimConfig scfg = expSim();
    power::PowerConfig pcfg;

    auto run_mode = [&](ContextMode mode) {
        PipelineConfig pc;
        pc.mode = mode;
        pc.slowdownPct = 8.0;
        ProfilePipeline pipe(bm.program, pc);
        pipe.train(bm.train, scfg, pcfg);
        RuntimeStats rt;
        pipe.runProduction(bm.ref, scfg, pcfg, window, &rt);
        return rt;
    };
    RuntimeStats lf = run_mode(ContextMode::LF);
    RuntimeStats lfp = run_mode(ContextMode::LFP);
    EXPECT_GE(lf.dynReconfigPoints, lfp.dynReconfigPoints);
}

TEST(Integration, HookWithZeroIntervalThrows)
{
    // A hook that would never fire is bad input, not a silent no-op.
    struct NoHook final : IntervalHook
    {
        void onInterval(const IntervalStats &, DvfsControl &) override {}
    };
    Benchmark bm = makeBenchmark("adpcm_decode");
    SimConfig scfg = expSim();
    power::PowerConfig pcfg;
    PipelineConfig pc;
    pc.profile.maxInstrs = 20'000;
    pc.analysisWindow = 5'000;
    ProfilePipeline pipe(bm.program, pc);
    pipe.train(bm.train, scfg, pcfg);
    NoHook hook;
    EXPECT_THROW(pipe.runProduction(bm.ref, scfg, pcfg, 5'000, nullptr,
                                    &hook, 0),
                 util::SpecError);
}

TEST(Integration, RunnerCachesConsistently)
{
    exp::ExpConfig cfg;
    cfg.productionWindow = 40'000;
    cfg.analysisWindow = 40'000;
    cfg.cacheFile.clear();
    exp::Runner runner(cfg);
    auto a = runner.run("adpcm_decode",
                        control::PolicySpec::of("offline").set("d", 6.0));
    auto b = runner.run("adpcm_decode",
                        control::PolicySpec::of("offline").set("d", 6.0));
    EXPECT_DOUBLE_EQ(a.timePs, b.timePs);
    EXPECT_DOUBLE_EQ(a.energyNj, b.energyNj);
    // Baseline metrics of the baseline itself are zero.
    auto base = runner.run("adpcm_decode",
                           control::PolicySpec::of("baseline"));
    EXPECT_GT(base.timePs, 0.0);
}

TEST(Integration, FileCacheRoundTrips)
{
    std::string path = "/tmp/mcd_test_cache_roundtrip.csv";
    std::remove(path.c_str());
    exp::ExpConfig cfg;
    cfg.productionWindow = 40'000;
    cfg.analysisWindow = 40'000;
    cfg.cacheFile = path;
    double t1 = 0.0, t2 = 0.0;
    {
        exp::Runner runner(cfg);
        t1 = runner.run("g721_decode",
                        control::PolicySpec::of("online").set(
                            "aggr", 1.0))
                 .timePs;
    }
    {
        exp::Runner runner(cfg);  // must hit the file cache
        t2 = runner.run("g721_decode",
                        control::PolicySpec::of("online").set(
                            "aggr", 1.0))
                 .timePs;
    }
    EXPECT_DOUBLE_EQ(t1, t2);
    std::remove(path.c_str());
}
