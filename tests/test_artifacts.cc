/**
 * @file
 * Tests for the runner's shared artifacts: the halves of the profile
 * pipeline (phases 1-2) and of the off-line oracle (its interval
 * histograms) that do not read d are built once per runner and shared
 * by every cell that derives them — a d grid, `profile` with
 * `hybrid`, and the two context modes of one call tree.  Sharing must be invisible in the outcomes: a shared
 * sweep equals the same cells each run on a fresh runner, and the
 * unshared library paths, at any thread count.  A counting probe
 * policy, registered in this test executable only, pins the store's
 * compute-once protocol: one build per key, separate builds for
 * distinct keys, and a throwing build that reaches every waiter and
 * is rebuilt on the next request.  A finding probe pins the find-only
 * look-up, which neither builds nor waits, and the baseline policy
 * must serve a finished off-line analysis run, and only in exact
 * mode.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/offline.hh"
#include "control/policy.hh"
#include "core/pipeline.hh"
#include "exp/experiment.hh"
#include "sim/sampling.hh"
#include "util/text.hh"
#include "workload/suite.hh"

using namespace mcd;
using control::PolicySpec;
using exp::ExpConfig;
using exp::Outcome;
using exp::Runner;
using exp::SweepCell;

namespace
{

/** The harness at `--window 15000` (which sets both windows). */
ExpConfig
w15000()
{
    ExpConfig cfg;
    cfg.productionWindow = 15'000;
    cfg.analysisWindow = 15'000;
    return cfg;
}

/** Every Outcome field, metrics included, to 17 digits. */
std::string
fields(const Outcome &o)
{
    std::string s;
    for (double v :
         {o.timePs, o.energyNj, o.reconfigs, o.overheadCycles,
          o.feCycles, o.dynReconfigPoints, o.dynInstrPoints,
          o.staticReconfigPoints, o.staticInstrPoints, o.tableBytes,
          o.globalFreq, o.timeCiPs, o.energyCiNj,
          o.metrics.slowdownPct, o.metrics.energySavingsPct,
          o.metrics.energyDelayImprovementPct}) {
        s += util::fmtDouble17(v);
        s += ' ';
    }
    return s;
}

/** The d grid: {2, 10, 20} x {offline, profile, hybrid} x two
 *  workloads, d innermost so later d's find the artifacts built. */
std::vector<SweepCell>
dGrid()
{
    std::vector<SweepCell> cells;
    for (const char *bench : {"gsm_decode", "gen:phases=3,seed=7"})
        for (const char *policy : {"offline:d=", "profile:mode=LF,d=",
                                   "hybrid:d="})
            for (const char *d : {"2", "10", "20"})
                cells.push_back(
                    SweepCell::of(bench, std::string(policy) + d));
    return cells;
}

// ---------------------------------------------------------------- //
// The counting probe                                               //
// ---------------------------------------------------------------- //

/** What the probe's builds did, shared with the test bodies. */
struct ProbeLog
{
    std::mutex m;
    std::condition_variable cv;
    std::map<std::string, int> builds;
    /** Requests that reached a probe's run(). */
    int entered = 0;
    /** A build waits (30 s at most) until this many have entered. */
    int gate = 0;
    /** While set, builds throw. */
    bool fail = false;

    int
    buildsOf(const std::string &key)
    {
        std::lock_guard<std::mutex> l(m);
        return builds[key];
    }

    void
    reset(bool failing, int gate_requests)
    {
        std::lock_guard<std::mutex> l(m);
        builds.clear();
        entered = 0;
        gate = gate_requests;
        fail = failing;
    }
};

ProbeLog probeLog;

/** The value a probe artifact holds. */
constexpr double PROBE_VALUE = 1000.0;

/** The probes' schema: the artifact key's mode, and d to tell
 *  cells apart. */
std::vector<control::ParamInfo>
probeParams()
{
    return {
        control::ParamInfo::text("mode", "LF", "artifact key mode",
                                 control::CONTEXT_MODE),
        control::ParamInfo::num("d", 5.0, "cell tag", 0.0, 1000.0),
    };
}

/** The probe artifact's key, `probe|<mode>|<bench>`. */
std::string
probeKey(const PolicySpec &spec, const std::string &bench)
{
    return std::string("probe|") +
           control::compactModeName(spec.mode("mode")) + '|' + bench;
}

/**
 * `artifact-probe:mode=...,d=...`: shares one artifact per (mode,
 * bench), `probe|<mode>|<bench>`, counting its builds; the outcome's
 * time is the artifact plus d, so distinct d's are distinct cells.
 */
class ArtifactProbePolicy final : public control::Policy
{
  public:
    const char *
    name() const override
    {
        return "artifact-probe";
    }

    const char *
    description() const override
    {
        return "test probe counting shared-artifact builds";
    }

    std::vector<control::ParamInfo>
    params() const override
    {
        return probeParams();
    }

    bool
    relativeToBaseline() const override
    {
        return false;
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const control::PolicyContext &ctx) const override
    {
        std::string key = probeKey(spec, bench);
        {
            std::lock_guard<std::mutex> l(probeLog.m);
            ++probeLog.entered;
        }
        probeLog.cv.notify_all();
        std::shared_ptr<const double> v =
            control::sharedArtifact<double>(ctx, key, [&] {
                std::unique_lock<std::mutex> l(probeLog.m);
                ++probeLog.builds[key];
                // Hold the build open until every racing request has
                // reached the probe, so the others find it in flight.
                probeLog.cv.wait_for(l, std::chrono::seconds(30), [] {
                    return probeLog.entered >= probeLog.gate;
                });
                if (probeLog.fail) {
                    // Give the requests that entered time to find
                    // this build in flight before it fails.
                    l.unlock();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    throw std::runtime_error("probe build failed");
                }
                return std::make_shared<const double>(PROBE_VALUE);
            });
        Outcome o;
        o.timePs = *v + spec.num("d");
        return o;
    }
};

MCD_REGISTER_POLICY(ArtifactProbePolicy);

/** The time of an `artifact-find` cell that found nothing. */
constexpr double NOT_FOUND = -1.0;

/**
 * `artifact-find:mode=...,d=...`: the find-only look-up of the
 * probe's artifact (control::finishedArtifact).  The outcome's time
 * is the artifact plus d, or NOT_FOUND; the request enters the probe
 * log only once its look-up returned.
 */
class ArtifactFindPolicy final : public control::Policy
{
  public:
    const char *
    name() const override
    {
        return "artifact-find";
    }

    const char *
    description() const override
    {
        return "test probe looking up the probe artifact, find-only";
    }

    std::vector<control::ParamInfo>
    params() const override
    {
        return probeParams();
    }

    bool
    relativeToBaseline() const override
    {
        return false;
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const control::PolicyContext &ctx) const override
    {
        std::shared_ptr<const double> v =
            control::finishedArtifact<double>(ctx, probeKey(spec, bench));
        {
            std::lock_guard<std::mutex> l(probeLog.m);
            ++probeLog.entered;
        }
        probeLog.cv.notify_all();
        Outcome o;
        o.timePs = v ? *v + spec.num("d") : NOT_FOUND;
        return o;
    }
};

MCD_REGISTER_POLICY(ArtifactFindPolicy);

/**
 * `training-find:mode=...`: the find-only look-up of the shared
 * training stored under `train|<mode>|<bench>`.  The outcome's time
 * is the trained tree's node count, or NOT_FOUND.
 */
class TrainingFindPolicy final : public control::Policy
{
  public:
    const char *
    name() const override
    {
        return "training-find";
    }

    const char *
    description() const override
    {
        return "test probe looking up a shared training, find-only";
    }

    std::vector<control::ParamInfo>
    params() const override
    {
        return probeParams();
    }

    bool
    relativeToBaseline() const override
    {
        return false;
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const control::PolicyContext &ctx) const override
    {
        std::shared_ptr<const core::TrainedProfile> t =
            control::finishedArtifact<core::TrainedProfile>(
                ctx, std::string("train|") +
                         control::compactModeName(spec.mode("mode")) +
                         '|' + bench);
        Outcome o;
        o.timePs = t ? static_cast<double>(t->tree.size()) : NOT_FOUND;
        return o;
    }
};

MCD_REGISTER_POLICY(TrainingFindPolicy);

std::vector<SweepCell>
probeCells(const char *mode, int first_d, int n)
{
    std::vector<SweepCell> cells;
    for (int d = first_d; d < first_d + n; ++d)
        cells.push_back(SweepCell::of(
            "gsm_decode", std::string("artifact-probe:mode=") + mode +
                              ",d=" + std::to_string(d)));
    return cells;
}

} // namespace

// ---------------------------------------------------------------- //
// (a) a shared d grid equals fresh runners                         //
// ---------------------------------------------------------------- //

TEST(SharedArtifacts, DGridEqualsFreshRunnersAtJobsOneAndFour)
{
    ExpConfig cfg = w15000();
    std::vector<SweepCell> cells = dGrid();
    std::vector<std::string> fresh;
    for (const SweepCell &c : cells) {
        Runner r(cfg);
        fresh.push_back(fields(r.run(c)));
    }
    for (unsigned jobs : {1u, 4u}) {
        Runner shared(cfg);
        std::vector<Outcome> out = shared.runSweep(cells, jobs);
        ASSERT_EQ(out.size(), cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) + ", " +
                         cells[i].bench + " " + cells[i].spec.str());
            EXPECT_EQ(fields(out[i]), fresh[i]);
        }
    }
}

TEST(SharedArtifacts, ContextModesTrainSeparately)
{
    // One training per (tree, bench): an F cell after an LF cell on
    // the same runner must not adopt the LF call tree.
    ExpConfig cfg = w15000();
    Runner shared(cfg);
    shared.run(SweepCell::of("gsm_decode", "profile:mode=LF,d=10"));
    Outcome f = shared.run(SweepCell::of("gsm_decode", "hybrid:mode=F"));
    Runner fresh(cfg);
    EXPECT_EQ(fields(f),
              fields(fresh.run(SweepCell::of("gsm_decode", "hybrid:mode=F"))));
}

TEST(SharedArtifacts, ModesOfOneTreeShareOneTraining)
{
    // L+F analyzes the L+F+P tree and F the F+P tree
    // (core::treeMode): the later cell of each pair adopts the
    // finished training of the earlier one, builds none of its own,
    // and equals the same cell on a fresh runner.
    ExpConfig cfg = w15000();
    Runner shared(cfg);
    const struct
    {
        const char *first;
        const char *later;
        const char *treeMode;
        const char *laterMode;
    } pairs[] = {
        {"profile:mode=LFP", "profile:mode=LF", "LFP", "LF"},
        {"profile:mode=FP", "hybrid:mode=F", "FP", "F"},
    };
    auto find = [&](const char *mode) {
        return shared
            .run(SweepCell::of("gsm_decode",
                               std::string("training-find:mode=") + mode))
            .timePs;
    };
    for (const auto &p : pairs) {
        SCOPED_TRACE(p.later);
        shared.run(SweepCell::of("gsm_decode", p.first));
        Outcome later = shared.run(SweepCell::of("gsm_decode", p.later));
        EXPECT_NE(find(p.treeMode), NOT_FOUND);
        EXPECT_EQ(find(p.laterMode), NOT_FOUND);
        Runner fresh(cfg);
        EXPECT_EQ(fields(later),
                  fields(fresh.run(SweepCell::of("gsm_decode", p.later))));
    }
}

// ---------------------------------------------------------------- //
// (b) shared cells equal the unshared library paths                //
// ---------------------------------------------------------------- //

TEST(SharedArtifacts, ProfileCellsEqualTheUnsharedPipeline)
{
    ExpConfig cfg = w15000();
    Runner r(cfg);
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    for (double d : {2.0, 10.0, 20.0}) {
        SCOPED_TRACE("d " + std::to_string(d));
        // After the first d the cell thresholds the runner's shared
        // training; the pipeline below trains afresh every time.
        Outcome o = r.run("gsm_decode", PolicySpec::of("profile")
                                            .set("mode", core::ContextMode::LF)
                                            .set("d", d));
        core::PipelineConfig pc;
        pc.mode = core::ContextMode::LF;
        pc.slowdownPct = d;
        pc.profile.maxInstrs = cfg.profileMaxInstrs;
        pc.analysisWindow = cfg.analysisWindow;
        core::ProfilePipeline pipe(bm.program, pc);
        pipe.train(bm.train, cfg.sim, cfg.power);
        core::RuntimeStats rt;
        sim::RunResult res = pipe.runProduction(
            bm.ref, cfg.sim, cfg.power, cfg.productionWindow, &rt);
        EXPECT_EQ(o.timePs, static_cast<double>(res.timePs));
        EXPECT_EQ(o.energyNj, res.chipEnergyNj);
        EXPECT_EQ(o.reconfigs, static_cast<double>(res.reconfigs));
        EXPECT_EQ(o.overheadCycles,
                  static_cast<double>(res.overheadCycles));
        EXPECT_EQ(o.feCycles, static_cast<double>(res.feCycles));
        EXPECT_EQ(o.dynReconfigPoints,
                  static_cast<double>(rt.dynReconfigPoints));
        EXPECT_EQ(o.dynInstrPoints,
                  static_cast<double>(rt.dynInstrPoints));
        EXPECT_EQ(o.staticReconfigPoints,
                  pipe.plan().staticReconfigPoints);
        EXPECT_EQ(o.staticInstrPoints, pipe.plan().staticInstrPoints);
        EXPECT_EQ(o.tableBytes,
                  static_cast<double>(pipe.plan().nextNodeTableBytes +
                                      pipe.plan().freqTableBytes));
    }
}

TEST(SharedArtifacts, OfflineCellsEqualTheUnsharedOracle)
{
    ExpConfig cfg = w15000();
    Runner r(cfg);
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    for (double d : {2.0, 10.0, 20.0}) {
        SCOPED_TRACE("d " + std::to_string(d));
        Outcome o =
            r.run("gsm_decode", PolicySpec::of("offline").set("d", d));
        control::OfflineConfig oc;
        oc.intervalInstrs = cfg.offlineInterval;
        oc.slowdownPct = d;
        sim::RunResult res =
            control::offlineRun(oc, bm.program, bm.ref, cfg.sim,
                                cfg.power, cfg.productionWindow);
        EXPECT_EQ(o.timePs, static_cast<double>(res.timePs));
        EXPECT_EQ(o.energyNj, res.chipEnergyNj);
        EXPECT_EQ(o.reconfigs, static_cast<double>(res.reconfigs));
    }
}

// ---------------------------------------------------------------- //
// (c) the compute-once protocol, seen through the probe            //
// ---------------------------------------------------------------- //

TEST(SharedArtifacts, RacingCellsBuildOncePerKey)
{
    probeLog.reset(/*failing=*/false, /*gate_requests=*/8);
    Runner r(w15000());
    std::vector<SweepCell> cells = probeCells("LF", 1, 8);
    std::vector<Outcome> out = r.runSweep(cells, 8);
    EXPECT_EQ(probeLog.buildsOf("probe|LF|gsm_decode"), 1);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)].timePs,
                  PROBE_VALUE + i + 1);
    // Eight distinct outcome cells, none served from the memo.
    EXPECT_EQ(r.memoMisses(), 8u);
    EXPECT_EQ(r.memoHits(), 0u);
}

TEST(SharedArtifacts, DistinctKeysBuildSeparately)
{
    probeLog.reset(/*failing=*/false, /*gate_requests=*/8);
    Runner r(w15000());
    std::vector<SweepCell> cells = probeCells("LF", 1, 4);
    std::vector<SweepCell> f = probeCells("F", 1, 4);
    cells.insert(cells.end(), f.begin(), f.end());
    r.runSweep(cells, 8);
    EXPECT_EQ(probeLog.buildsOf("probe|LF|gsm_decode"), 1);
    EXPECT_EQ(probeLog.buildsOf("probe|F|gsm_decode"), 1);
}

TEST(SharedArtifacts, ThrowingBuildReachesEveryWaiterAndIsRebuilt)
{
    const std::string key = "probe|LF|gsm_decode";
    probeLog.reset(/*failing=*/true, /*gate_requests=*/8);
    Runner r(w15000());
    std::vector<SweepCell> cells = probeCells("LF", 1, 8);
    // The requests share one exception object; it is read, and
    // released, only here after the joins.
    std::vector<std::exception_ptr> errors(cells.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < cells.size(); ++i)
        threads.emplace_back([&, i] {
            try {
                r.run(cells[i]);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        ASSERT_TRUE(errors[i]);
        try {
            std::rethrow_exception(errors[i]);
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "probe build failed");
        }
    }
    errors.clear();
    // Every request failed, but fewer built than failed: the others
    // were waiting on an in-flight build and received its exception.
    int failed_builds = probeLog.buildsOf(key);
    EXPECT_GE(failed_builds, 1);
    EXPECT_LT(failed_builds, 8);

    // The failure was not stored: the next request builds afresh,
    // and the request after that reuses what it built.
    {
        std::lock_guard<std::mutex> l(probeLog.m);
        probeLog.fail = false;
    }
    EXPECT_EQ(r.run(cells[0]).timePs, PROBE_VALUE + 1);
    EXPECT_EQ(probeLog.buildsOf(key), failed_builds + 1);
    EXPECT_EQ(r.run(cells[7]).timePs, PROBE_VALUE + 8);
    EXPECT_EQ(probeLog.buildsOf(key), failed_builds + 1);
}

TEST(SharedArtifacts, WithoutARunnerEveryRequestBuilds)
{
    probeLog.reset(/*failing=*/false, /*gate_requests=*/0);
    control::PolicyContext ctx = exp::policyContext(w15000());
    const control::Policy *probe =
        control::PolicyRegistry::instance().find("artifact-probe");
    ASSERT_NE(probe, nullptr);
    PolicySpec spec = control::canonicalPolicySpec("artifact-probe");
    EXPECT_EQ(probe->run("gsm_decode", spec, ctx).timePs,
              PROBE_VALUE + 5);
    EXPECT_EQ(probe->run("gsm_decode", spec, ctx).timePs,
              PROBE_VALUE + 5);
    EXPECT_EQ(probeLog.buildsOf("probe|LF|gsm_decode"), 2);
}

TEST(SharedArtifacts, FindOnlyLookupNeverBuildsOrWaits)
{
    const std::string key = "probe|LF|gsm_decode";
    // The build below is held open until three requests entered: its
    // own, and the two look-ups.
    probeLog.reset(/*failing=*/false, /*gate_requests=*/3);
    Runner r(w15000());
    EXPECT_EQ(r.run(SweepCell::of("gsm_decode", "artifact-find:d=1"))
                  .timePs,
              NOT_FOUND);
    EXPECT_EQ(probeLog.buildsOf(key), 0);

    Outcome built;
    std::thread builder([&] {
        built = r.run(SweepCell::of("gsm_decode", "artifact-probe:d=1"));
    });
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (probeLog.buildsOf(key) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(probeLog.buildsOf(key), 1);
    // The build is in flight and waits for this look-up to enter, so
    // a look-up that waited would only return when the build timed
    // out, with the value.
    EXPECT_EQ(r.run(SweepCell::of("gsm_decode", "artifact-find:d=2"))
                  .timePs,
              NOT_FOUND);
    builder.join();
    EXPECT_EQ(built.timePs, PROBE_VALUE + 1);

    EXPECT_EQ(r.run(SweepCell::of("gsm_decode", "artifact-find:d=3"))
                  .timePs,
              PROBE_VALUE + 3);
    EXPECT_EQ(probeLog.buildsOf(key), 1);
}

// ---------------------------------------------------------------- //
// (d) the baseline serves a finished off-line analysis run         //
// ---------------------------------------------------------------- //

namespace
{

/**
 * A single-threaded store with the Runner's protocol (a build runs
 * once per key, an empty build only looks) whose map a test can
 * plant artifacts in and read back.
 */
struct PlantedStore
{
    std::map<std::string, std::shared_ptr<const void>> values;

    control::PolicyContext
    context(const ExpConfig &cfg)
    {
        control::PolicyContext ctx = exp::policyContext(cfg);
        ctx.artifacts =
            [this](const std::string &key,
                   const std::function<std::shared_ptr<const void>()>
                       &build) -> std::shared_ptr<const void> {
            auto it = values.find(key);
            if (it != values.end())
                return it->second;
            if (!build)
                return nullptr;
            return values[key] = build();
        };
        return ctx;
    }
};

/** A finished `offline|` analysis whose run no simulation made. */
std::shared_ptr<const control::OfflineAnalysis>
sentinelAnalysis()
{
    auto a = std::make_shared<control::OfflineAnalysis>();
    a->run.timePs = 123'456'789;
    a->run.chipEnergyNj = 4321.0;
    return a;
}

/** The registered baseline policy run on @p bench in @p ctx. */
Outcome
runBaseline(const std::string &bench, const control::PolicyContext &ctx)
{
    const control::Policy *baseline =
        control::PolicyRegistry::instance().find("baseline");
    return baseline->run(bench, control::canonicalPolicySpec("baseline"),
                         ctx);
}

} // namespace

TEST(BaselineArtifact, ServesAFinishedAnalysisRun)
{
    PlantedStore store;
    store.values["offline|gsm_decode"] = sentinelAnalysis();
    Outcome o = runBaseline("gsm_decode", store.context(w15000()));
    // The sentinel came back: the baseline did not simulate.
    EXPECT_EQ(o.timePs, 123'456'789.0);
    EXPECT_EQ(o.energyNj, 4321.0);
}

TEST(BaselineArtifact, WithoutOneSimulatesAndBuildsNoAnalysis)
{
    ExpConfig cfg = w15000();
    PlantedStore store;
    Outcome o = runBaseline("gsm_decode", store.context(cfg));
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::Processor plain(cfg.sim, cfg.power, bm.program, bm.ref);
    sim::RunResult want = plain.run(cfg.productionWindow);
    EXPECT_EQ(o.timePs, static_cast<double>(want.timePs));
    EXPECT_EQ(o.energyNj, want.chipEnergyNj);
    EXPECT_EQ(store.values.count("offline|gsm_decode"), 0u);
    EXPECT_TRUE(store.values.empty());
}

TEST(BaselineArtifact, SampledModeIgnoresIt)
{
    // A sampled baseline runs on checkpoints; the analysis run is
    // exact, so it must not stand in.
    ExpConfig cfg = w15000();
    cfg.sim.sampling = sim::parseSamplingSpec(
        "sampled:interval=4000,sample=600,warmup=400");
    PlantedStore store;
    store.values["offline|gsm_decode"] = sentinelAnalysis();
    Outcome o = runBaseline("gsm_decode", store.context(cfg));
    Runner r(cfg);
    Outcome want = r.run("gsm_decode", PolicySpec::of("baseline"));
    EXPECT_NE(o.timePs, 123'456'789.0);
    EXPECT_EQ(o.timePs, want.timePs);
    EXPECT_EQ(o.energyNj, want.energyNj);
    EXPECT_EQ(o.timeCiPs, want.timeCiPs);
    EXPECT_EQ(o.energyCiNj, want.energyCiNj);
}
