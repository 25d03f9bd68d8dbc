/**
 * @file
 * Tests for the open policy API: registry registration/lookup,
 * PolicySpec parse/print round-trips and error messages,
 * canonical-spec cache-key stability, schema defaults (unset
 * parameters fall back to documented defaults, never zero), and bad
 * specs surfacing from the Runner as catchable errors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "control/globaldvs.hh"
#include "control/offline.hh"
#include "control/policy.hh"
#include "exp/experiment.hh"
#include "sim/sampling.hh"
#include "util/text.hh"
#include "workload/spec.hh"
#include "workload/split.hh"
#include "workload/suite.hh"

#include "cache_key_util.hh"

using namespace mcd;
using control::Policy;
using control::PolicyRegistry;
using control::PolicySpec;
using exp::ExpConfig;
using exp::Outcome;
using exp::Runner;
using exp::SweepCell;

namespace
{

/** Small windows so a full policy set stays test-sized. */
ExpConfig
smallConfig()
{
    ExpConfig cfg;
    cfg.productionWindow = 8'000;
    cfg.analysisWindow = 8'000;
    cfg.offlineInterval = 4'000;
    return cfg;
}

/** Canonicalize a spec string; fails the test on error. */
std::string
canon(const std::string &text)
{
    PolicySpec spec;
    std::string err;
    EXPECT_TRUE(control::parseSpec(text, spec, err)) << err;
    EXPECT_TRUE(PolicyRegistry::instance().canonicalize(spec, err))
        << err;
    return spec.str();
}

/** The canonicalization error for a spec string (empty = success). */
std::string
canonError(const std::string &text)
{
    PolicySpec spec;
    std::string err;
    if (!control::parseSpec(text, spec, err))
        return err;
    if (!PolicyRegistry::instance().canonicalize(spec, err))
        return err;
    return "";
}

void
expectSameOutcome(const Outcome &a, const Outcome &b)
{
    EXPECT_DOUBLE_EQ(a.timePs, b.timePs);
    EXPECT_DOUBLE_EQ(a.energyNj, b.energyNj);
    EXPECT_DOUBLE_EQ(a.reconfigs, b.reconfigs);
    EXPECT_DOUBLE_EQ(a.overheadCycles, b.overheadCycles);
    EXPECT_DOUBLE_EQ(a.feCycles, b.feCycles);
    EXPECT_DOUBLE_EQ(a.dynReconfigPoints, b.dynReconfigPoints);
    EXPECT_DOUBLE_EQ(a.dynInstrPoints, b.dynInstrPoints);
    EXPECT_DOUBLE_EQ(a.staticReconfigPoints, b.staticReconfigPoints);
    EXPECT_DOUBLE_EQ(a.staticInstrPoints, b.staticInstrPoints);
    EXPECT_DOUBLE_EQ(a.tableBytes, b.tableBytes);
    EXPECT_DOUBLE_EQ(a.globalFreq, b.globalFreq);
    EXPECT_DOUBLE_EQ(a.metrics.slowdownPct, b.metrics.slowdownPct);
    EXPECT_DOUBLE_EQ(a.metrics.energySavingsPct,
                     b.metrics.energySavingsPct);
    EXPECT_DOUBLE_EQ(a.metrics.energyDelayImprovementPct,
                     b.metrics.energyDelayImprovementPct);
}

} // namespace

// ---------------------------------------------------------------- //
// Registry                                                         //
// ---------------------------------------------------------------- //

TEST(PolicyRegistry, BuiltinsAreRegistered)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    for (const char *name : {"baseline", "profile", "offline",
                             "online", "global", "hybrid"}) {
        const Policy *p = reg.find(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_STREQ(p->name(), name);
        EXPECT_STRNE(p->description(), "");
    }
}

TEST(PolicyRegistry, UnknownNameIsNull)
{
    EXPECT_EQ(PolicyRegistry::instance().find("nonesuch"), nullptr);
    EXPECT_EQ(PolicyRegistry::instance().find(""), nullptr);
}

TEST(PolicyRegistry, ListIsSortedAndComplete)
{
    std::vector<const Policy *> all =
        PolicyRegistry::instance().list();
    ASSERT_GE(all.size(), 6u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(std::string(all[i - 1]->name()),
                  std::string(all[i]->name()));
}

TEST(PolicyRegistry, OnlyBaselineIsAbsolute)
{
    // baseline is the reference every metric is computed against, so
    // it alone reports no baseline-relative metrics.
    for (const Policy *p : PolicyRegistry::instance().list())
        EXPECT_EQ(p->relativeToBaseline(),
                  std::string(p->name()) != "baseline");
}

// ---------------------------------------------------------------- //
// PolicySpec parse / print / canonicalize                          //
// ---------------------------------------------------------------- //

TEST(PolicySpec, ParsePrintRoundTrip)
{
    // parse -> canonicalize -> print -> parse -> canonicalize must
    // be the identity on the printed form.
    const char *inputs[] = {
        "baseline",
        "profile",
        "profile:d=5,mode=LFCP",
        "profile:mode=lfcp",
        "profile:mode=L+F+C+P,d=10",
        "offline:d=10",
        "online:aggr=1.5",
        "global",
        "hybrid:guard=0.05",
    };
    for (const char *in : inputs) {
        SCOPED_TRACE(in);
        std::string once = canon(in);
        EXPECT_EQ(canon(once), once);
    }
}

TEST(PolicySpec, CanonicalFormsArePinned)
{
    // The canonical string is the cache key's policy fragment; these
    // exact forms are load-bearing for cache hits across runs.  If
    // one changes, bump exp CACHE_VERSION.
    EXPECT_EQ(canon("baseline"), "baseline");
    EXPECT_EQ(canon("profile"), "profile:mode=LF,d=5.000");
    EXPECT_EQ(canon("profile:d=10,mode=lfcp"),
              "profile:mode=LFCP,d=10.000");
    EXPECT_EQ(canon("offline:d=10"), "offline:d=10.000");
    EXPECT_EQ(canon("online:aggr=1.5"), "online:aggr=1.500");
    EXPECT_EQ(canon("global"), "global:d=5.000");
    EXPECT_EQ(canon("hybrid"),
              "hybrid:mode=LF,d=5.000,guard=0.100,interval=2000.000");
}

TEST(PolicySpec, UnsetParamsTakeSchemaDefaultsNotZero)
{
    // The old SweepCell defaulted d to 0.0 while ExpConfig
    // documented 5.0; the schema is now the single authority.
    PolicySpec spec = PolicySpec::of("offline");
    std::string err;
    ASSERT_TRUE(PolicyRegistry::instance().canonicalize(spec, err))
        << err;
    EXPECT_DOUBLE_EQ(spec.num("d"), control::DEFAULT_SLOWDOWN_PCT);
    EXPECT_DOUBLE_EQ(spec.num("d"), 5.0);

    PolicySpec prof = PolicySpec::of("profile");
    ASSERT_TRUE(PolicyRegistry::instance().canonicalize(prof, err));
    EXPECT_DOUBLE_EQ(prof.num("d"), 5.0);
    EXPECT_EQ(prof.mode("mode"), core::ContextMode::LF);
}

TEST(PolicySpec, ProgrammaticBuildersMatchParsedText)
{
    EXPECT_EQ(PolicySpec::of("profile")
                  .set("mode", core::ContextMode::LFCP)
                  .set("d", 10.0)
                  .str(),
              "profile:mode=LFCP,d=10.000");
    EXPECT_EQ(PolicySpec::of("online").set("aggr", 1.5).str(),
              "online:aggr=1.500");
    // set() overwrites instead of duplicating.
    EXPECT_EQ(
        PolicySpec::of("offline").set("d", 2.0).set("d", 4.0).str(),
        "offline:d=4.000");
}

TEST(PolicySpec, BadSpecsReportUsefulErrors)
{
    auto expectError = [](const std::string &spec,
                          const std::string &substr) {
        std::string err = canonError(spec);
        EXPECT_NE(err.find(substr), std::string::npos)
            << "spec '" << spec << "': error '" << err
            << "' does not mention '" << substr << "'";
    };
    expectError("nonesuch", "unknown policy 'nonesuch'");
    expectError("nonesuch", "known:");
    expectError("offline:x=1", "no parameter 'x'");
    expectError("offline:x=1", "takes: d");
    expectError("baseline:d=1", "takes none");
    expectError("offline:d=abc", "'abc' is not a number");
    expectError("profile:mode=XY", "not a context mode");
    expectError("offline:d", "not of the form key=value");
    expectError("offline:d=1,d=2", "given twice");
    expectError("hybrid:interval=0", "out of range [1, 1e+12]");
    expectError("hybrid:interval=-1", "out of range");
    expectError("hybrid:interval=2000.4", "must be an integer");
    expectError("hybrid:guard=1.5", "out of range [0, 1]");
    expectError("offline:d=-3", "out of range");
    expectError("Offline", "bad policy spec");
    expectError("", "bad policy spec");
}

TEST(PolicySpec, ModeParsingAcceptsAllSpellings)
{
    core::ContextMode m;
    EXPECT_TRUE(control::parseContextMode("LFCP", m));
    EXPECT_EQ(m, core::ContextMode::LFCP);
    EXPECT_TRUE(control::parseContextMode("l+f+c+p", m));
    EXPECT_EQ(m, core::ContextMode::LFCP);
    EXPECT_TRUE(control::parseContextMode("f", m));
    EXPECT_EQ(m, core::ContextMode::F);
    EXPECT_FALSE(control::parseContextMode("LFX", m));
    EXPECT_FALSE(control::parseContextMode("", m));
}

// ---------------------------------------------------------------- //
// Cache keys                                                       //
// ---------------------------------------------------------------- //

TEST(PolicyCacheKey, CanonicalSpecIsTheKeyFragment)
{
    Runner runner(smallConfig());
    std::string key = runner.cacheKey(
        "gsm_decode", PolicySpec::of("offline").set("d", 10.0));
    // <tag><16-hex fingerprint>|<canonical policy spec>|<canonical
    // workload spec>|<context> — tag pinned in cache_key_util.hh.
    ASSERT_TRUE(testpins::hasCacheKeyTag(key)) << key;
    EXPECT_EQ(testpins::cacheKeyTail(key),
              "|offline:d=10.000|gsm_decode|w8000|i4000");
}

TEST(PolicyCacheKey, EquivalentSpecsShareOneKey)
{
    Runner runner(smallConfig());
    SweepCell a = SweepCell::of("mcf", "profile:d=10,mode=lf");
    SweepCell b = SweepCell::of(
        "mcf", PolicySpec::of("profile")
                   .set("mode", core::ContextMode::LF)
                   .set("d", 10.0));
    EXPECT_EQ(runner.cacheKey(a.bench, a.spec),
              runner.cacheKey(b.bench, b.spec));
}

TEST(PolicyCacheKey, ContextKnobsAndConfigChangeTheKey)
{
    ExpConfig base = smallConfig();
    Runner r1(base);
    ExpConfig interval = base;
    interval.offlineInterval = 2'000;
    Runner r2(interval);
    ExpConfig physics = base;
    physics.sim.singleClock = true;
    Runner r3(physics);

    PolicySpec off = PolicySpec::of("offline").set("d", 10.0);
    EXPECT_NE(r1.cacheKey("mcf", off), r2.cacheKey("mcf", off));
    EXPECT_NE(r1.cacheKey("mcf", off), r3.cacheKey("mcf", off));
    // The baseline does not depend on the off-line interval, so its
    // key must not change with it (no spurious cache misses).
    PolicySpec bl = PolicySpec::of("baseline");
    EXPECT_EQ(r1.cacheKey("mcf", bl), r2.cacheKey("mcf", bl));
}

TEST(PolicyCacheKey, CommaBearingKeysRoundTripThroughTheFileCache)
{
    // Canonical specs contain commas (profile:mode=LF,d=10.000), so
    // cache lines are parsed from the tail; a multi-parameter key
    // must survive a write/reload cycle and serve the cached value.
    std::string path = ::testing::TempDir() + "mcd_policy_cache.csv";
    std::remove(path.c_str());
    ExpConfig cfg = smallConfig();
    cfg.cacheFile = path;
    double t1 = 0.0;
    {
        Runner r(cfg);
        t1 = r.run("gsm_decode",
                   PolicySpec::of("profile").set("d", 10.0))
                 .timePs;
    }
    Runner reload(cfg);
    EXPECT_EQ(reload.loadedFromCache(), 2u);  // profile + baseline
    EXPECT_EQ(reload.rejectedCacheLines(), 0u);
    EXPECT_DOUBLE_EQ(
        reload
            .run("gsm_decode",
                 PolicySpec::of("profile").set("d", 10.0))
            .timePs,
        t1);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Bad specs at the Runner: one catchable error type                //
// ---------------------------------------------------------------- //

TEST(PolicyRunner, BadSpecsThrowAndTheRunnerKeepsServing)
{
    // A spec the registry or the parser rejects is a catchable
    // workload::SpecError on every entry point, never a process
    // exit, and it leaves the memo untouched.
    Runner r(smallConfig());
    EXPECT_THROW(r.run("gsm_decode", PolicySpec::of("nosuch")),
                 workload::SpecError);
    // The chip coordinator has its own spec registry
    // (chip::parseCoordSpec); as a policy it is unknown.
    EXPECT_THROW(r.run("gsm_decode", PolicySpec::of("chip-coord")),
                 workload::SpecError);
    EXPECT_THROW(r.cacheKey("gsm_decode",
                            PolicySpec::of("offline").set("x", 1.0)),
                 workload::SpecError);
    EXPECT_THROW(SweepCell::of("gsm_decode", "offline:d"),
                 workload::SpecError);
    EXPECT_EQ(r.memoHits(), 0u);
    EXPECT_EQ(r.memoMisses(), 0u);

    Outcome o = r.run("gsm_decode", PolicySpec::of("baseline"));
    EXPECT_GT(o.timePs, 0.0);
    EXPECT_EQ(r.memoMisses(), 1u);
    EXPECT_EQ(r.memoHits(), 0u);
}

// ---------------------------------------------------------------- //
// The hybrid policy (proof the registry is open)                   //
// ---------------------------------------------------------------- //

TEST(HybridPolicy, RunsDeterministicallyAndSweeps)
{
    ExpConfig cfg = smallConfig();
    Runner r1(cfg);
    Outcome a = r1.run("gsm_decode", PolicySpec::of("hybrid"));
    EXPECT_GT(a.timePs, 0.0);
    EXPECT_GT(a.energyNj, 0.0);
    Runner r2(cfg);
    Outcome b = r2.run("gsm_decode", PolicySpec::of("hybrid"));
    expectSameOutcome(a, b);

    // Sweepable like any registered policy, parameters included.
    Runner r3(cfg);
    std::vector<SweepCell> cells = {
        SweepCell::of("gsm_decode", "hybrid:guard=0.05,d=10"),
        SweepCell::of("adpcm_decode", "hybrid:mode=LFCP"),
    };
    std::vector<Outcome> out = r3.runSweep(cells, 2);
    ASSERT_EQ(out.size(), 2u);
    for (const Outcome &o : out)
        EXPECT_GT(o.timePs, 0.0);
}

TEST(HybridPolicy, SharesTheProfilePlanButNotTheOutcomeKey)
{
    // Same pipeline shape as profile, so static plan numbers match;
    // distinct cache keys keep the outcomes apart.
    ExpConfig cfg = smallConfig();
    Runner r(cfg);
    Outcome prof =
        r.run("mpeg2_decode", PolicySpec::of("profile").set("d", 10.0));
    Outcome hyb =
        r.run("mpeg2_decode", PolicySpec::of("hybrid").set("d", 10.0));
    EXPECT_DOUBLE_EQ(prof.staticReconfigPoints,
                     hyb.staticReconfigPoints);
    EXPECT_DOUBLE_EQ(prof.staticInstrPoints, hyb.staticInstrPoints);
    EXPECT_NE(r.cacheKey("mpeg2_decode",
                         PolicySpec::of("profile").set("d", 10.0)),
              r.cacheKey("mpeg2_decode",
                         PolicySpec::of("hybrid").set("d", 10.0)));
}

// ---------------------------------------------------------------- //
// The global policy's full-speed probe                             //
// ---------------------------------------------------------------- //

namespace
{

/** globalDvsMatch's own full-speed probe, every domain jumped to
 *  maxMhz before t=0: an unreachable target returns that first run. */
Outcome
fullSpeedProbe(const ExpConfig &cfg, const std::string &bench)
{
    workload::Benchmark bm = workload::makeBenchmark(bench);
    control::GlobalDvsResult g = control::globalDvsMatch(
        bm.program, bm.ref, cfg.sim, cfg.power, cfg.productionWindow,
        /*target_time_ps=*/1, /*iters=*/6,
        control::checkpointsFor(exp::policyContext(cfg), bench));
    return control::runOutcome(g.run);
}

/** The Outcome fields a raw run fills in, compared bit for bit. */
void
expectSameRun(const Outcome &a, const Outcome &b, const std::string &what)
{
    EXPECT_EQ(a.timePs, b.timePs) << what;
    EXPECT_EQ(a.energyNj, b.energyNj) << what;
    EXPECT_EQ(a.reconfigs, b.reconfigs) << what;
    EXPECT_EQ(a.timeCiPs, b.timeCiPs) << what;
    EXPECT_EQ(a.energyCiNj, b.energyCiNj) << what;
}

} // namespace

TEST(GlobalPolicy, FullSpeedProbeIsTheBaselineCellExact)
{
    // global serves its bisection's full-speed probe from the
    // memoized baseline cell.  The probe jumps every domain to maxMhz
    // before t=0, which drops each clock's first jitter draw, so the
    // two runs are equal by measurement, not by construction: pin it
    // on every suite and holdout workload.
    ExpConfig cfg;
    cfg.productionWindow = 15'000;
    Runner r(cfg);
    std::vector<std::string> names = workload::suiteNames();
    for (const std::string &h : workload::holdoutSplit())
        names.push_back(h);
    for (const std::string &name : names)
        expectSameRun(fullSpeedProbe(cfg, name),
                      r.run(name, PolicySpec::of("baseline")), name);
}

TEST(GlobalPolicy, FullSpeedProbeIsTheBaselineCellSampled)
{
    ExpConfig cfg;
    cfg.productionWindow = 15'000;
    cfg.sim.sampling = sim::parseSamplingSpec(
        "sampled:interval=4000,sample=600,warmup=400");
    Runner r(cfg);
    for (const char *name : {"gsm_decode", "mcf"})
        expectSameRun(fullSpeedProbe(cfg, name),
                      r.run(name, PolicySpec::of("baseline")), name);
}

TEST(GlobalPolicy, FreshRunnerComputesTheBaselineOnce)
{
    // Outcomes pinned from the simulator that still re-ran the
    // full-speed probe: d=10 bisects to 871 MHz, d=0 stays at full
    // speed and so returns the baseline cell itself.
    struct Pin
    {
        const char *spec;
        double timePs, energyNj, globalFreq;
    };
    const Pin pins[] = {
        {"global:d=10", 23290589, 28775.297012802708, 871.09375},
        {"global:d=0", 21918014, 34589.142519988811, 1000},
    };
    ExpConfig cfg;
    cfg.productionWindow = 15'000;
    cfg.analysisWindow = 15'000;
    for (const Pin &pin : pins) {
        Runner r(cfg);
        Outcome o = r.run("gsm_decode",
                          control::canonicalPolicySpec(pin.spec));
        EXPECT_EQ(o.timePs, pin.timePs) << pin.spec;
        EXPECT_EQ(o.energyNj, pin.energyNj) << pin.spec;
        EXPECT_EQ(o.globalFreq, pin.globalFreq) << pin.spec;
        EXPECT_EQ(o.reconfigs, 0.0) << pin.spec;
        // Three cells compute: global, its off-line target and the
        // baseline.  The baseline is then looked up twice, as the
        // full-speed probe and for global's metrics.
        EXPECT_EQ(r.memoMisses(), 3u) << pin.spec;
        EXPECT_EQ(r.memoHits(), 2u) << pin.spec;
    }
}

// ---------------------------------------------------------------- //
// The off-line oracle's analysis run                               //
// ---------------------------------------------------------------- //

namespace
{

/** Every RunResult field, to 17 digits. */
std::string
runFields(const sim::RunResult &r)
{
    std::string s;
    auto put = [&](const char *name, double v) {
        s += ' ';
        s += name;
        s += '=';
        s += util::fmtDouble17(v);
    };
    put("timePs", static_cast<double>(r.timePs));
    put("chipEnergyNj", r.chipEnergyNj);
    put("dramEnergyNj", r.dramEnergyNj);
    put("instrs", static_cast<double>(r.instrs));
    put("feCycles", static_cast<double>(r.feCycles));
    put("ipc", r.ipc);
    put("branches", static_cast<double>(r.branches));
    put("mispredicts", static_cast<double>(r.mispredicts));
    put("l1dAccesses", static_cast<double>(r.l1dAccesses));
    put("l1dMisses", static_cast<double>(r.l1dMisses));
    put("l2Misses", static_cast<double>(r.l2Misses));
    put("icacheMisses", static_cast<double>(r.icacheMisses));
    put("dramAccesses", static_cast<double>(r.dramAccesses));
    put("reconfigs", static_cast<double>(r.reconfigs));
    put("overheadCycles", static_cast<double>(r.overheadCycles));
    put("ffEdges", static_cast<double>(r.ffEdges));
    put("sampled", r.sampled ? 1.0 : 0.0);
    put("sampleIntervals", static_cast<double>(r.sampleIntervals));
    put("skippedInstrs", static_cast<double>(r.skippedInstrs));
    put("timeCiPs", static_cast<double>(r.timeCiPs));
    put("energyCiNj", r.energyCiNj);
    for (double f : r.avgFreq)
        put("avgFreq", f);
    for (double e : r.domainEnergyNj)
        put("domainEnergyNj", e);
    return s;
}

} // namespace

TEST(OfflinePolicy, AnalysisRunIsTheBaselineRunExact)
{
    // The baseline policy serves its cell from a finished off-line
    // analysis, so the analysis run must be the plain full-speed run
    // in every field: its trace sink only reads commit records.  Pin
    // it on every suite and holdout workload.
    ExpConfig cfg;
    cfg.productionWindow = 15'000;
    control::OfflineConfig oc;
    oc.intervalInstrs = cfg.offlineInterval;
    std::vector<std::string> names = workload::suiteNames();
    for (const std::string &h : workload::holdoutSplit())
        names.push_back(h);
    for (const std::string &name : names) {
        workload::Benchmark bm = workload::makeBenchmark(name);
        sim::Processor plain(cfg.sim, cfg.power, bm.program, bm.ref);
        std::string want = runFields(plain.run(cfg.productionWindow));
        control::OfflineAnalysis a = control::offlineHistograms(
            oc, bm.program, bm.ref, cfg.sim, cfg.power,
            cfg.productionWindow);
        EXPECT_EQ(runFields(a.run), want) << name;
    }
}
