/**
 * @file
 * Tests for the all-policy tournament (exp/tournament.hh): roster
 * construction (every registered policy), the pinned train/holdout
 * workload split, cell-key plan determinism, a golden ranked table
 * on a pinned 3-policy x 2-workload cross-product, `--jobs`
 * byte-identity, and the constructor's refusals (malformed specs,
 * empty plans, unknown policies, sampled-mode runners).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "control/policy.hh"
#include "exp/experiment.hh"
#include "exp/tournament.hh"
#include "workload/spec.hh"
#include "workload/split.hh"

#include "cache_key_util.hh"

using namespace mcd;
using exp::ExpConfig;
using exp::Runner;
using exp::Tournament;
using exp::TournamentConfig;
using exp::TournamentResult;
using workload::SpecError;

namespace
{

/** Small windows so a pinned cross-product stays test-sized. */
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

/** The pinned 3-policy x 2-workload cross-product the golden-table
 *  and jobs-identity tests share. */
TournamentConfig
pinnedConfig()
{
    TournamentConfig cfg;
    cfg.policies = {"baseline", "global", "offline:d=10"};
    cfg.workloads = {"gsm_decode", "gen:phases=2,seed=7"};
    return cfg;
}

} // namespace

// ---------------------------------------------------------------- //
// The workload split                                               //
// ---------------------------------------------------------------- //

TEST(TournamentSplit, MembershipIsPinned)
{
    // The split IS the experiment: heuristics were hand-tuned on the
    // curated suite, so the held-out `gen:` workloads are the only
    // honest ground for the learned policy's ranking.  Changing
    // membership silently would invalidate every committed ranking.
    EXPECT_EQ(workload::trainingSplit(),
              (std::vector<std::string>{"gsm_decode", "adpcm_decode",
                                        "gsm_encode", "mcf"}));
    ASSERT_EQ(workload::holdoutSplit().size(), 3u);
    for (const std::string &w : workload::holdoutSplit())
        EXPECT_EQ(w.rfind("gen:", 0), 0u) << w;

    std::vector<std::string> all = workload::tournamentWorkloads();
    ASSERT_EQ(all.size(), 7u);
    EXPECT_TRUE(std::equal(workload::trainingSplit().begin(),
                           workload::trainingSplit().end(),
                           all.begin()));
}

// ---------------------------------------------------------------- //
// Plan construction                                                //
// ---------------------------------------------------------------- //

TEST(TournamentPlan, DefaultRosterIsEverySweepablePolicy)
{
    Runner runner(smallConfig());
    Tournament t(runner);

    std::vector<std::string> names;
    for (const std::string &spec : t.policies())
        names.push_back(spec.substr(0, spec.find(':')));
    for (const char *want : {"baseline", "global", "hybrid",
                             "learned", "offline", "online",
                             "profile"})
        EXPECT_NE(std::find(names.begin(), names.end(), want),
                  names.end())
            << want;
    // The chip coordinator is not a policy, so it cannot join.
    EXPECT_EQ(std::find(names.begin(), names.end(), "chip-coord"),
              names.end());
    EXPECT_TRUE(std::is_sorted(t.policies().begin(),
                               t.policies().end()));

    EXPECT_EQ(t.oracle(), "offline:d=10.000");
    EXPECT_EQ(t.workloads().size(),
              workload::tournamentWorkloads().size());
}

TEST(TournamentPlan, CellKeysAreDeterministicAndTagged)
{
    Runner runner(smallConfig());
    Tournament t(runner, pinnedConfig());
    std::vector<std::string> keys = t.cellKeys();
    // oracle cells (one per workload) + 3 policies x 2 workloads
    ASSERT_EQ(keys.size(), 2u + 3u * 2u);
    for (const std::string &k : keys)
        EXPECT_TRUE(testpins::hasCacheKeyTag(k)) << k;
    EXPECT_EQ(keys, Tournament(runner, pinnedConfig()).cellKeys());
    // The oracle rows lead the plan.
    EXPECT_NE(keys[0].find("|offline:d=10.000|"), std::string::npos);
}

TEST(TournamentPlan, MalformedPlansDieInTheConstructor)
{
    Runner runner(smallConfig());

    TournamentConfig cfg;
    cfg.oracle = "nonesuch";
    EXPECT_THROW(Tournament(runner, cfg), SpecError);

    cfg = TournamentConfig();
    cfg.policies = {"offline:warp=1"};
    EXPECT_THROW(Tournament(runner, cfg), SpecError);

    cfg = TournamentConfig();
    cfg.workloads = {"gen:warp=9"};
    EXPECT_THROW(Tournament(runner, cfg), SpecError);

    // Naming the chip coordinator as a policy is refused like any
    // unknown policy, not silently dropped.
    cfg = TournamentConfig();
    cfg.policies = {"chip-coord"};
    EXPECT_THROW(Tournament(runner, cfg), SpecError);
}

TEST(TournamentPlan, SampledRunnersAreRefused)
{
    ExpConfig cfg = smallConfig();
    cfg.sim.sampling.mode = sim::SamplingMode::Sampled;
    cfg.sim.sampling.intervalInstrs = 4'000;
    cfg.sim.sampling.sampleInstrs = 600;
    cfg.sim.sampling.warmupInstrs = 200;
    Runner runner(cfg);
    // The roster holds feedback controllers whose decisions diverge
    // under sampling (docs/SAMPLING.md); a mixed-trust ranking is
    // worse than none.
    EXPECT_THROW(Tournament t(runner), SpecError);
}

// ---------------------------------------------------------------- //
// Results                                                          //
// ---------------------------------------------------------------- //

TEST(TournamentRun, GoldenRankedTable)
{
    Runner runner(smallConfig());
    TournamentResult r = Tournament(runner, pinnedConfig()).run(1);

    ASSERT_EQ(r.ranking.size(), 3u);
    EXPECT_EQ(r.holdoutCount, 1u);
    // Structural invariants of any ranking: ascending regret, the
    // oracle's own row at zero regret, the baseline's regret equal to
    // the oracle's gain.
    EXPECT_LE(r.ranking[0].meanRegretPct, r.ranking[1].meanRegretPct);
    EXPECT_LE(r.ranking[1].meanRegretPct, r.ranking[2].meanRegretPct);
    EXPECT_EQ(r.ranking[0].policy, "offline:d=10.000");
    EXPECT_DOUBLE_EQ(r.ranking[0].meanRegretPct, 0.0);
    for (const exp::TournamentRow &row : r.ranking) {
        ASSERT_EQ(row.cells.size(), 2u);
        EXPECT_EQ(row.cells[0].workload, "gsm_decode");
        EXPECT_FALSE(row.cells[0].holdout);
        EXPECT_TRUE(row.cells[1].holdout);
        if (row.policy == "baseline") {
            EXPECT_DOUBLE_EQ(
                row.meanRegretPct,
                (r.ranking[0].cells[0]
                     .outcome.metrics.energyDelayImprovementPct +
                 r.ranking[0].cells[1]
                     .outcome.metrics.energyDelayImprovementPct) /
                    2.0);
        }
    }

    // The rendered table is the deliverable bench_tournament prints
    // and CI's rank-stability gate diffs; pin it byte-for-byte.
    // (Every constituent simulation is bit-deterministic, so these
    // exact bytes are reproducible on any host.)
    const char *golden =
        "policy tournament: regret vs offline:d=10.000 over 2 "
        "workloads (1 held-out gen:)\n"
        "rank            policy  regret %  holdout regret %  "
        "ExD gain %  slowdown %\n"
        "-----------------------------------------------------"
        "---------------------\n"
        "1     offline:d=10.000      0.00              0.00   "
        "    24.99        6.97\n"
        "2       global:d=5.000     17.89             17.54   "
        "     7.09        2.82\n"
        "3             baseline     24.99             25.39   "
        "     0.00        0.00\n";
    EXPECT_EQ(exp::renderTournamentTable(r), golden);
}

TEST(TournamentRun, JobsDoNotChangeTheBytes)
{
    Runner r1(smallConfig());
    TournamentResult serial =
        Tournament(r1, pinnedConfig()).run(1);
    Runner r4(smallConfig());
    TournamentResult threaded =
        Tournament(r4, pinnedConfig()).run(4);
    EXPECT_EQ(renderTournamentTable(serial),
              renderTournamentTable(threaded));
    ASSERT_EQ(serial.ranking.size(), threaded.ranking.size());
    for (std::size_t i = 0; i < serial.ranking.size(); ++i) {
        EXPECT_EQ(serial.ranking[i].policy,
                  threaded.ranking[i].policy);
        EXPECT_DOUBLE_EQ(serial.ranking[i].meanRegretPct,
                         threaded.ranking[i].meanRegretPct);
        EXPECT_DOUBLE_EQ(serial.ranking[i].holdoutRegretPct,
                         threaded.ranking[i].holdoutRegretPct);
    }
}
