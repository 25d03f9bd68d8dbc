/**
 * @file
 * Property/fuzz tests for the spec parsers — the surfaces that now
 * accept bytes straight off a socket (the sweep server feeds
 * workload specs, policy specs and authored program text from the
 * wire into these exact entry points) or the command line
 * (`--sample`).
 *
 * Two properties, checked over a corpus and thousands of
 * deterministic mutations of it (the same xorshift mutation engine
 * as the server's fault injector, so failures replay):
 *
 *  1. Round-trip identity: parse -> print -> parse of a canonical
 *     spec is the identity, and canonicalization is idempotent.
 *  2. Totality: any mutated, truncated or random input either
 *     canonicalizes or fails *catchably* with `workload::SpecError`
 *     — policy, workload and sampling specs and program text alike.
 *     Nothing crashes, nothing throws anything else.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/policy.hh"
#include "exp/experiment.hh"
#include "exp/tournament.hh"
#include "faults.hh"
#include "sim/sampling.hh"
#include "workload/author.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"

using namespace mcd;
using workload::SpecError;

namespace
{

const std::vector<std::string> &
workloadCorpus()
{
    static const std::vector<std::string> corpus = {
        "gsm_decode",
        "adpcm_decode",
        "gzip",
        "gen:phases=4,mem=0.4,seed=7",
        "gen:seed=9",
        "gen:phases=2,depth=3,imbalance=0.8,refscale=2.0",
    };
    return corpus;
}

const std::vector<std::string> &
policyCorpus()
{
    static const std::vector<std::string> corpus = {
        "baseline",
        "offline:d=10",
        "online:aggr=1.5",
        "profile:mode=LF,d=10",
        "global:d=5",
        "learned",
        "learned:seed=3,lr=0.1",
        "learned:explore=0.5,interval=1000,seed=2",
    };
    return corpus;
}

const char *const kProgram = R"(
program: name=fuzz_prog, entry=main
input: set=train, seed=3, scale=1.0
input: set=ref, seed=4, scale=1.3
mix: id=a, load=0.3, branch=0.1, ws=1048576, stream=0.3
func: name=leaf
  block: mix=a, n=20
func: name=main
  loop: trips=6, scale=1.0
    block: mix=a, n=50
    call: f=leaf
  end
)";

/** Canonicalize or throw SpecError; any other escape fails the
 *  test at the call site. */
bool
tryCanonicalWorkload(const std::string &text, std::string *canon)
{
    try {
        std::string c = workload::canonicalWorkloadSpec(text);
        if (canon)
            *canon = c;
        return true;
    } catch (const SpecError &) {
        return false;
    }
}

bool
tryCanonicalPolicy(const std::string &text, std::string *canon)
{
    try {
        std::string c = control::canonicalPolicySpec(text).str();
        if (canon)
            *canon = c;
        return true;
    } catch (const SpecError &) {
        return false;
    }
}

bool
tryCanonicalSampling(const std::string &text, std::string *canon)
{
    try {
        std::string c =
            sim::canonicalSamplingSpec(sim::parseSamplingSpec(text));
        if (canon)
            *canon = c;
        return true;
    } catch (const SpecError &) {
        return false;
    }
}

bool
tryParseProgram(const std::string &text)
{
    try {
        workload::parseProgram(text);
        return true;
    } catch (const SpecError &) {
        return false;
    }
}

} // namespace

// ---------------------------------------------------------------- //
// Round-trip identity                                              //
// ---------------------------------------------------------------- //

TEST(SpecFuzz, WorkloadRoundTripIdentity)
{
    for (const std::string &text : workloadCorpus()) {
        std::string canon;
        ASSERT_TRUE(tryCanonicalWorkload(text, &canon)) << text;
        // Canonicalization is idempotent...
        std::string again;
        ASSERT_TRUE(tryCanonicalWorkload(canon, &again)) << canon;
        EXPECT_EQ(again, canon) << text;
        // ...and parse -> print -> parse is the identity.
        workload::WorkloadSpec spec;
        std::string err;
        ASSERT_TRUE(workload::parseWorkloadSpec(canon, spec, err))
            << err;
        EXPECT_EQ(spec.str(), canon) << text;
        workload::WorkloadSpec back;
        ASSERT_TRUE(
            workload::parseWorkloadSpec(spec.str(), back, err))
            << err;
        EXPECT_EQ(back.str(), canon) << text;
    }
}

TEST(SpecFuzz, PolicyRoundTripIdentity)
{
    for (const std::string &text : policyCorpus()) {
        std::string canon;
        ASSERT_TRUE(tryCanonicalPolicy(text, &canon)) << text;
        std::string again;
        ASSERT_TRUE(tryCanonicalPolicy(canon, &again)) << canon;
        EXPECT_EQ(again, canon) << text;
    }
}

TEST(SpecFuzz, ProgramRoundTripIdentity)
{
    workload::Benchmark bm = workload::parseProgram(kProgram);
    std::string canon = workload::printProgram(bm);
    EXPECT_EQ(workload::printProgram(workload::parseProgram(canon)),
              canon);
    // Content addressing sees through formatting: raw and canonical
    // text register under one handle.
    EXPECT_EQ(
        workload::WorkloadRegistry::instance().addProgram(kProgram),
        workload::WorkloadRegistry::instance().addProgram(canon));
}

// ---------------------------------------------------------------- //
// Totality under mutation                                          //
// ---------------------------------------------------------------- //

TEST(SpecFuzz, MutatedWorkloadSpecsNeverCrash)
{
    for (const std::string &text : workloadCorpus()) {
        for (std::uint32_t seed = 1; seed <= 300; ++seed) {
            srv::Fault f = (seed % 2) ? srv::Fault::GarbleFrame
                                      : srv::Fault::TruncateFrame;
            std::string mutated = srv::mutateLine(text, f, seed);
            SCOPED_TRACE("'" + mutated + "'");
            // Either outcome is fine; escaping with anything but
            // SpecError (or crashing) fails the test.
            tryCanonicalWorkload(mutated, nullptr);
        }
    }
}

TEST(SpecFuzz, TruncatedWorkloadSpecsNeverCrash)
{
    for (const std::string &text : workloadCorpus()) {
        for (std::size_t len = 0; len <= text.size(); ++len) {
            std::string prefix = text.substr(0, len);
            SCOPED_TRACE("'" + prefix + "'");
            tryCanonicalWorkload(prefix, nullptr);
        }
    }
}

TEST(SpecFuzz, MutatedPolicySpecsNeverCrash)
{
    for (const std::string &text : policyCorpus()) {
        for (std::uint32_t seed = 1; seed <= 300; ++seed) {
            srv::Fault f = (seed % 2) ? srv::Fault::GarbleFrame
                                      : srv::Fault::TruncateFrame;
            std::string mutated = srv::mutateLine(text, f, seed);
            SCOPED_TRACE("'" + mutated + "'");
            tryCanonicalPolicy(mutated, nullptr);
        }
        for (std::size_t len = 0; len <= text.size(); ++len)
            tryCanonicalPolicy(text.substr(0, len), nullptr);
    }
}

TEST(SpecFuzz, MutatedSamplingSpecsNeverCrashAndSurvivorsRoundTrip)
{
    int survivors = 0;
    for (const char *text :
         {"exact", "sampled",
          "sampled:interval=900,sample=100,warmup=50,ci=2.5"}) {
        for (std::uint32_t seed = 1; seed <= 300; ++seed) {
            srv::Fault f = (seed % 2) ? srv::Fault::GarbleFrame
                                      : srv::Fault::TruncateFrame;
            std::string mutated = srv::mutateLine(text, f, seed);
            SCOPED_TRACE("'" + mutated + "'");
            std::string canon;
            if (!tryCanonicalSampling(mutated, &canon))
                continue;
            ++survivors;
            std::string again;
            ASSERT_TRUE(tryCanonicalSampling(canon, &again)) << canon;
            EXPECT_EQ(again, canon);
        }
    }
    EXPECT_GT(survivors, 0);
}

TEST(SpecFuzz, RandomGarbageNeverCrashes)
{
    std::uint32_t state = 0xc0ffee17u;
    auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        return state;
    };
    for (int i = 0; i < 500; ++i) {
        std::string junk;
        std::size_t len = next() % 40;
        for (std::size_t j = 0; j < len; ++j) {
            // Full byte range, including NULs, controls, UTF-8
            // fragments — the wire can carry anything.
            junk += static_cast<char>(next() & 0xff);
        }
        SCOPED_TRACE(i);
        tryCanonicalWorkload(junk, nullptr);
        tryCanonicalPolicy(junk, nullptr);
        tryCanonicalSampling(junk, nullptr);
    }
}

TEST(SpecFuzz, MutatedProgramTextNeverCrashes)
{
    for (std::uint32_t seed = 1; seed <= 150; ++seed) {
        srv::Fault f = (seed % 2) ? srv::Fault::GarbleFrame
                                  : srv::Fault::TruncateFrame;
        std::string mutated =
            srv::mutateLine(kProgram, f, seed * 7919u);
        SCOPED_TRACE(seed);
        tryParseProgram(mutated);
    }
    // Line-level truncation: drop the tail of the program at every
    // line boundary (what a dying PROG upload hands the parser).
    std::string text = kProgram;
    for (std::size_t pos = text.rfind('\n');
         pos != std::string::npos && pos > 0;
         pos = text.rfind('\n')) {
        text = text.substr(0, pos);
        tryParseProgram(text + "\n");
    }
}

TEST(SpecFuzz, HostileTournamentPlansDieCatchablyOrKeyCleanly)
{
    // The tournament constructor is the trust boundary for three
    // spec surfaces at once (oracle, roster, workloads); any hostile
    // spec must either throw SpecError there, or survive
    // canonicalization — in which case every cell key it plans must
    // derive without a fatal (the keys a mutated-but-valid plan
    // produces are as stable as a well-behaved client's).
    exp::ExpConfig ecfg;
    ecfg.productionWindow = 6'000;
    ecfg.analysisWindow = 6'000;
    ecfg.cacheFile.clear();
    exp::Runner runner(ecfg);

    auto tryPlan = [&runner](const exp::TournamentConfig &cfg) {
        try {
            exp::Tournament t(runner, cfg);
            for (const std::string &k : t.cellKeys())
                EXPECT_FALSE(k.empty());
            return true;
        } catch (const SpecError &) {
            return false;
        }
    };

    int survivors = 0;
    for (std::uint32_t seed = 1; seed <= 120; ++seed) {
        srv::Fault f = (seed % 2) ? srv::Fault::GarbleFrame
                                  : srv::Fault::TruncateFrame;
        // Mutate each surface in isolation, holding the others valid.
        exp::TournamentConfig cfg;
        cfg.workloads = {"gsm_decode"};
        cfg.policies = {
            srv::mutateLine("learned:seed=3,lr=0.1", f, seed)};
        SCOPED_TRACE("policy '" + cfg.policies[0] + "'");
        survivors += tryPlan(cfg);

        cfg = exp::TournamentConfig();
        cfg.policies = {"baseline"};
        cfg.workloads = {srv::mutateLine(
            "gen:phases=4,mem=0.4,seed=7", f, seed)};
        survivors += tryPlan(cfg);

        cfg = exp::TournamentConfig();
        cfg.workloads = {"gsm_decode"};
        cfg.oracle = srv::mutateLine("offline:d=10", f, seed);
        survivors += tryPlan(cfg);
    }
    // Mutations sometimes yield other valid specs; a fuzz pass where
    // nothing survived would make the key-derivation check vacuous.
    EXPECT_GT(survivors, 0);
}

TEST(SpecFuzz, MutatedSpecsThatSurviveStayCanonical)
{
    // Stronger property on the survivors: whenever a mutation still
    // canonicalizes, the canonical form must round-trip — the memo
    // key derived from hostile input is as stable as one from a
    // well-behaved client.
    int survivors = 0;
    for (const std::string &text : workloadCorpus()) {
        for (std::uint32_t seed = 1; seed <= 300; ++seed) {
            std::string mutated = srv::mutateLine(
                text, srv::Fault::GarbleFrame, seed);
            std::string canon;
            if (!tryCanonicalWorkload(mutated, &canon))
                continue;
            ++survivors;
            std::string again;
            ASSERT_TRUE(tryCanonicalWorkload(canon, &again))
                << canon;
            EXPECT_EQ(again, canon) << "from '" << mutated << "'";
        }
    }
    // The corpus names mutate into other valid names sometimes; if
    // literally nothing survived the property was vacuous.
    EXPECT_GT(survivors, 0);
}
