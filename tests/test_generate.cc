/**
 * @file
 * The procedural workload generator: determinism (same canonical
 * spec, bit-identical Benchmark), parameter effects on program
 * shape, and the memo-cache key identity of generated `--workload`
 * cells in the sweep engine.
 */

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "workload/author.hh"
#include "workload/registry.hh"
#include "workload/stream.hh"

#include "cache_key_util.hh"

using namespace mcd;
using namespace mcd::workload;

namespace
{

/** Canonical-text fingerprint: two benchmarks with equal canonical
 *  text are the same program, layouts included (the authoring
 *  round-trip tests pin that text -> layout is deterministic). */
std::string
fingerprintOf(const Benchmark &bm)
{
    std::string s = printProgram(bm);
    s += "|train:" + std::to_string(bm.train.seed) + "," +
         std::to_string(bm.train.scale);
    s += "|ref:" + std::to_string(bm.ref.seed) + "," +
         std::to_string(bm.ref.scale);
    return s;
}

exp::ExpConfig
smallConfig()
{
    exp::ExpConfig cfg;
    cfg.productionWindow = 6'000;
    cfg.analysisWindow = 6'000;
    cfg.offlineInterval = 3'000;
    cfg.cacheFile.clear();
    return cfg;
}

} // namespace

TEST(Generator, SameSeedBitIdenticalAcrossCalls)
{
    const char *spec = "gen:phases=5,mem=0.6,fp=0.4,seed=11";
    Benchmark a = makeBenchmark(spec);
    Benchmark b = makeBenchmark(spec);
    EXPECT_EQ(fingerprintOf(a), fingerprintOf(b));
    // And the dynamic stream is item-for-item identical.
    Stream sa(a.program, a.ref), sb(b.program, b.ref);
    StreamItem ia, ib;
    for (int n = 0; n < 30'000; ++n) {
        bool ma = sa.next(ia), mb = sb.next(ib);
        ASSERT_EQ(ma, mb);
        if (!ma)
            break;
        ASSERT_EQ(ia.kind, ib.kind);
        if (ia.kind == StreamItem::Kind::Instr) {
            ASSERT_EQ(ia.instr.pc, ib.instr.pc);
            ASSERT_EQ(ia.instr.cls, ib.instr.cls);
            ASSERT_EQ(ia.instr.addr, ib.instr.addr);
            ASSERT_EQ(ia.instr.taken, ib.instr.taken);
        }
    }
}

TEST(Generator, SeedAndParametersChangeTheProgram)
{
    std::string base = fingerprintOf(makeBenchmark("gen:seed=1"));
    EXPECT_NE(fingerprintOf(makeBenchmark("gen:seed=2")), base);
    EXPECT_NE(fingerprintOf(makeBenchmark("gen:seed=1,phases=8")),
              base);
    EXPECT_NE(fingerprintOf(makeBenchmark("gen:seed=1,mem=0.9")),
              base);
}

TEST(Generator, PhasesShapeTheProgram)
{
    Benchmark bm = makeBenchmark("gen:phases=6,seed=3");
    // phase0..phase5 + main.
    EXPECT_EQ(bm.program.functions.size(), 7u);
    for (int p = 0; p < 6; ++p)
        EXPECT_NE(bm.program.findFunction("phase" +
                                          std::to_string(p)),
                  nullptr);
    EXPECT_EQ(bm.program.functions[bm.program.entry].name, "main");
    // Generated programs must be long enough to profile.
    Stream s(bm.program, bm.train);
    StreamItem item;
    std::uint64_t instrs = 0;
    while (s.next(item) && instrs < 50'000)
        instrs += item.kind == StreamItem::Kind::Instr;
    EXPECT_GT(instrs, 10'000u);
}

TEST(Generator, DivergenceGatesPhasesBetweenInputs)
{
    // With diverge=1 every phase is gated; the train and ref knob
    // values must disagree so the two call trees diverge (the
    // paper's partial-coverage situation).
    Benchmark bm = makeBenchmark("gen:phases=6,diverge=1,seed=5");
    ASSERT_FALSE(bm.train.knobs.empty());
    ASSERT_EQ(bm.train.knobs.size(), bm.ref.knobs.size());
    for (std::size_t i = 0; i < bm.train.knobs.size(); ++i) {
        EXPECT_EQ(bm.train.knobs[i].first, bm.ref.knobs[i].first);
        EXPECT_NE(bm.train.knobs[i].second,
                  bm.ref.knobs[i].second);
    }
    // diverge=0: no gates at all.
    EXPECT_TRUE(
        makeBenchmark("gen:phases=6,diverge=0,seed=5")
            .train.knobs.empty());
}

TEST(Generator, AuthoredRoundTripOfGeneratedProgram)
{
    // Generated programs flow through the same authoring printer
    // as hand-written ones: print -> parse -> print is identity.
    Benchmark bm = makeBenchmark("gen:phases=3,seed=9");
    std::string text = printProgram(bm);
    EXPECT_EQ(printProgram(parseProgram(text)), text);
}

TEST(GeneratedCells, CacheKeyUsesCanonicalSpecAndIsPinned)
{
    exp::Runner runner(smallConfig());
    control::PolicySpec bl = control::PolicySpec::of("baseline");
    std::string key =
        runner.cacheKey("gen:seed=7,mem=0.40,phases=2", bl);
    ASSERT_TRUE(testpins::hasCacheKeyTag(key)) << key;
    EXPECT_EQ(testpins::cacheKeyTail(key),
              "|baseline|gen:phases=2,mem=0.400,fp=0.300,depth=2,"
              "diverge=0.200,imbalance=0.500,refscale=1.400,seed=7"
              "|w6000");
    // Spelling variants of one cell share one key...
    EXPECT_EQ(runner.cacheKey("gen:phases=2,seed=7,mem=0.4", bl),
              key);
    // ...different parameters do not.
    EXPECT_NE(runner.cacheKey("gen:phases=2,seed=8,mem=0.4", bl),
              key);
    // A bad workload spec surfaces as the same catchable error the
    // CLI path reports, not a fatal.
    EXPECT_THROW(runner.cacheKey("gen:warp=9", bl), SpecError);
}

TEST(GeneratedCells, SweepRunsAndMemoizesGeneratedWorkloads)
{
    exp::Runner runner(smallConfig());
    std::vector<exp::SweepCell> cells;
    cells.push_back(
        exp::SweepCell::of("gen:phases=2,seed=7", "baseline"));
    cells.push_back(
        exp::SweepCell::of("gen:phases=2,seed=7", "offline:d=10"));
    std::vector<exp::Outcome> out = runner.runSweep(cells, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_GT(out[0].timePs, 0.0);
    EXPECT_GT(out[1].timePs, 0.0);
    // Re-running the cell reproduces the outcome bit for bit (memo
    // or not, the simulation is deterministic in the canonical
    // spec).
    exp::Runner fresh(smallConfig());
    exp::Outcome again = fresh.run(cells[1]);
    EXPECT_EQ(again.timePs, out[1].timePs);
    EXPECT_EQ(again.energyNj, out[1].energyNj);
}
