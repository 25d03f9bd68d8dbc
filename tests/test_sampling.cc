/**
 * @file
 * Tests for sampled + checkpointed simulation (sim/sampling.hh,
 * sim/checkpoint.hh): spec parse/canonical round-trips and error
 * cases, meanCi95 math, determinism of sampled runs, equivalence of
 * checkpoint-replay and inline functional warm-up (and the fallback
 * on mismatched checkpoints), the stream-reading contract of
 * `FuncState::advance`, exact-mode neutrality of the sampled
 * reporting fields, the pinned
 * cache-key shape for sampled cells (schema tag hoisted into
 * cache_key_util.hh), and the chip-cell rejection of sampled mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "exp/experiment.hh"
#include "sim/checkpoint.hh"
#include "sim/processor.hh"
#include "sim/sampling.hh"
#include "util/stats.hh"
#include "workload/spec.hh"
#include "workload/suite.hh"

#include "cache_key_util.hh"

using namespace mcd;
using sim::SamplingConfig;
using sim::SamplingMode;

namespace
{

SamplingConfig
sampledCfg(std::uint64_t interval = 4'000,
           std::uint64_t sample = 600, std::uint64_t warmup = 200)
{
    SamplingConfig c;
    c.mode = SamplingMode::Sampled;
    c.intervalInstrs = interval;
    c.sampleInstrs = sample;
    c.warmupInstrs = warmup;
    return c;
}

sim::RunResult
runOnce(const workload::Benchmark &bm, const sim::SimConfig &scfg,
        std::uint64_t window,
        std::shared_ptr<const sim::CheckpointSet> cps = nullptr)
{
    power::PowerConfig pcfg;
    sim::Processor proc(scfg, pcfg, bm.program, bm.train);
    proc.setCheckpoints(std::move(cps));
    return proc.run(window);
}

/** Field-by-field equality of everything a RunResult reports. */
void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.timePs, b.timePs);
    EXPECT_EQ(a.chipEnergyNj, b.chipEnergyNj);
    EXPECT_EQ(a.dramEnergyNj, b.dramEnergyNj);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.sampleIntervals, b.sampleIntervals);
    EXPECT_EQ(a.skippedInstrs, b.skippedInstrs);
    EXPECT_EQ(a.timeCiPs, b.timeCiPs);
    EXPECT_EQ(a.energyCiNj, b.energyCiNj);
}

/** A marker at the global index of the instruction it precedes. */
using MarkerAt = std::tuple<int, int, int, int, std::uint64_t>;

MarkerAt
markerAt(const workload::Marker &m, std::uint64_t index)
{
    return {static_cast<int>(m.kind), m.func, m.loop, m.site, index};
}

/** One plain Stream::next() walk of up to @p window instructions,
 *  pulling only while the budget is not spent. */
struct PlainWalk
{
    std::vector<MarkerAt> markers;
    std::uint64_t instrs = 0;
    std::uint64_t branches = 0;
    std::uint64_t memOps = 0;
};

PlainWalk
plainWalk(const workload::Program &prog, const workload::InputSet &in,
          std::uint64_t window)
{
    PlainWalk w;
    workload::Stream s(prog, in);
    workload::StreamItem item;
    while (w.instrs < window && s.next(item)) {
        if (item.kind == workload::StreamItem::Kind::Marker) {
            w.markers.push_back(markerAt(item.marker, w.instrs));
            continue;
        }
        workload::InstrClass c = item.instr.cls;
        if (c == workload::InstrClass::Branch)
            ++w.branches;
        if (c == workload::InstrClass::Load ||
            c == workload::InstrClass::Store)
            ++w.memOps;
        ++w.instrs;
    }
    return w;
}

/** Every FuncDeltas field. */
std::vector<std::uint64_t>
deltaFields(const sim::FuncDeltas &d)
{
    return {d.instrs,       d.branches,    d.mispredicts,
            d.icacheMisses, d.l1dAccesses, d.l1dMisses,
            d.l2Misses,     d.dramAccesses};
}

/** A program that ends after a few hundred instructions. */
workload::Program
shortProgram()
{
    workload::ProgramBuilder b("short");
    workload::InstructionMix m;
    m.set(workload::InstrClass::Load, 0.2).branches(0.1, 0.05);
    workload::MixId mx = b.mix(m);
    b.func("leaf");
    b.block(mx, 5);
    b.func("main");
    b.loop(3, 1.0, [&] { b.call("leaf"); });
    return b.build("main");
}

} // namespace

// ---------------------------------------------------------------- //
// Spec grammar                                                     //
// ---------------------------------------------------------------- //

TEST(SamplingSpec, ParseDefaultsAndCanonicalRoundTrip)
{
    SamplingConfig exact = sim::parseSamplingSpec("exact");
    EXPECT_FALSE(exact.sampled());
    EXPECT_EQ(sim::canonicalSamplingSpec(exact), "exact");

    SamplingConfig s = sim::parseSamplingSpec("sampled");
    EXPECT_TRUE(s.sampled());
    EXPECT_EQ(s.intervalInstrs, 10'000u);
    EXPECT_EQ(s.sampleInstrs, 600u);
    EXPECT_EQ(s.warmupInstrs, 400u);
    EXPECT_DOUBLE_EQ(s.ciBiasPct, 1.0);
    EXPECT_EQ(sim::canonicalSamplingSpec(s),
              "sampled:interval=10000,sample=600,warmup=400,"
              "ci=1.000");

    // parse(canonical(cfg)) is the identity on every knob.
    SamplingConfig c = sim::parseSamplingSpec(
        "sampled:warmup=50,interval=900,ci=2.5,sample=100");
    SamplingConfig c2 =
        sim::parseSamplingSpec(sim::canonicalSamplingSpec(c));
    EXPECT_EQ(c2.intervalInstrs, 900u);
    EXPECT_EQ(c2.sampleInstrs, 100u);
    EXPECT_EQ(c2.warmupInstrs, 50u);
    EXPECT_DOUBLE_EQ(c2.ciBiasPct, 2.5);
}

TEST(SamplingSpec, BadSpecsThrowSpecError)
{
    EXPECT_THROW(sim::parseSamplingSpec(""), workload::SpecError);
    EXPECT_THROW(sim::parseSamplingSpec("fast"),
                 workload::SpecError);
    // exact takes no parameters.
    EXPECT_THROW(sim::parseSamplingSpec("exact:interval=100"),
                 workload::SpecError);
    // Unknown key, malformed value, out-of-range ci.
    EXPECT_THROW(sim::parseSamplingSpec("sampled:probes=3"),
                 workload::SpecError);
    EXPECT_THROW(sim::parseSamplingSpec("sampled:interval=abc"),
                 workload::SpecError);
    EXPECT_THROW(sim::parseSamplingSpec("sampled:interval=0"),
                 workload::SpecError);
    EXPECT_THROW(sim::parseSamplingSpec("sampled:ci=101"),
                 workload::SpecError);
    // Warm-up is mandatory in sampled mode...
    EXPECT_THROW(sim::parseSamplingSpec("sampled:warmup=0"),
                 workload::SpecError);
    // ...and the probe must leave room to skip.
    EXPECT_THROW(
        sim::parseSamplingSpec(
            "sampled:interval=1000,sample=900,warmup=100"),
        workload::SpecError);
}

// ---------------------------------------------------------------- //
// CI math                                                          //
// ---------------------------------------------------------------- //

TEST(SamplingStats, MeanCi95MatchesHandComputation)
{
    EXPECT_EQ(meanCi95({}).n, 0u);
    MeanCi one = meanCi95({4.0});
    EXPECT_DOUBLE_EQ(one.mean, 4.0);
    EXPECT_DOUBLE_EQ(one.ci95, 0.0);

    // {2, 4, 6}: mean 4, sample sd 2, ci95 = 1.96 * 2 / sqrt(3).
    MeanCi m = meanCi95({2.0, 4.0, 6.0});
    EXPECT_EQ(m.n, 3u);
    EXPECT_DOUBLE_EQ(m.mean, 4.0);
    EXPECT_NEAR(m.ci95, 1.96 * 2.0 / std::sqrt(3.0), 1e-12);
}

// ---------------------------------------------------------------- //
// Sampled runs                                                     //
// ---------------------------------------------------------------- //

TEST(SampledRun, ExactModeReportsNoSampling)
{
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::SimConfig scfg;  // default sampling = exact
    sim::RunResult r = runOnce(bm, scfg, 12'000);
    EXPECT_FALSE(r.sampled);
    EXPECT_EQ(r.sampleIntervals, 0u);
    EXPECT_EQ(r.skippedInstrs, 0u);
    EXPECT_EQ(r.timeCiPs, 0);
    EXPECT_EQ(r.energyCiNj, 0.0);
}

TEST(SampledRun, DeterministicAcrossRepeats)
{
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::SimConfig scfg;
    scfg.sampling = sampledCfg();
    sim::RunResult a = runOnce(bm, scfg, 12'000);
    sim::RunResult b = runOnce(bm, scfg, 12'000);
    EXPECT_TRUE(a.sampled);
    EXPECT_GT(a.sampleIntervals, 0u);
    EXPECT_GT(a.skippedInstrs, 0u);
    EXPECT_GT(a.timeCiPs, 0);
    expectSameResult(a, b);
}

TEST(SampledRun, EstimateTracksExactRun)
{
    // Determinism makes this loose bound stable: the extrapolated
    // time/energy of a sampled run must land near the exact run's.
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::SimConfig exact;
    sim::RunResult e = runOnce(bm, exact, 20'000);
    sim::SimConfig scfg;
    scfg.sampling = sampledCfg();
    sim::RunResult s = runOnce(bm, scfg, 20'000);
    EXPECT_EQ(s.instrs, e.instrs);
    double t_err = std::abs(static_cast<double>(s.timePs) -
                            static_cast<double>(e.timePs)) /
                   static_cast<double>(e.timePs);
    double en_err = std::abs(s.chipEnergyNj - e.chipEnergyNj) /
                    e.chipEnergyNj;
    EXPECT_LT(t_err, 0.10) << s.timePs << " vs " << e.timePs;
    EXPECT_LT(en_err, 0.10)
        << s.chipEnergyNj << " vs " << e.chipEnergyNj;
}

TEST(SampledRun, CheckpointReplayMatchesInlineWalk)
{
    auto bm = std::make_shared<workload::Benchmark>(
        workload::makeBenchmark("gsm_decode"));
    sim::SimConfig scfg;
    scfg.sampling = sampledCfg();
    std::shared_ptr<const workload::Program> prog(bm, &bm->program);
    auto cps =
        sim::CheckpointSet::build(prog, bm->train, scfg, 12'000);
    ASSERT_TRUE(cps);
    ASSERT_TRUE(cps->matches(scfg.sampling, 12'000));
    sim::RunResult inline_walk = runOnce(*bm, scfg, 12'000);
    sim::RunResult replay = runOnce(*bm, scfg, 12'000, cps);
    expectSameResult(inline_walk, replay);
}

TEST(SampledRun, MismatchedCheckpointsFallBackToInlineWalk)
{
    auto bm = std::make_shared<workload::Benchmark>(
        workload::makeBenchmark("gsm_decode"));
    sim::SimConfig scfg;
    scfg.sampling = sampledCfg();
    std::shared_ptr<const workload::Program> prog(bm, &bm->program);
    // Built for a different window: matches() is false and the run
    // must ignore the set rather than replay the wrong trajectory.
    auto cps =
        sim::CheckpointSet::build(prog, bm->train, scfg, 8'000);
    ASSERT_TRUE(cps);
    EXPECT_FALSE(cps->matches(scfg.sampling, 12'000));
    expectSameResult(runOnce(*bm, scfg, 12'000),
                     runOnce(*bm, scfg, 12'000, cps));
}

// ---------------------------------------------------------------- //
// FuncState::advance, the functional walk's stream reader          //
// ---------------------------------------------------------------- //

TEST(FuncStateAdvance, AnySpanLengthGivesThePlainWalk)
{
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::SimConfig scfg;
    const std::uint64_t window = 20'000;
    PlainWalk plain = plainWalk(bm.program, bm.train, window);
    ASSERT_EQ(plain.instrs, window);
    ASSERT_FALSE(plain.markers.empty());

    std::vector<std::uint64_t> whole;
    for (std::uint64_t span : {window, std::uint64_t{256},
                               std::uint64_t{7}, std::uint64_t{1}}) {
        SCOPED_TRACE("span " + std::to_string(span));
        sim::FuncState f(scfg, bm.program, bm.train);
        std::vector<MarkerAt> markers;
        sim::FuncDeltas sum;
        std::uint64_t v = 0;
        while (v < window) {
            sim::FuncDeltas d = f.advance(
                std::min(span, window - v),
                [&](const workload::Marker &m, std::uint64_t idx) {
                    markers.push_back(markerAt(m, v + idx));
                });
            ASSERT_GT(d.instrs, 0u);
            v += d.instrs;
            sum.instrs += d.instrs;
            sum.branches += d.branches;
            sum.mispredicts += d.mispredicts;
            sum.icacheMisses += d.icacheMisses;
            sum.l1dAccesses += d.l1dAccesses;
            sum.l1dMisses += d.l1dMisses;
            sum.l2Misses += d.l2Misses;
            sum.dramAccesses += d.dramAccesses;
        }
        EXPECT_EQ(markers, plain.markers);
        EXPECT_EQ(sum.instrs, plain.instrs);
        EXPECT_EQ(sum.branches, plain.branches);
        EXPECT_EQ(sum.l1dAccesses, plain.memOps);
        EXPECT_FALSE(f.streamEnded);
        // The cache and predictor counters do not see the span
        // boundaries either.
        if (whole.empty())
            whole = deltaFields(sum);
        EXPECT_EQ(deltaFields(sum), whole);
    }
}

TEST(FuncStateAdvance, MarkerAfterASpanOpensTheNextSpan)
{
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::SimConfig scfg;
    PlainWalk plain = plainWalk(bm.program, bm.train, 20'000);
    // The first marker that follows an instruction: the span that
    // ends on that instruction must leave it in the stream.
    auto after = std::find_if(
        plain.markers.begin(), plain.markers.end(),
        [](const MarkerAt &m) { return std::get<4>(m) > 0; });
    ASSERT_NE(after, plain.markers.end());
    const std::uint64_t k = std::get<4>(*after);
    std::vector<MarkerAt> before(plain.markers.begin(), after);
    std::vector<MarkerAt> at;
    for (auto it = after;
         it != plain.markers.end() && std::get<4>(*it) == k; ++it)
        at.push_back(*it);

    sim::FuncState f(scfg, bm.program, bm.train);
    std::vector<MarkerAt> first;
    EXPECT_EQ(f.advance(k,
                        [&](const workload::Marker &m,
                            std::uint64_t idx) {
                            first.push_back(markerAt(m, idx));
                        })
                  .instrs,
              k);
    EXPECT_EQ(first, before);
    std::vector<MarkerAt> next;
    EXPECT_EQ(f.advance(1,
                        [&](const workload::Marker &m,
                            std::uint64_t idx) {
                            next.push_back(markerAt(m, k + idx));
                        })
                  .instrs,
              1u);
    EXPECT_EQ(next, at);
}

TEST(FuncStateAdvance, WalkPastTheEndDeliversTheExitsAndEndsTheStream)
{
    workload::Program prog = shortProgram();
    workload::InputSet in;
    sim::SimConfig scfg;
    PlainWalk plain = plainWalk(prog, in, 1'000'000);
    const std::uint64_t total = plain.instrs;
    ASSERT_GT(total, 1u);
    ASSERT_LT(total, 1'000u);
    // The program ends with the entry function's exit marker and its
    // return: the exits are the markers before the last instruction.
    std::vector<MarkerAt> exits;
    for (const MarkerAt &m : plain.markers)
        if (std::get<4>(m) == total - 1)
            exits.push_back(m);
    ASSERT_FALSE(exits.empty());
    EXPECT_EQ(exits.back(),
              markerAt(workload::Marker{workload::MarkerKind::FuncExit,
                                        prog.entry, 0, 0},
                       total - 1));
    EXPECT_EQ(plain.markers.back(), exits.back());

    auto record = [](std::vector<MarkerAt> &out, std::uint64_t base) {
        return [&out, base](const workload::Marker &m,
                            std::uint64_t idx) {
            out.push_back(markerAt(m, base + idx));
        };
    };

    // A span that stops before the last instruction leaves the exits
    // in the stream; the walk past the end delivers them at index 0
    // and ends the stream.
    sim::FuncState f(scfg, prog, in);
    std::vector<MarkerAt> seen;
    EXPECT_EQ(f.advance(total - 1, record(seen, 0)).instrs, total - 1);
    EXPECT_FALSE(f.streamEnded);
    std::vector<MarkerAt> tail;
    EXPECT_EQ(f.advance(100, record(tail, total - 1)).instrs, 1u);
    EXPECT_TRUE(f.streamEnded);
    EXPECT_EQ(tail, exits);
    seen.insert(seen.end(), tail.begin(), tail.end());
    EXPECT_EQ(seen, plain.markers);

    // One walk past the end delivers every marker.
    sim::FuncState past(scfg, prog, in);
    std::vector<MarkerAt> all;
    EXPECT_EQ(past.advance(total + 100, record(all, 0)).instrs, total);
    EXPECT_TRUE(past.streamEnded);
    EXPECT_EQ(all, plain.markers);
}

// ---------------------------------------------------------------- //
// exp/ integration                                                 //
// ---------------------------------------------------------------- //

TEST(SamplingCacheKeys, SampledCellsArePinnedAndDistinct)
{
    exp::ExpConfig cfg;
    cfg.productionWindow = 8'000;
    cfg.analysisWindow = 8'000;
    exp::Runner exact(cfg);
    cfg.sim.sampling = sampledCfg();
    exp::Runner sampled(cfg);

    control::PolicySpec bl = control::PolicySpec::of("baseline");
    std::string ke = exact.cacheKey("gsm_decode", bl);
    std::string ks = sampled.cacheKey("gsm_decode", bl);
    // Both keys carry the schema tag and the 16-hex fingerprint
    // (pinned in cache_key_util.hh); the sampling knobs are inside
    // the fingerprint, so exact and sampled cells can never collide
    // in the cache.
    ASSERT_TRUE(testpins::hasCacheKeyTag(ke)) << ke;
    ASSERT_TRUE(testpins::hasCacheKeyTag(ks)) << ks;
    EXPECT_EQ(testpins::cacheKeyTail(ke),
              "|baseline|gsm_decode|w8000");
    EXPECT_EQ(testpins::cacheKeyTail(ks),
              "|baseline|gsm_decode|w8000");
    EXPECT_NE(ke, ks);

    // Every sampling knob is load-bearing in the fingerprint.
    exp::ExpConfig knob = cfg;
    knob.sim.sampling.ciBiasPct = 2.0;
    EXPECT_NE(exp::Runner(knob).cacheKey("gsm_decode", bl), ks);
    knob = cfg;
    knob.sim.sampling.warmupInstrs = 300;
    EXPECT_NE(exp::Runner(knob).cacheKey("gsm_decode", bl), ks);
}

TEST(SamplingChip, ChipCellsRejectSampledMode)
{
    exp::ExpConfig cfg;
    cfg.productionWindow = 6'000;
    cfg.analysisWindow = 6'000;
    cfg.sim.sampling = sampledCfg();
    exp::Runner runner(cfg);
    exp::ChipCell cell;
    cell.workload = "gsm_decode";
    cell.tiles = 2;
    EXPECT_THROW(runner.runChip(cell), workload::SpecError);
}
