/**
 * @file
 * Full-precision golden pins for the detailed kernel and the shaker.
 *
 * The tournament table rounds to two decimals and the fast-forward
 * tests compare two paths of one build, so neither catches a change
 * that moves the last bit of a simulated number.  These tests do:
 * every RunResult field, printed through util::fmtDouble17 (exact
 * round trip), for four workloads at w20000 in three setups — a plain
 * run, every domain at 625 MHz (global's first bisection probe), and
 * an off-line schedule (ramps and fast-forward parking) — plus the
 * shaker's histogram bins for one recorded 10k-instruction segment.
 *
 * The "special" lines pin the inputs the clock and issue paths treat
 * specially: aligned edges (singleClock), no jitter, a jitter bound
 * too wide for a shared jitter stream, a zero synchronization window
 * (every minimum margin is zero), a checkpointed sampled run, a
 * two-tile chip whose second tile derives its jitter seed, and a
 * schedule that keeps every clock ramping, so synchronization
 * margins shrink and grow while instructions wait on them.
 *
 * The "profile" lines pin the profile pipeline in all six context
 * modes, run as `profile:mode=M,d=10` runs them at w20000: train on
 * the training input, then the instrumented production run on the
 * reference input.  Each line holds the production RunResult, the
 * runtime's dynamic counts, the plan's static points and table bytes,
 * and the trained tree's size and long-running count.  mpeg2_decode's
 * reference input takes paths training never saw, epic_encode's
 * behaviour differs per call site, and adpcm_decode has fig08's
 * widest spread across modes.
 *
 * tests/data/kernel_bits_golden.txt holds the expected lines.  A
 * change that is meant to be bit-identical must pass it unedited; a
 * change that moves results on purpose re-pins it deliberately and
 * says why.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "chip/chip.hh"
#include "control/offline.hh"
#include "core/pipeline.hh"
#include "core/shaker.hh"
#include "exp/experiment.hh"
#include "sim/checkpoint.hh"
#include "sim/processor.hh"
#include "util/text.hh"
#include "workload/suite.hh"

using namespace mcd;

namespace
{

constexpr std::uint64_t WINDOW = 20'000;

const char *const WORKLOADS[] = {"gsm_decode", "mcf", "mpeg2_decode",
                                 "gen:phases=2,seed=7"};

std::string
num(double v)
{
    return util::fmtDouble17(v);
}

/** Every RunResult field, in declaration order. */
std::string
renderRun(const sim::RunResult &r)
{
    std::string s;
    auto put = [&](const char *name, double v) {
        s += ' ';
        s += name;
        s += '=';
        s += num(v);
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

/** One line per (workload, setup) run. */
std::vector<std::string>
renderRuns()
{
    sim::SimConfig scfg;
    power::PowerConfig pcfg;
    std::vector<std::string> lines;
    for (const char *name : WORKLOADS) {
        workload::Benchmark bm = workload::makeBenchmark(name);

        sim::Processor plain(scfg, pcfg, bm.program, bm.ref);
        lines.push_back(std::string(name) + " plain" +
                        renderRun(plain.run(WINDOW)));

        sim::Processor probe(scfg, pcfg, bm.program, bm.ref);
        probe.setInitialFreqs({625.0, 625.0, 625.0, 625.0});
        lines.push_back(std::string(name) + " mhz625" +
                        renderRun(probe.run(WINDOW)));

        control::OfflineConfig off;
        off.intervalInstrs = 2'000;
        off.slowdownPct = 10.0;
        sim::Processor sched(scfg, pcfg, bm.program, bm.ref);
        sched.setSchedule(control::offlineAnalyze(
            off, bm.program, bm.ref, scfg, pcfg, WINDOW));
        lines.push_back(std::string(name) + " offline" +
                        renderRun(sched.run(WINDOW)));
    }
    return lines;
}

/** The shaker's output for the first 10k committed instructions of
 *  one full-speed run: span, counts and every histogram bin. */
std::vector<std::string>
renderShaker()
{
    struct Collect : sim::TraceSink
    {
        std::vector<sim::InstrTiming> items;
        void
        onInstr(const sim::InstrTiming &t) override
        {
            items.push_back(t);
        }
    } sink;
    sim::SimConfig scfg;
    power::PowerConfig pcfg;
    workload::Benchmark bm = workload::makeBenchmark("swim");
    sim::Processor proc(scfg, pcfg, bm.program, bm.train);
    proc.setTraceSink(&sink);
    proc.run(10'000);

    core::SegmentAnalyzer analyzer(
        core::shakerConfigFor(core::ShakerConfig{}, scfg, pcfg));
    core::NodeHistograms out;
    analyzer.analyze(sink.items, out);

    std::vector<std::string> lines;
    lines.push_back("shaker spanPs=" +
                    num(static_cast<double>(out.spanPs)) +
                    " instrs=" + num(static_cast<double>(out.instrs)) +
                    " segments=" + num(out.segments));
    for (Domain d : scaledDomains()) {
        const FreqHistogram &h = out.hist[domainIndex(d)];
        std::string s = std::string("shaker ") + domainName(d);
        for (int i = 0; i < h.steps().numSteps(); ++i)
            s += ' ' + num(h.binCycles(i));
        lines.push_back(s);
    }
    return lines;
}

/** One "special" line per run whose configuration takes a path the
 *  default runs do not. */
std::vector<std::string>
renderSpecialRuns()
{
    power::PowerConfig pcfg;
    std::vector<std::string> lines;
    auto plain = [&](const char *setup, const sim::SimConfig &scfg) {
        for (const char *name : WORKLOADS) {
            workload::Benchmark bm = workload::makeBenchmark(name);
            sim::Processor proc(scfg, pcfg, bm.program, bm.ref);
            lines.push_back(std::string("special ") + name + ' ' +
                            setup + renderRun(proc.run(WINDOW)));
        }
    };

    sim::SimConfig single;
    single.singleClock = true;
    plain("singleClock", single);

    sim::SimConfig no_jitter;
    no_jitter.jitterPs = 0;
    plain("jitter0", no_jitter);

    sim::SimConfig wide_jitter;
    wide_jitter.jitterPs = 200;
    plain("jitter200", wide_jitter);

    sim::SimConfig no_window;
    no_window.syncWindowFrac = 0.0;
    plain("syncWindow0", no_window);

    {
        auto bm = std::make_shared<workload::Benchmark>(
            workload::makeBenchmark("gsm_decode"));
        std::shared_ptr<const workload::Program> prog(bm, &bm->program);
        sim::SimConfig scfg;
        scfg.sampling = sim::parseSamplingSpec("sampled:interval=4000");
        sim::Processor proc(scfg, pcfg, bm->program, bm->ref);
        proc.setCheckpoints(
            sim::CheckpointSet::build(prog, bm->ref, scfg, WINDOW));
        lines.push_back("special gsm_decode sampledCheckpointed" +
                        renderRun(proc.run(WINDOW)));
    }

    {
        chip::Chip c(chip::ChipConfig{}, sim::SimConfig{}, pcfg,
                     {"gsm_decode", "mcf"});
        chip::ChipResult r = c.run(WINDOW);
        for (std::size_t t = 0; t < r.tiles.size(); ++t)
            lines.push_back("special chip2 tile" + std::to_string(t) +
                            renderRun(r.tiles[t]));
        lines.push_back(
            "special chip2 uncore timePs=" +
            num(static_cast<double>(r.timePs)) +
            " uncoreEnergyNj=" + num(r.uncoreEnergyNj) +
            " uncoreAvgMhz=" + num(r.uncoreAvgMhz) +
            " l2Grants=" + num(static_cast<double>(r.uncore.l2Grants)) +
            " l2QueuedPs=" +
            num(static_cast<double>(r.uncore.l2QueuedPs)) +
            " dramAccesses=" +
            num(static_cast<double>(r.uncore.dramAccesses)) +
            " dramQueuedPs=" +
            num(static_cast<double>(r.uncore.dramQueuedPs)));
    }

    // Every 500 instructions the domains swap between 250 and 1000
    // MHz targets, far more often than a full ramp takes.
    for (const char *name : WORKLOADS) {
        std::vector<sim::SchedulePoint> sched;
        for (std::uint64_t k = 1; k * 500 < WINDOW; ++k) {
            sim::SchedulePoint pt;
            pt.atInstr = k * 500;
            pt.freqs = k % 2 ? sim::FreqSet{1000.0, 250.0, 250.0, 1000.0}
                             : sim::FreqSet{250.0, 1000.0, 1000.0, 250.0};
            sched.push_back(pt);
        }
        workload::Benchmark bm = workload::makeBenchmark(name);
        sim::Processor proc(sim::SimConfig{}, pcfg, bm.program, bm.ref);
        proc.setSchedule(std::move(sched));
        lines.push_back(std::string("special ") + name + " ramps" +
                        renderRun(proc.run(WINDOW)));
    }
    return lines;
}

/** One "profile" line per (workload, context mode): the production
 *  run of the pipeline trained at d=10, as a runner at w20000 runs
 *  `profile:mode=M,d=10` (its simulator, power model and profiling
 *  cap; analysis window = production window). */
std::vector<std::string>
renderProfileRuns()
{
    exp::ExpConfig ecfg;
    std::vector<std::string> lines;
    for (const char *name :
         {"mpeg2_decode", "epic_encode", "adpcm_decode"}) {
        workload::Benchmark bm = workload::makeBenchmark(name);
        for (core::ContextMode mode :
             {core::ContextMode::LFCP, core::ContextMode::LFP,
              core::ContextMode::FCP, core::ContextMode::FP,
              core::ContextMode::LF, core::ContextMode::F}) {
            core::PipelineConfig pc;
            pc.mode = mode;
            pc.slowdownPct = 10.0;
            pc.profile.maxInstrs = ecfg.profileMaxInstrs;
            pc.analysisWindow = WINDOW;
            core::ProfilePipeline pipe(bm.program, pc);
            pipe.train(bm.train, ecfg.sim, ecfg.power);
            core::RuntimeStats rt;
            sim::RunResult r = pipe.runProduction(
                bm.ref, ecfg.sim, ecfg.power, WINDOW, &rt);
            const core::InstrumentationPlan &plan = pipe.plan();
            auto count = [](auto v) {
                return num(static_cast<double>(v));
            };
            lines.push_back(
                std::string("profile ") + name + ' ' +
                core::contextModeName(mode) + renderRun(r) +
                " dynReconfigPoints=" + count(rt.dynReconfigPoints) +
                " dynInstrPoints=" + count(rt.dynInstrPoints) +
                " staticReconfigPoints=" +
                count(plan.staticReconfigPoints) +
                " staticInstrPoints=" + count(plan.staticInstrPoints) +
                " nextNodeTableBytes=" + count(plan.nextNodeTableBytes) +
                " freqTableBytes=" + count(plan.freqTableBytes) +
                " treeNodes=" + count(pipe.tree().size()) +
                " longRunning=" +
                count(pipe.tree().longRunningIds().size()));
        }
    }
    return lines;
}

/** The golden lines of one section, in file order: lines whose first
 *  word is "shaker", "special" or "profile" belong to that section,
 *  every other line to the plain-run section (@p section empty). */
std::vector<std::string>
goldenLines(const std::string &section)
{
    std::ifstream in(std::string(MCD_SOURCE_DIR) +
                     "/tests/data/kernel_bits_golden.txt");
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        std::string first = line.substr(0, line.find(' '));
        if (first != "shaker" && first != "special" &&
            first != "profile")
            first.clear();
        if (first == section)
            lines.push_back(line);
    }
    return lines;
}

void
expectLines(const std::vector<std::string> &got,
            const std::vector<std::string> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]);
}

} // namespace

TEST(GoldenBits, RunResultsAtFullPrecision)
{
    expectLines(renderRuns(), goldenLines(""));
}

TEST(GoldenBits, ShakerHistogramBins)
{
    expectLines(renderShaker(), goldenLines("shaker"));
}

TEST(GoldenBits, SpecialPathRuns)
{
    expectLines(renderSpecialRuns(), goldenLines("special"));
}

TEST(GoldenBits, ProfilePipelineInEveryContextMode)
{
    expectLines(renderProfileRuns(), goldenLines("profile"));
}
