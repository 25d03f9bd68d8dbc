/**
 * @file
 * Shaker tests: histogram invariants over real trace segments, the
 * quarter-frequency floor, external-memory exclusion, resource-edge
 * behaviour, and one analyzer streaming segment after segment.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>

#include "core/shaker.hh"
#include "sim/processor.hh"
#include "workload/suite.hh"

using namespace mcd;
using namespace mcd::core;
using namespace mcd::sim;
using namespace mcd::workload;

namespace
{

std::vector<InstrTiming>
traceOf(const std::string &bench, std::uint64_t n)
{
    struct Collect : TraceSink
    {
        std::vector<InstrTiming> items;
        void onInstr(const InstrTiming &t) override
        {
            items.push_back(t);
        }
    } sink;
    Benchmark bm = makeBenchmark(bench);
    SimConfig scfg;
    power::PowerConfig pcfg;
    Processor proc(scfg, pcfg, bm.program, bm.train);
    proc.setTraceSink(&sink);
    proc.run(n);
    return sink.items;
}

} // namespace

TEST(Shaker, EmptySegmentIsNoop)
{
    SegmentAnalyzer a;
    NodeHistograms out;
    a.analyze({}, out);
    EXPECT_EQ(out.segments, 0);
    EXPECT_EQ(out.instrs, 0u);
}

TEST(Shaker, HistogramMassMatchesEventCount)
{
    auto trace = traceOf("gsm_decode", 5000);
    SegmentAnalyzer a;
    NodeHistograms out;
    a.analyze(trace, out);
    EXPECT_EQ(out.instrs, trace.size());
    EXPECT_EQ(out.segments, 1);
    EXPECT_GT(out.spanPs, 0u);
    // Every scaled domain records non-negative cycles; FE records at
    // least fetch+dispatch+commit per instruction (3 cycles each).
    double fe = out.hist[0].totalCycles();
    EXPECT_GE(fe, 3.0 * static_cast<double>(trace.size()));
}

TEST(Shaker, NoWorkBelowQuarterFrequency)
{
    auto trace = traceOf("gsm_decode", 5000);
    ShakerConfig cfg;
    SegmentAnalyzer a(cfg);
    NodeHistograms out;
    a.analyze(trace, out);
    for (std::size_t d = 0; d < out.hist.size(); ++d) {
        const auto &h = out.hist[d];
        for (int b = 0; b < h.steps().numSteps(); ++b) {
            if (h.binCycles(b) > 0.0) {
                EXPECT_GE(h.steps().freqAt(b),
                          cfg.nominalMhz / cfg.maxStretch - 1e-9)
                    << "events must not be scaled below 1/4 nominal";
            }
        }
    }
}

TEST(Shaker, IdleDomainRecordsNothing)
{
    // gsm is pure-integer: the FP domain must stay empty.
    auto trace = traceOf("gsm_decode", 5000);
    SegmentAnalyzer a;
    NodeHistograms out;
    a.analyze(trace, out);
    EXPECT_DOUBLE_EQ(
        out.hist[static_cast<int>(Domain::FloatingPoint)].totalCycles(),
        0.0);
}

TEST(Shaker, DramTimeExcludedFromMemoryHistogram)
{
    // mcf misses to DRAM constantly; the memory-domain histogram must
    // contain only the scalable cache cycles, far less than total
    // memory-access time.
    auto trace = traceOf("mcf", 8000);
    std::uint64_t mem_time_cycles = 0;
    int l2_misses = 0;
    for (const auto &t : trace) {
        if (t.cls == InstrClass::Load && t.memDone > t.memStart)
            mem_time_cycles += (t.memDone - t.memStart) / 1000;
        l2_misses += t.l2Miss;
    }
    ASSERT_GT(l2_misses, 100);
    SegmentAnalyzer a;
    NodeHistograms out;
    a.analyze(trace, out);
    double mem_hist =
        out.hist[static_cast<int>(Domain::Memory)].totalCycles();
    EXPECT_LT(mem_hist, 0.7 * static_cast<double>(mem_time_cycles))
        << "DRAM latency must not be counted as scalable MEM work";
}

TEST(Shaker, SlackedWorkloadShakesDeeper)
{
    // A memory-bound trace leaves more integer-domain slack than a
    // lean integer trace; the shaker should scale INT work lower.
    auto int_trace = traceOf("adpcm_decode", 6000);
    auto mem_trace = traceOf("mcf", 6000);
    SegmentAnalyzer a;
    NodeHistograms int_out, mem_out;
    a.analyze(int_trace, int_out);
    a.analyze(mem_trace, mem_out);
    double int_mean =
        int_out.hist[static_cast<int>(Domain::Integer)].meanFreq();
    double mem_mean =
        mem_out.hist[static_cast<int>(Domain::Integer)].meanFreq();
    EXPECT_LT(mem_mean, int_mean);
}

TEST(Shaker, ReusedAnalyzerMatchesAFreshOnePerSegment)
{
    // A collector streams every segment through one analyzer, so
    // finish() must leave nothing of a segment behind: not its
    // events, edges or chains, and not a mispredict whose refill the
    // next fetch would wait on.  Cut mcf's trace right after a
    // mispredicted branch, then into shorter and longer segments.
    auto trace = traceOf("mcf", 8000);
    std::size_t cut = 100;
    while (cut < trace.size() && !trace[cut].mispredict)
        ++cut;
    ASSERT_LT(cut + 4000, trace.size());
    const std::size_t bounds[] = {0, cut + 1, cut + 2001, cut + 2301,
                                  trace.size()};
    SegmentAnalyzer reused;
    for (std::size_t s = 0; s + 1 < std::size(bounds); ++s) {
        SCOPED_TRACE("segment " + std::to_string(s));
        std::vector<InstrTiming> seg(
            trace.begin() + static_cast<std::ptrdiff_t>(bounds[s]),
            trace.begin() + static_cast<std::ptrdiff_t>(bounds[s + 1]));
        NodeHistograms got, want;
        for (const InstrTiming &t : seg)
            reused.add(t);
        EXPECT_EQ(reused.pending(), seg.size());
        reused.finish(got);
        EXPECT_EQ(reused.pending(), 0u);
        SegmentAnalyzer fresh;
        fresh.analyze(seg, want);
        EXPECT_EQ(got.spanPs, want.spanPs);
        EXPECT_EQ(got.instrs, want.instrs);
        EXPECT_EQ(got.segments, want.segments);
        for (std::size_t d = 0; d < got.hist.size(); ++d)
            for (int b = 0; b < got.hist[d].steps().numSteps(); ++b)
                EXPECT_EQ(got.hist[d].binCycles(b),
                          want.hist[d].binCycles(b))
                    << "domain " << d << " bin " << b;
    }
}

TEST(AnalysisCollector, SegmentsByNodeAndHonorsCaps)
{
    auto trace = traceOf("gsm_decode", 12000);
    // Stamp alternating node ids to force segmentation.
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].node = (i / 1000) % 2 ? 7 : 9;
    ShakerConfig cfg;
    AnalysisCollector::Limits lim;
    lim.maxSegmentInstrs = 500;
    lim.maxInstrsPerNode = 2'000;
    lim.maxSegmentsPerNode = 100;
    AnalysisCollector c(cfg, lim);
    for (const auto &t : trace)
        c.onInstr(t);
    auto results = c.finish();
    ASSERT_EQ(results.size(), 2u);
    for (const auto &kv : results) {
        EXPECT_LE(kv.second.instrs, lim.maxInstrsPerNode + 500);
        EXPECT_GT(kv.second.segments, 1);
    }
}

TEST(AnalysisCollector, NodeZeroIgnored)
{
    auto trace = traceOf("gsm_decode", 2000);
    for (auto &t : trace)
        t.node = 0;
    AnalysisCollector c((ShakerConfig()));
    for (const auto &t : trace)
        c.onInstr(t);
    EXPECT_TRUE(c.finish().empty());
}
