/**
 * @file
 * Property tests across the whole 19-benchmark synthetic suite.
 */

#include <gtest/gtest.h>

#include "workload/spec.hh"
#include "workload/stream.hh"
#include "workload/suite.hh"

using namespace mcd::workload;

class SuiteProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteProperty, BuildsAndStreams)
{
    Benchmark bm = makeBenchmark(GetParam());
    EXPECT_FALSE(bm.program.functions.empty());
    Stream s(bm.program, bm.train);
    StreamItem item;
    std::uint64_t instrs = 0;
    while (s.next(item) && instrs < 50'000)
        instrs += item.kind == StreamItem::Kind::Instr;
    EXPECT_GT(instrs, 10'000u) << "benchmark too short to profile";
}

TEST_P(SuiteProperty, MarkersBalancedInWindow)
{
    Benchmark bm = makeBenchmark(GetParam());
    Stream s(bm.program, bm.ref);
    StreamItem item;
    std::uint64_t instrs = 0;
    int func_depth = 0;
    while (s.next(item) && instrs < 100'000) {
        if (item.kind == StreamItem::Kind::Instr) {
            ++instrs;
        } else {
            if (item.marker.kind == MarkerKind::FuncEnter)
                ++func_depth;
            if (item.marker.kind == MarkerKind::FuncExit)
                --func_depth;
            ASSERT_GE(func_depth, 0);
            ASSERT_LE(func_depth, 32) << "runaway call depth";
        }
    }
}

TEST_P(SuiteProperty, ReferenceAtLeastAsLongAsTraining)
{
    Benchmark bm = makeBenchmark(GetParam());
    auto count = [&](const InputSet &in) {
        Stream s(bm.program, in);
        StreamItem item;
        std::uint64_t n = 0;
        while (s.next(item) && n < 3'000'000)
            n += item.kind == StreamItem::Kind::Instr;
        return n;
    };
    std::uint64_t t = count(bm.train);
    std::uint64_t r = count(bm.ref);
    EXPECT_GE(r, t * 9 / 10)
        << "reference input should not be much shorter than training";
}

TEST_P(SuiteProperty, DeterministicInstrCount)
{
    Benchmark bm = makeBenchmark(GetParam());
    auto count = [&]() {
        Stream s(bm.program, bm.train);
        StreamItem item;
        std::uint64_t n = 0;
        while (s.next(item) && n < 200'000)
            n += item.kind == StreamItem::Kind::Instr;
        return n;
    };
    EXPECT_EQ(count(), count());
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteProperty,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto &info) { return info.param; });

TEST(Suite, NamesStable)
{
    EXPECT_EQ(suiteNames().size(), 19u);
}

TEST(Suite, UnknownNameIsCatchableAndListsWhatExists)
{
    // makeBenchmark routes through the WorkloadRegistry: an unknown
    // name is a SpecError (not a process-terminating fatal), and
    // the message names the registered workloads so a CLI typo is
    // self-diagnosing.
    try {
        makeBenchmark("doom");
        FAIL() << "unknown benchmark did not throw";
    } catch (const SpecError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown workload 'doom'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("gzip"), std::string::npos) << msg;
        EXPECT_NE(msg.find("gen"), std::string::npos) << msg;
    }
}

TEST(Suite, Mpeg2DecodeDivergesBetweenInputs)
{
    Benchmark bm = makeBenchmark("mpeg2_decode");
    const Function *bpred_fn =
        bm.program.findFunction("decode_bpred_mb");
    ASSERT_NE(bpred_fn, nullptr);
    auto count_enters = [&](const InputSet &in) {
        Stream s(bm.program, in);
        StreamItem item;
        std::uint64_t n = 0, instrs = 0;
        while (s.next(item) && instrs < 400'000) {
            if (item.kind == StreamItem::Kind::Instr)
                ++instrs;
            else if (item.marker.kind == MarkerKind::FuncEnter &&
                     item.marker.func == bpred_fn->id)
                ++n;
        }
        return n;
    };
    EXPECT_EQ(count_enters(bm.train), 0u);
    EXPECT_GT(count_enters(bm.ref), 0u);
}
