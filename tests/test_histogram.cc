/**
 * @file
 * Tests for frequency steps and cycles-at-frequency histograms.
 */

#include <gtest/gtest.h>

#include "util/histogram.hh"
#include "util/spec.hh"

using mcd::FreqHistogram;
using mcd::FreqSteps;

TEST(FreqSteps, DefaultLayoutMatchesPaperRange)
{
    FreqSteps s;
    EXPECT_EQ(s.numSteps(), 31);
    EXPECT_DOUBLE_EQ(s.freqAt(0), 250.0);
    EXPECT_DOUBLE_EQ(s.freqAt(30), 1000.0);
}

TEST(FreqSteps, QuantizeRoundsToNearest)
{
    FreqSteps s;
    EXPECT_DOUBLE_EQ(s.quantize(262.0), 250.0);
    EXPECT_DOUBLE_EQ(s.quantize(263.0), 275.0);
    EXPECT_DOUBLE_EQ(s.quantize(999.0), 1000.0);
}

TEST(FreqSteps, ClampsOutOfRange)
{
    FreqSteps s;
    EXPECT_DOUBLE_EQ(s.quantize(100.0), 250.0);
    EXPECT_DOUBLE_EQ(s.quantize(5000.0), 1000.0);
    EXPECT_EQ(s.indexOf(0.0), 0);
    EXPECT_EQ(s.indexOf(1e9), 30);
}

TEST(FreqSteps, InvalidStepsThrowSpecError)
{
    EXPECT_THROW(FreqSteps(0.0, 1000.0, 25.0), mcd::util::SpecError);
    EXPECT_THROW(FreqSteps(500.0, 250.0, 25.0), mcd::util::SpecError);
    EXPECT_THROW(FreqSteps(250.0, 1000.0, 0.0), mcd::util::SpecError);
}

TEST(FreqHistogram, AccumulatesAndTotals)
{
    FreqHistogram h;
    h.add(250.0, 100.0);
    h.add(1000.0, 50.0);
    h.add(1000.0, 25.0);
    EXPECT_DOUBLE_EQ(h.totalCycles(), 175.0);
    EXPECT_DOUBLE_EQ(h.binCycles(0), 100.0);
    EXPECT_DOUBLE_EQ(h.binCycles(30), 75.0);
}

TEST(FreqHistogram, MergePreservesTotal)
{
    FreqHistogram a, b;
    a.add(500.0, 10.0);
    b.add(500.0, 20.0);
    b.add(750.0, 5.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.totalCycles(), 35.0);
    EXPECT_DOUBLE_EQ(a.binCycles(a.steps().indexOf(500.0)), 30.0);
}

TEST(FreqHistogram, MeanFreqWeighted)
{
    FreqHistogram h;
    EXPECT_DOUBLE_EQ(h.meanFreq(), 0.0);
    h.add(250.0, 1.0);
    h.add(1000.0, 1.0);
    EXPECT_DOUBLE_EQ(h.meanFreq(), 625.0);
}

/** Property sweep: every step index round-trips through freqAt/indexOf. */
class FreqStepsRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(FreqStepsRoundTrip, IndexRoundTrips)
{
    FreqSteps s;
    int i = GetParam();
    EXPECT_EQ(s.indexOf(s.freqAt(i)), i);
}

INSTANTIATE_TEST_SUITE_P(AllSteps, FreqStepsRoundTrip,
                         ::testing::Range(0, 31));
