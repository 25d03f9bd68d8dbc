/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include "util/rng.hh"

using mcd::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BelowStaysInBound)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        auto v = r.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, NormalMoments)
{
    Rng r(17);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double v = r.normal(10.0, 2.0);
        sum += v;
        sq += (v - 10.0) * (v - 10.0);
    }
    EXPECT_NEAR(sum / n, 10.0, 0.05);
    EXPECT_NEAR(sq / n, 4.0, 0.15);
}

TEST(Rng, ClampedNormalRespectsLimit)
{
    Rng r(19);
    for (int i = 0; i < 20000; ++i) {
        double v = r.clampedNormal(0.0, 50.0, 110.0);
        ASSERT_GE(v, -110.0);
        ASSERT_LE(v, 110.0);
    }
}

TEST(Rng, ForkIndependentButDeterministic)
{
    Rng a(23), b(23);
    Rng fa = a.fork();
    Rng fb = b.fork();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, EqualityTracksTheWholeState)
{
    Rng a(5), b(5);
    EXPECT_TRUE(a == b);
    a.next();
    EXPECT_FALSE(a == b);
    b.next();
    EXPECT_TRUE(a == b);
    // One normal() draw leaves its Box-Muller partner pending: equal
    // words, different state.
    Rng c = a;
    a.normal(0.0, 1.0);
    Rng d = a;
    d.normal(0.0, 1.0);  // consumes the pending partner only
    EXPECT_FALSE(a == d);
    c.normal(0.0, 1.0);
    EXPECT_TRUE(a == c);
    EXPECT_EQ(a.normal(0.0, 1.0), c.normal(0.0, 1.0));
    EXPECT_TRUE(a == c);
    EXPECT_TRUE(a == d);
}
