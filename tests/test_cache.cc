/**
 * @file
 * Tests for the cache models and main memory.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "util/spec.hh"

using namespace mcd;
using namespace mcd::sim;

TEST(Cache, ColdMissThenHit)
{
    Cache c(64, 2, 64);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x103F));   // same line
    EXPECT_FALSE(c.access(0x1040));  // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // 1 KB, 2-way, 64 B lines -> 16 lines, 8 sets; addresses a set
    // apart by 8 lines collide.
    Cache c2(1, 2, 64);
    ASSERT_EQ(c2.numSets(), 8u);
    std::uint64_t set_stride = 8 * 64;
    EXPECT_FALSE(c2.access(0 * set_stride));
    EXPECT_FALSE(c2.access(1 * set_stride));
    EXPECT_TRUE(c2.access(0 * set_stride));  // 0 now MRU
    EXPECT_FALSE(c2.access(2 * set_stride)); // evicts 1
    EXPECT_TRUE(c2.access(0 * set_stride));
    EXPECT_FALSE(c2.access(1 * set_stride)); // 1 was evicted
}

TEST(Cache, DirectMappedConflicts)
{
    Cache c(1, 1, 64);  // 1 KB direct mapped: 16 sets
    std::uint64_t stride = 16 * 64;
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(stride));   // conflict
    EXPECT_FALSE(c.access(0));        // conflict again
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(1, 2, 64);
    c.access(0x40);
    EXPECT_TRUE(c.probe(0x40));
    EXPECT_FALSE(c.probe(0x9940));
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 0u);  // probes are not counted
}

TEST(Cache, WorkingSetBiggerThanCacheMisses)
{
    Cache c(64, 2, 64);  // 64 KB
    // Stream 1 MB twice: second pass still misses (capacity).
    std::uint64_t misses_before;
    for (std::uint64_t a = 0; a < (1u << 20); a += 64)
        c.access(a);
    misses_before = c.misses();
    for (std::uint64_t a = 0; a < (1u << 20); a += 64)
        c.access(a);
    EXPECT_EQ(c.misses(), 2 * misses_before);
}

TEST(Cache, SmallWorkingSetFitsAfterWarmup)
{
    Cache c(64, 2, 64);
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 16 * 1024; a += 64)
            c.access(a);
    // Second pass should be all hits.
    EXPECT_EQ(c.misses(), 16 * 1024 / 64);
}

TEST(Cache, BadGeometryThrowsSpecError)
{
    EXPECT_THROW(Cache(0, 2, 64), util::SpecError);
    EXPECT_THROW(Cache(64, 0, 64), util::SpecError);
    EXPECT_THROW(Cache(64, 2, 0), util::SpecError);
    // 64 KB of 64 B lines is 1024 lines, which 3 ways do not divide.
    EXPECT_THROW(Cache(64, 3, 64), util::SpecError);
}

TEST(MainMemory, FixedLatency)
{
    MainMemory m(60000, 4000);
    EXPECT_EQ(m.access(1000), 61000u);
    EXPECT_EQ(m.requests(), 1u);
}

TEST(MainMemory, BusSerializesBackToBack)
{
    MainMemory m(60000, 4000);
    Tick t1 = m.access(0);
    Tick t2 = m.access(0);
    Tick t3 = m.access(0);
    EXPECT_EQ(t1, 60000u);
    EXPECT_EQ(t2, 64000u);  // queued behind first
    EXPECT_EQ(t3, 68000u);
    // A late request after the bus drains sees only the latency.
    EXPECT_EQ(m.access(1'000'000), 1'060'000u);
}
