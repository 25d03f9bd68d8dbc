/**
 * @file
 * Tests for the Wattch-style power model: V^2 scaling, domain
 * attribution, leakage.
 */

#include <gtest/gtest.h>

#include "power/power.hh"

using namespace mcd;
using namespace mcd::power;

TEST(PowerModel, AccessEnergyScalesWithVSquared)
{
    PowerConfig cfg;
    PowerModel full(cfg), half(cfg);
    full.access(Unit::IntAlu, 1.2);
    half.access(Unit::IntAlu, 0.6);
    EXPECT_NEAR(half.chipEnergyNj() / full.chipEnergyNj(), 0.25, 1e-9);
}

TEST(PowerModel, DomainAttribution)
{
    PowerConfig cfg;
    PowerModel p(cfg);
    p.access(Unit::FpAlu, 1.2);
    EXPECT_GT(p.domainEnergyNj(Domain::FloatingPoint), 0.0);
    EXPECT_DOUBLE_EQ(p.domainEnergyNj(Domain::Integer), 0.0);
    p.access(Unit::Dcache, 1.2);
    EXPECT_GT(p.domainEnergyNj(Domain::Memory), 0.0);
}

TEST(PowerModel, DramExcludedFromChipEnergy)
{
    PowerConfig cfg;
    PowerModel p(cfg);
    p.access(Unit::Dram, 1.2);
    EXPECT_DOUBLE_EQ(p.chipEnergyNj(), 0.0);
    EXPECT_GT(p.dramEnergyNj(), 0.0);
}

TEST(PowerModel, ClockCyclePerDomain)
{
    PowerConfig cfg;
    PowerModel p(cfg);
    for (int i = 0; i < 1000; ++i)
        p.clockCycle(Domain::FrontEnd, 1.2);
    double fe = p.domainEnergyNj(Domain::FrontEnd);
    EXPECT_NEAR(fe, cfg.clockPj[0], cfg.clockPj[0] * 1e-9);
    // External domain has no scaled clock tree.
    p.clockCycle(Domain::External, 1.2);
    EXPECT_DOUBLE_EQ(p.dramEnergyNj(), 0.0);
}

TEST(PowerModel, LeakageScalesLinearlyWithVAndTime)
{
    PowerConfig cfg;
    PowerModel a(cfg), b(cfg);
    a.leakage(Domain::Integer, 1.2, 1000);
    b.leakage(Domain::Integer, 0.6, 2000);
    // same energy: half voltage, double time
    EXPECT_NEAR(a.chipEnergyNj(), b.chipEnergyNj(), 1e-12);
}

TEST(PowerModel, AccessToChargesRequestedDomain)
{
    PowerConfig cfg;
    PowerModel p(cfg);
    p.accessTo(Unit::IssueQueue, Domain::FloatingPoint, 1.2);
    EXPECT_GT(p.domainEnergyNj(Domain::FloatingPoint), 0.0);
    EXPECT_DOUBLE_EQ(p.domainEnergyNj(Domain::Integer), 0.0);
}

TEST(PowerConfig, DomainWeightsNormalizedish)
{
    PowerConfig cfg;
    double sum = 0.0;
    for (double w : cfg.domainWeight)
        sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}
