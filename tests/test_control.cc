/**
 * @file
 * Tests for the baseline controllers: on-line attack/decay, off-line
 * oracle, global DVS.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "control/globaldvs.hh"
#include "control/ipc_guard.hh"
#include "control/offline.hh"
#include "control/online.hh"
#include "sim/processor.hh"
#include "workload/suite.hh"

using namespace mcd;
using namespace mcd::control;
using namespace mcd::sim;
using namespace mcd::workload;

namespace
{

/** Scripted DvfsControl for controller unit tests. */
class FakeDvfs : public DvfsControl
{
  public:
    void setTarget(Domain d, Mhz f) override
    {
        targets[static_cast<size_t>(d)] = f;
    }
    Mhz freq(Domain d) const override
    {
        return targets[static_cast<size_t>(d)];
    }
    Mhz targetFreq(Domain d) const override
    {
        return targets[static_cast<size_t>(d)];
    }
    std::array<Mhz, NUM_SCALED_DOMAINS> targets{1000.0, 1000.0, 1000.0,
                                                1000.0};
};

IntervalStats
stats(double ipc, double fe_occ, double int_occ, double fp_occ,
      double mem_occ, double rob)
{
    IntervalStats s;
    s.instrs = 2000;
    s.timePs = 2'000'000;
    s.ipc = ipc;
    s.queueOcc = {fe_occ, int_occ, fp_occ, mem_occ};
    s.robOcc = rob;
    return s;
}

} // namespace

TEST(AttackDecay, IdleDomainDecaysToFloor)
{
    OnlineConfig cfg;
    AttackDecayController ctl(cfg, SimConfig{});
    FakeDvfs dvfs;
    // FP queue empty throughout.
    for (int i = 0; i < 400; ++i)
        ctl.onInterval(stats(1.0, 2.0, 5.0, 0.0, 10.0, 40.0), dvfs);
    EXPECT_DOUBLE_EQ(dvfs.targets[static_cast<size_t>(
                         Domain::FloatingPoint)],
                     250.0);
}

TEST(AttackDecay, BackloggedQueueAttacksUp)
{
    OnlineConfig cfg;
    AttackDecayController ctl(cfg, SimConfig{});
    FakeDvfs dvfs;
    dvfs.targets[static_cast<size_t>(Domain::Integer)] = 500.0;
    // Integer queue nearly full: must attack upward.
    ctl.onInterval(stats(1.0, 2.0, 18.0, 1.0, 10.0, 40.0), dvfs);
    ctl.onInterval(stats(1.0, 2.0, 18.0, 1.0, 10.0, 40.0), dvfs);
    EXPECT_GT(dvfs.targets[static_cast<size_t>(Domain::Integer)],
              500.0);
    EXPECT_GT(ctl.attacks(), 0u);
}

TEST(AttackDecay, IpcCollapseTriggersRecovery)
{
    OnlineConfig cfg;
    AttackDecayController ctl(cfg, SimConfig{});
    FakeDvfs dvfs;
    for (int d = 0; d < NUM_SCALED_DOMAINS; ++d)
        dvfs.targets[static_cast<size_t>(d)] = 400.0;
    ctl.onInterval(stats(2.0, 2.0, 5.0, 1.0, 10.0, 40.0), dvfs);
    // IPC halves: recovery returns everything to full speed.
    ctl.onInterval(stats(1.0, 2.0, 5.0, 1.0, 10.0, 40.0), dvfs);
    for (int d = 0; d < NUM_SCALED_DOMAINS; ++d)
        EXPECT_DOUBLE_EQ(dvfs.targets[static_cast<size_t>(d)], 1000.0);
    EXPECT_GT(ctl.recoveries(), 0u);
}

TEST(AttackDecay, EmptyRobAttacksFrontEndUp)
{
    OnlineConfig cfg;
    AttackDecayController ctl(cfg, SimConfig{});
    FakeDvfs dvfs;
    dvfs.targets[static_cast<size_t>(Domain::FrontEnd)] = 400.0;
    ctl.onInterval(stats(1.0, 1.0, 5.0, 1.0, 10.0, 4.0), dvfs);
    ctl.onInterval(stats(1.0, 1.0, 5.0, 1.0, 10.0, 4.0), dvfs);
    EXPECT_GT(dvfs.targets[static_cast<size_t>(Domain::FrontEnd)],
              400.0);
}

TEST(AttackDecay, TargetsStayInLegalRange)
{
    OnlineConfig cfg;
    cfg.aggressiveness = 10.0;
    AttackDecayController ctl(cfg, SimConfig{});
    FakeDvfs dvfs;
    for (int i = 0; i < 500; ++i) {
        ctl.onInterval(stats(1.0 + (i % 3), i % 15, (i * 7) % 20,
                             (i * 3) % 15, (i * 5) % 60, (i * 11) % 80),
                       dvfs);
        for (int d = 0; d < NUM_SCALED_DOMAINS; ++d) {
            ASSERT_GE(dvfs.targets[static_cast<size_t>(d)], 250.0);
            ASSERT_LE(dvfs.targets[static_cast<size_t>(d)], 1000.0);
        }
    }
}

// IpcGuard: the collapse rule online, hybrid and learned share.

TEST(IpcGuard, NeverFiresOnTheFirstInterval)
{
    // A negative drop makes every interval after the first a
    // "collapse" (IPC below 1.5x the reference), so only the
    // first-interval exemption keeps the first call quiet.
    IpcGuard g(-0.5);
    EXPECT_FALSE(g.collapsed(1.0));
    EXPECT_TRUE(g.collapsed(1.0));
}

TEST(IpcGuard, FiresStrictlyBelowTheDropBoundary)
{
    const double drop = 0.10;
    // Reference 1.0, decayed once by the second interval.
    const double edge = 1.0 * 0.998 * (1.0 - drop);
    IpcGuard at(drop);
    at.collapsed(1.0);
    EXPECT_FALSE(at.collapsed(edge));
    IpcGuard below(drop);
    below.collapsed(1.0);
    EXPECT_TRUE(below.collapsed(std::nextafter(edge, 0.0)));
}

TEST(IpcGuard, ReferenceDecaysByPointNineNineEightPerInterval)
{
    // Feed exactly the boundary every interval: it moves down with
    // the reference, x0.998 per interval, and never fires.
    const double drop = 0.10;
    IpcGuard g(drop);
    g.collapsed(1.0);
    double ref = 1.0;
    for (int i = 0; i < 50; ++i) {
        ref *= 0.998;
        EXPECT_FALSE(g.collapsed(ref * (1.0 - drop))) << i;
    }
    ref *= 0.998;
    EXPECT_TRUE(g.collapsed(std::nextafter(ref * (1.0 - drop), 0.0)));
}

TEST(IpcGuard, RelaxLowersTheReferenceOnePercent)
{
    const double drop = 0.10;
    IpcGuard relaxed(drop);
    relaxed.collapsed(1.0);
    ASSERT_TRUE(relaxed.collapsed(0.5));
    relaxed.relax();
    // Reference: 1.0, decayed, relaxed, decayed again.
    double ref = 1.0 * 0.998 * 0.99 * 0.998;
    EXPECT_FALSE(relaxed.collapsed(ref * (1.0 - drop)));
    ref *= 0.998;
    EXPECT_TRUE(
        relaxed.collapsed(std::nextafter(ref * (1.0 - drop), 0.0)));

    // Without relax() the reference stays higher, so the same
    // boundary IPC is still a collapse.
    IpcGuard kept(drop);
    kept.collapsed(1.0);
    ASSERT_TRUE(kept.collapsed(0.5));
    EXPECT_TRUE(kept.collapsed(1.0 * 0.998 * 0.99 * 0.998 * (1.0 - drop)));
}

TEST(Offline, ProducesOnePointPerInterval)
{
    Benchmark bm = makeBenchmark("gsm_decode");
    SimConfig scfg;
    power::PowerConfig pcfg;
    OfflineConfig cfg;
    cfg.intervalInstrs = 5'000;
    auto sched = offlineAnalyze(cfg, bm.program, bm.train, scfg, pcfg,
                                30'000);
    EXPECT_EQ(sched.size(), 6u);
    // Points are sorted and lead-shifted.
    for (std::size_t i = 1; i < sched.size(); ++i)
        EXPECT_GT(sched[i].atInstr, sched[i - 1].atInstr);
    EXPECT_EQ(sched[0].atInstr, 0u);
}

TEST(Offline, RunSavesEnergyWithBoundedSlowdown)
{
    Benchmark bm = makeBenchmark("swim");
    SimConfig scfg;
    scfg.rampNsPerMhz = 2.2;
    power::PowerConfig pcfg;

    Processor base(scfg, pcfg, bm.program, bm.train);
    RunResult rb = base.run(60'000);

    OfflineConfig cfg;
    cfg.slowdownPct = 8.0;
    RunResult ro = offlineRun(cfg, bm.program, bm.train, scfg, pcfg,
                              60'000);
    EXPECT_LT(ro.chipEnergyNj, rb.chipEnergyNj * 0.95);
    double slow = (static_cast<double>(ro.timePs) -
                   static_cast<double>(rb.timePs)) /
                  static_cast<double>(rb.timePs);
    EXPECT_LT(slow, 0.30);
}

TEST(GlobalDvs, MatchesTargetRuntime)
{
    Benchmark bm = makeBenchmark("gsm_decode");
    SimConfig scfg;
    power::PowerConfig pcfg;
    // Target: 10% slower than full speed.
    Processor full(scfg, pcfg, bm.program, bm.train);
    RunResult rf = full.run(40'000);
    Tick target = rf.timePs + rf.timePs / 10;
    auto g = globalDvsMatch(bm.program, bm.train, scfg, pcfg, 40'000,
                            target, 7);
    EXPECT_LT(g.freq, 1000.0);
    EXPECT_LE(g.run.timePs, target);
    // Within ~6% below the target (bisection granularity).
    EXPECT_GT(static_cast<double>(g.run.timePs),
              static_cast<double>(target) * 0.90);
    EXPECT_LT(g.run.chipEnergyNj, rf.chipEnergyNj);
}

TEST(GlobalDvs, UnreachableTargetReturnsFullSpeed)
{
    Benchmark bm = makeBenchmark("gsm_decode");
    SimConfig scfg;
    power::PowerConfig pcfg;
    auto g = globalDvsMatch(bm.program, bm.train, scfg, pcfg, 20'000,
                            1, 4);
    EXPECT_DOUBLE_EQ(g.freq, 1000.0);
}
