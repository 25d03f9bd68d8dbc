/**
 * @file
 * Tests for the tiled many-core chip (src/chip/): the `multi:`
 * co-schedule grammar, byte-identity of a one-tile chip with the
 * bare single-core simulator (fast-forward on and off, with and
 * without a per-tile controller), same-seed determinism of
 * multi-tile co-schedules down to the per-domain edge schedule,
 * shared-uncore contention, the chip-level coordinator, the
 * watchdog at chip scope, and chip-cell memoization in the
 * experiment runner.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chip/chip.hh"
#include "chip/multi.hh"
#include "control/online.hh"
#include "control/policy.hh"
#include "exp/experiment.hh"
#include "sim/processor.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"
#include "workload/suite.hh"

using namespace mcd;
using namespace mcd::sim;

namespace
{

constexpr std::uint64_t WINDOW = 20'000;

/** A short memory-lean generated workload spec. */
const char *GEN_A = "gen:phases=2,mem=0.1,seed=3";
/** A short memory-heavy generated workload spec. */
const char *GEN_B = "gen:phases=2,mem=0.6,seed=9";

/** Every field of two RunResults must match bit-for-bit. */
void
expectIdenticalResults(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.timePs, b.timePs);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.feCycles, b.feCycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.chipEnergyNj, b.chipEnergyNj);
    EXPECT_EQ(a.dramEnergyNj, b.dramEnergyNj);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.reconfigs, b.reconfigs);
    EXPECT_EQ(a.overheadCycles, b.overheadCycles);
    EXPECT_EQ(a.ffEdges, b.ffEdges);
    for (Domain d : scaledDomains()) {
        auto i = static_cast<std::size_t>(d);
        EXPECT_EQ(a.avgFreq[i], b.avgFreq[i]);
        EXPECT_EQ(a.domainEnergyNj[i], b.domainEnergyNj[i]);
    }
}

} // namespace

// ------------------------------------------------------------------ //
// multi: co-schedule grammar                                         //
// ------------------------------------------------------------------ //

TEST(MultiSpec, PlainSpecReplicatesAcrossTiles)
{
    auto v = chip::parseMultiSpec("gsm_decode", 3);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "gsm_decode");
    EXPECT_EQ(v[1], "gsm_decode");
    EXPECT_EQ(v[2], "gsm_decode");
    EXPECT_EQ(chip::canonicalMultiSpec("gsm_decode", 2),
              "multi:t0=gsm_decode,t1=gsm_decode");
}

TEST(MultiSpec, EntriesMayContainColonsAndCommas)
{
    auto v = chip::parseMultiSpec(
        "multi:t0=gsm_decode,t1=gen:phases=4,mem=0.4,seed=7");
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], "gsm_decode");
    // The nested gen: spec canonicalizes parameter-complete.
    EXPECT_EQ(v[1],
              workload::canonicalWorkloadSpec(
                  "gen:phases=4,mem=0.4,seed=7"));
}

TEST(MultiSpec, TileOrderIsCanonicalized)
{
    std::string canon = chip::canonicalMultiSpec(
        "multi:t1=gsm_encode,t0=gsm_decode");
    EXPECT_EQ(canon, "multi:t0=gsm_decode,t1=gsm_encode");
    // Canonicalization is idempotent.
    EXPECT_EQ(chip::canonicalMultiSpec(canon), canon);
}

TEST(MultiSpec, RejectsMalformedCoSchedules)
{
    using workload::SpecError;
    EXPECT_THROW(chip::parseMultiSpec("multi:"), SpecError);
    EXPECT_THROW(chip::parseMultiSpec("multi:gsm_decode"), SpecError);
    EXPECT_THROW(chip::parseMultiSpec("multi:t0="), SpecError);
    // Duplicate and non-contiguous tile indices.
    EXPECT_THROW(
        chip::parseMultiSpec("multi:t0=gsm_decode,t0=gsm_encode"),
        SpecError);
    EXPECT_THROW(
        chip::parseMultiSpec("multi:t0=gsm_decode,t2=gsm_encode"),
        SpecError);
    // Tile-count mismatch and unknown sub-workload.
    EXPECT_THROW(chip::parseMultiSpec("multi:t0=gsm_decode", 2),
                 SpecError);
    EXPECT_THROW(chip::parseMultiSpec("multi:t0=no_such_workload"),
                 SpecError);
}

// ------------------------------------------------------------------ //
// N=1 equivalence with the single-core simulator                     //
// ------------------------------------------------------------------ //

/** Param: fast-forward mode. */
using ChipEquivalence = ::testing::TestWithParam<bool>;

TEST_P(ChipEquivalence, OneTileChipIsByteIdenticalToProcessor)
{
    SimConfig cfg;
    cfg.fastForward = GetParam();
    power::PowerConfig pcfg;

    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    Processor proc(cfg, pcfg, bm.program, bm.ref);
    RunResult single = proc.run(WINDOW);

    chip::ChipConfig ccfg;
    chip::Chip c(ccfg, cfg, pcfg, {"gsm_decode"});
    chip::ChipResult r = c.run(WINDOW);

    ASSERT_EQ(r.tiles.size(), 1u);
    expectIdenticalResults(single, r.tiles[0]);
    // One tile has no shared uncore: no fabric energy, no queueing.
    EXPECT_EQ(r.uncoreEnergyNj, 0.0);
    EXPECT_EQ(r.uncore.l2Grants, 0u);
    EXPECT_EQ(r.timePs, single.timePs ? r.timePs : 0u);
}

TEST_P(ChipEquivalence, OneTileChipMatchesUnderOnlineController)
{
    // The fig04 path: the on-line attack/decay controller drives the
    // domains.  A one-tile chip with the same controller must follow
    // the identical trajectory.
    SimConfig cfg;
    cfg.fastForward = GetParam();
    power::PowerConfig pcfg;
    control::OnlineConfig ocfg;
    ocfg.intIqSize = cfg.intIqSize;
    ocfg.fpIqSize = cfg.fpIqSize;
    ocfg.lsqSize = cfg.lsqSize;
    ocfg.robSize = cfg.robSize;
    ocfg.aggressiveness = 2.0;

    // The memory-heavy generated workload keeps some domains idle
    // enough that the controller actually moves frequencies.
    std::string bench = workload::canonicalWorkloadSpec(GEN_B);
    workload::Benchmark bm = workload::makeBenchmark(bench);
    Processor proc(cfg, pcfg, bm.program, bm.ref);
    control::AttackDecayController single_ctl(ocfg, cfg);
    proc.setIntervalHook(&single_ctl, ocfg.intervalInstrs);
    RunResult single = proc.run(WINDOW);

    chip::ChipConfig ccfg;
    chip::Chip c(ccfg, cfg, pcfg, {bench});
    control::AttackDecayController chip_ctl(ocfg, cfg);
    c.setTileHook(0, &chip_ctl, ocfg.intervalInstrs);
    chip::ChipResult r = c.run(WINDOW);

    ASSERT_EQ(r.tiles.size(), 1u);
    // The controller really moved frequencies (a trajectory of
    // all-max would make this equivalence vacuous)...
    EXPECT_LT(single.avgFreq[domainIndex(Domain::Integer)],
              cfg.maxMhz);
    // ...and the chip tile followed the identical one.
    expectIdenticalResults(single, r.tiles[0]);
}

INSTANTIATE_TEST_SUITE_P(Modes, ChipEquivalence,
                         ::testing::Values(false, true));

// ------------------------------------------------------------------ //
// Multi-tile determinism and contention                              //
// ------------------------------------------------------------------ //

TEST(Chip, SameSeedCoScheduleIsBitReproducible)
{
    SimConfig cfg;
    cfg.fastForward = true;
    power::PowerConfig pcfg;
    std::string spec = std::string("multi:t0=gsm_decode,t1=") +
                       GEN_A + ",t2=" + GEN_B + ",t3=gsm_encode";
    auto tiles = chip::parseMultiSpec(spec);
    ASSERT_EQ(tiles.size(), 4u);

    auto once = [&] {
        chip::Chip c(chip::ChipConfig{}, cfg, pcfg, tiles);
        return c.run(WINDOW);
    };
    chip::ChipResult a = once();
    chip::ChipResult b = once();

    ASSERT_EQ(a.tiles.size(), b.tiles.size());
    for (std::size_t k = 0; k < a.tiles.size(); ++k)
        expectIdenticalResults(a.tiles[k], b.tiles[k]);
    EXPECT_EQ(a.timePs, b.timePs);
    EXPECT_EQ(a.uncoreEnergyNj, b.uncoreEnergyNj);
    EXPECT_EQ(a.uncore.l2Grants, b.uncore.l2Grants);
    EXPECT_EQ(a.uncore.l2QueuedPs, b.uncore.l2QueuedPs);
    EXPECT_EQ(a.uncore.dramAccesses, b.uncore.dramAccesses);
    EXPECT_EQ(a.uncore.dramQueuedPs, b.uncore.dramQueuedPs);
    EXPECT_EQ(a.tileDramAccesses, b.tileDramAccesses);

    // Down to the edge schedule: every tile consumed the same number
    // of edges per domain in both runs.
    chip::Chip c1(chip::ChipConfig{}, cfg, pcfg, tiles);
    chip::Chip c2(chip::ChipConfig{}, cfg, pcfg, tiles);
    c1.run(WINDOW);
    c2.run(WINDOW);
    for (int k = 0; k < 4; ++k)
        for (Domain d : scaledDomains())
            EXPECT_EQ(c1.tile(k).domainEdges(d),
                      c2.tile(k).domainEdges(d))
                << "tile " << k;
}

TEST(Chip, DistinctTilesSeeDistinctJitterStreams)
{
    // Same workload on two tiles: the derived per-tile jitter seeds
    // must decorrelate them (identical streams would make the
    // co-schedule an unrealistic lockstep march).
    SimConfig cfg;
    cfg.fastForward = true;
    power::PowerConfig pcfg;
    chip::Chip c(chip::ChipConfig{}, cfg, pcfg,
                 {"gsm_decode", "gsm_decode"});
    chip::ChipResult r = c.run(WINDOW);
    ASSERT_EQ(r.tiles.size(), 2u);
    EXPECT_EQ(r.tiles[0].instrs, r.tiles[1].instrs);
    EXPECT_NE(r.tiles[0].timePs, r.tiles[1].timePs);
}

TEST(Chip, SharedUncoreMakesCoScheduledTilesInterfere)
{
    SimConfig cfg;
    cfg.fastForward = true;
    power::PowerConfig pcfg;

    workload::Benchmark bm = workload::makeBenchmark(
        workload::canonicalWorkloadSpec(GEN_B));
    Processor proc(cfg, pcfg, bm.program, bm.ref);
    RunResult alone = proc.run(WINDOW);

    chip::Chip c(chip::ChipConfig{}, cfg, pcfg, {GEN_B, GEN_B, GEN_B,
                                                 GEN_B});
    chip::ChipResult r = c.run(WINDOW);

    // Tile 0 runs the exact same program with the exact same seed as
    // the lone core, but now queues behind three memory-heavy
    // neighbours: it can only be slower, and the uncore must have
    // seen queueing and burned fabric energy.
    EXPECT_GE(r.tiles[0].timePs, alone.timePs);
    EXPECT_GT(r.uncore.l2Grants, 0u);
    EXPECT_GT(r.uncore.dramAccesses, 0u);
    EXPECT_GT(r.uncoreEnergyNj, 0.0);
    std::uint64_t dram_sum = 0;
    for (std::uint64_t n : r.tileDramAccesses)
        dram_sum += n;
    EXPECT_EQ(dram_sum, r.uncore.dramAccesses);
}

// ------------------------------------------------------------------ //
// Coordinator                                                        //
// ------------------------------------------------------------------ //

TEST(Chip, CoordinatorMovesTheUncoreFrequency)
{
    SimConfig cfg;
    cfg.fastForward = true;
    power::PowerConfig pcfg;
    chip::ChipConfig ccfg;
    ccfg.l2PortCycles = 8;        // force visible contention
    ccfg.coordIntervalPs = 100'000;

    // An always-idle-looking threshold pair drives the uncore down.
    chip::CoordConfig coord =
        chip::parseCoordSpec("chip-coord:hi=900,lo=800");
    EXPECT_TRUE(coord.enabled);
    EXPECT_EQ(coord.canonSpec,
              "chip-coord:hi=900.000,lo=800.000,step=0.100");

    chip::Chip c(ccfg, cfg, pcfg, {GEN_B, GEN_B});
    c.setCoordinator(coord);
    chip::ChipResult r = c.run(WINDOW);
    EXPECT_GT(r.uncoreReconfigs, 0u);
    EXPECT_LT(r.uncoreAvgMhz, ccfg.uncoreMaxMhz);

    // Without a coordinator the uncore pins at max.
    chip::Chip c2(ccfg, cfg, pcfg, {GEN_B, GEN_B});
    chip::ChipResult r2 = c2.run(WINDOW);
    EXPECT_EQ(r2.uncoreReconfigs, 0u);
    EXPECT_EQ(r2.uncoreAvgMhz, ccfg.uncoreMaxMhz);
}

TEST(Chip, NoTilesThrowsSpecError)
{
    EXPECT_THROW(chip::Chip(chip::ChipConfig{}, SimConfig{},
                            power::PowerConfig{}, {}),
                 util::SpecError);
}

TEST(Chip, CoordSpecValidation)
{
    // Input text -> canonical text, or "error: " and the message.
    // Canonical strings are chip cache keys and wire labels.
    auto result = [](const std::string &text) {
        try {
            return chip::parseCoordSpec(text).canonSpec;
        } catch (const workload::SpecError &e) {
            return std::string("error: ") + e.what();
        }
    };
    const struct
    {
        const char *input;
        const char *expect;
    } cases[] = {
        {"chip-coord",
         "chip-coord:hi=0.250,lo=0.050,step=0.100"},
        {"chip-coord:hi=900,lo=800",
         "chip-coord:hi=900.000,lo=800.000,step=0.100"},
        {"chip-coord:step=0.25,lo=0",
         "chip-coord:hi=0.250,lo=0.000,step=0.250"},
        {"online",
         "error: unknown coordinator 'online' (known: chip-coord)"},
        {"chip-coord:bogus=1",
         "error: coordinator 'chip-coord' has no parameter 'bogus' "
         "(takes: hi lo step)"},
        {"chip-coord:step=2",
         "error: coordinator 'chip-coord' parameter 'step': 2 is out "
         "of range [0, 1]"},
        {"chip-coord:hi=0.1,lo=0.2",
         "error: coordinator spec 'chip-coord:hi=0.1,lo=0.2': lo=0.2 "
         "exceeds hi=0.1"},
        {"chip-coord:hi",
         "error: bad coordinator spec 'chip-coord:hi': parameter 'hi' "
         "is not of the form key=value"},
    };
    for (const auto &c : cases)
        EXPECT_EQ(result(c.input), c.expect) << c.input;

    chip::CoordConfig off = chip::parseCoordSpec("");
    EXPECT_FALSE(off.enabled);
    EXPECT_EQ(off.canonSpec, "");
}

// ------------------------------------------------------------------ //
// Watchdog at chip scope                                             //
// ------------------------------------------------------------------ //

TEST(ChipDeathTest, WatchdogPanicsWithoutCommitProgress)
{
    SimConfig cfg;
    cfg.watchdogPs = 10;  // first edge arrives after ~1000 ps
    power::PowerConfig pcfg;
    chip::Chip c(chip::ChipConfig{}, cfg, pcfg,
                 {"gsm_decode", "gsm_encode"});
    EXPECT_DEATH(c.run(1000), "no commit progress");
}

// ------------------------------------------------------------------ //
// Chip cells in the experiment runner                                //
// ------------------------------------------------------------------ //

TEST(ChipRunner, ChipCellsMemoizePerRow)
{
    exp::ExpConfig cfg;
    cfg.sim.fastForward = true;
    cfg.productionWindow = WINDOW;
    exp::Runner runner(cfg);

    exp::ChipCell cell;
    cell.workload = "gsm_decode";
    cell.tiles = 2;

    auto keys = runner.chipCacheKeys(cell);
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_NE(keys[0].find("tile=0"), std::string::npos);
    EXPECT_NE(keys[1].find("tile=1"), std::string::npos);
    EXPECT_NE(keys[2].find("tile=u"), std::string::npos);
    EXPECT_NE(keys[0].find("coord=off"), std::string::npos);
    EXPECT_NE(
        keys[0].find("multi:t0=gsm_decode,t1=gsm_decode"),
        std::string::npos);

    auto first = runner.runChip(cell);
    ASSERT_EQ(first.size(), 3u);
    std::uint64_t misses = runner.memoMisses();
    EXPECT_EQ(misses, 3u);

    // Second request: every row is served from the memo.
    auto second = runner.runChip(cell);
    EXPECT_EQ(runner.memoMisses(), misses);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].timePs, second[i].timePs);
        EXPECT_EQ(first[i].energyNj, second[i].energyNj);
    }
    EXPECT_GT(first[0].timePs, 0.0);
    EXPECT_GT(first[2].energyNj, 0.0);  // uncore fabric row
}

TEST(ChipRunner, RejectsNonTileCapablePolicies)
{
    exp::Runner runner;
    exp::ChipCell cell;
    cell.workload = "gsm_decode";
    cell.tiles = 2;
    cell.tilePolicy = control::PolicySpec::of("profile");
    try {
        runner.runChip(cell);
        FAIL() << "profile must not drive chip tiles";
    } catch (const workload::SpecError &e) {
        // The message names the tile-capable alternatives.
        EXPECT_NE(std::string(e.what()).find("baseline"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("online"),
                  std::string::npos);
    }
}

TEST(ChipRunner, OneTileChipCellMatchesSingleCoreCell)
{
    exp::ExpConfig cfg;
    cfg.sim.fastForward = true;
    cfg.productionWindow = WINDOW;
    exp::Runner runner(cfg);

    exp::Outcome single =
        runner.run("gsm_decode", control::PolicySpec::of("baseline"));

    exp::ChipCell cell;
    cell.workload = "gsm_decode";
    cell.tiles = 1;
    auto rows = runner.runChip(cell);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].timePs, single.timePs);
    EXPECT_EQ(rows[0].energyNj, single.energyNj);
    EXPECT_EQ(rows[1].energyNj, 0.0);  // no uncore on one tile
}

// ------------------------------------------------------------------ //
// Registry listings are canonically sorted (CLI smoke stability)     //
// ------------------------------------------------------------------ //

TEST(Registries, ListingsAreNameSorted)
{
    auto policies = control::PolicyRegistry::instance().list();
    ASSERT_GT(policies.size(), 1u);
    for (std::size_t i = 1; i < policies.size(); ++i)
        EXPECT_LT(std::string(policies[i - 1]->name()),
                  std::string(policies[i]->name()));

    auto workloads = workload::WorkloadRegistry::instance().list();
    ASSERT_GT(workloads.size(), 1u);
    for (std::size_t i = 1; i < workloads.size(); ++i)
        EXPECT_LT(std::string(workloads[i - 1]->name()),
                  std::string(workloads[i]->name()));
}
