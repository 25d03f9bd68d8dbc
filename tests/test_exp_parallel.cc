/**
 * @file
 * Tests for the parallel sweep engine and the memo-cache correctness
 * fixes: jobs=1 vs jobs=8 equivalence, concurrent store() safety,
 * whole lines from runners sharing one cache file, strict cache-line
 * validation, config-fingerprint keying, and graceful handling of
 * unwritable cache paths.
 *
 * The memo-abuse section at the bottom is the sweep server's
 * foundation: exact `memoHits()`/`memoMisses()` accounting (the
 * server's duplicate-suppression acceptance test keys off misses ==
 * distinct cells) and concurrent readers racing the jobs that append
 * to a cache file salted with truncated, garbled and foreign-version
 * lines.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "control/policy.hh"
#include "exp/experiment.hh"
#include "workload/suite.hh"

using namespace mcd;
using exp::ExpConfig;
using exp::Outcome;
using exp::Runner;
using exp::SweepCell;

namespace
{

/** Small windows so a full policy set stays test-sized. */
ExpConfig
smallConfig()
{
    ExpConfig cfg;
    cfg.productionWindow = 8'000;
    cfg.analysisWindow = 8'000;
    cfg.offlineInterval = 4'000;
    return cfg;
}

std::string
tempCachePath(const char *name)
{
    return ::testing::TempDir() + "mcd_exp_parallel_" + name + ".csv";
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

void
expectSameOutcome(const Outcome &a, const Outcome &b)
{
    EXPECT_DOUBLE_EQ(a.timePs, b.timePs);
    EXPECT_DOUBLE_EQ(a.energyNj, b.energyNj);
    EXPECT_DOUBLE_EQ(a.reconfigs, b.reconfigs);
    EXPECT_DOUBLE_EQ(a.overheadCycles, b.overheadCycles);
    EXPECT_DOUBLE_EQ(a.feCycles, b.feCycles);
    EXPECT_DOUBLE_EQ(a.dynReconfigPoints, b.dynReconfigPoints);
    EXPECT_DOUBLE_EQ(a.dynInstrPoints, b.dynInstrPoints);
    EXPECT_DOUBLE_EQ(a.staticReconfigPoints, b.staticReconfigPoints);
    EXPECT_DOUBLE_EQ(a.staticInstrPoints, b.staticInstrPoints);
    EXPECT_DOUBLE_EQ(a.tableBytes, b.tableBytes);
    EXPECT_DOUBLE_EQ(a.globalFreq, b.globalFreq);
    EXPECT_DOUBLE_EQ(a.metrics.slowdownPct, b.metrics.slowdownPct);
    EXPECT_DOUBLE_EQ(a.metrics.energySavingsPct,
                     b.metrics.energySavingsPct);
    EXPECT_DOUBLE_EQ(a.metrics.energyDelayImprovementPct,
                     b.metrics.energyDelayImprovementPct);
}

/** Every registered policy on two benchmarks: 12 interdependent
 *  cells (global depends on offline, every non-baseline cell on
 *  baseline, hybrid/profile share training). */
std::vector<SweepCell>
allPolicyCells()
{
    std::vector<SweepCell> cells;
    for (const char *bench : {"gsm_decode", "adpcm_decode"}) {
        cells.push_back(SweepCell::of(bench, "baseline"));
        cells.push_back(
            SweepCell::of(bench, "profile:mode=LF,d=10"));
        cells.push_back(SweepCell::of(bench, "offline:d=10"));
        cells.push_back(SweepCell::of(bench, "online:aggr=1"));
        cells.push_back(SweepCell::of(bench, "global:d=10"));
        cells.push_back(SweepCell::of(bench, "hybrid:d=10"));
    }
    return cells;
}

} // namespace

TEST(ExpParallel, JobsOneAndJobsEightAgreeExactly)
{
    std::vector<SweepCell> cells = allPolicyCells();
    Runner serial(smallConfig());
    std::vector<Outcome> s = serial.runSweep(cells, 1);
    Runner parallel(smallConfig());
    std::vector<Outcome> p = parallel.runSweep(cells, 8);
    ASSERT_EQ(s.size(), cells.size());
    ASSERT_EQ(p.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSameOutcome(s[i], p[i]);
    }
}

TEST(ExpParallel, ConcurrentStoresLoseNoLines)
{
    std::string path = tempCachePath("concurrent");
    std::remove(path.c_str());
    ExpConfig cfg = smallConfig();
    cfg.cacheFile = path;
    const auto &suite = workload::suiteNames();
    ASSERT_GE(suite.size(), 6u);
    std::vector<SweepCell> cells;
    for (std::size_t i = 0; i < 6; ++i) {
        cells.push_back(SweepCell::of(suite[i], "baseline"));
        cells.push_back(SweepCell::of(suite[i], "offline:d=10"));
    }
    {
        // Each job's store() appends its line whole under the cache
        // mutex; the destructor closes the file.
        Runner r(cfg);
        r.runSweep(cells, 8);
    }
    // 6 baseline + 6 offline outcomes, no duplicates, no torn lines.
    EXPECT_EQ(readLines(path).size(), 12u);
    Runner reload(cfg);
    EXPECT_EQ(reload.loadedFromCache(), 12u);
    EXPECT_EQ(reload.rejectedCacheLines(), 0u);
    std::remove(path.c_str());
}

TEST(ExpParallel, RunnersSharingACacheFileKeepLinesWhole)
{
    // The sweep server gives each window its own Runner on one cache
    // file.  A's lines are far more than a stream buffer holds; if a
    // line reached the file before its newline, B's line would land
    // inside it and glue the two into one line under a junk key.
    std::string path = tempCachePath("shared");
    std::remove(path.c_str());
    ExpConfig a_cfg = smallConfig();
    a_cfg.productionWindow = 500;
    a_cfg.cacheFile = path;
    ExpConfig b_cfg = a_cfg;
    b_cfg.productionWindow = 501;
    std::vector<SweepCell> cells;
    for (const std::string &bench : workload::suiteNames()) {
        cells.push_back(SweepCell::of(bench, "baseline"));
        for (int aggr = 1; aggr <= 5; ++aggr)
            cells.push_back(SweepCell::of(
                bench, "online:aggr=" + std::to_string(aggr)));
    }
    {
        Runner a(a_cfg);
        a.runSweep(cells, 1);
        ASSERT_EQ(a.memoMisses(), cells.size());
        {
            Runner b(b_cfg);
            b.run("gsm_decode", control::PolicySpec::of("baseline"));
        }
    }
    EXPECT_EQ(readLines(path).size(), cells.size() + 1);
    Runner reload(a_cfg);
    EXPECT_EQ(reload.loadedFromCache(), cells.size() + 1);
    EXPECT_EQ(reload.rejectedCacheLines(), 0u);
    reload.runSweep(cells, 1);
    EXPECT_EQ(reload.memoMisses(), 0u);
    std::remove(path.c_str());
}

TEST(ExpParallel, DuplicateCellsComputeOnce)
{
    std::string path = tempCachePath("dedup");
    std::remove(path.c_str());
    ExpConfig cfg = smallConfig();
    cfg.cacheFile = path;
    std::vector<SweepCell> cells(
        16, SweepCell::of("gsm_decode", "baseline"));
    std::vector<Outcome> out;
    {
        Runner r(cfg);
        out = r.runSweep(cells, 8);
    }
    for (std::size_t i = 1; i < out.size(); ++i)
        expectSameOutcome(out[0], out[i]);
    // 16 requests for one key -> exactly one computation and one
    // cache line.
    EXPECT_EQ(readLines(path).size(), 1u);
    std::remove(path.c_str());
}

TEST(ExpParallel, CacheHitShortCircuitsRecomputation)
{
    std::string path = tempCachePath("hit");
    std::remove(path.c_str());
    ExpConfig cfg = smallConfig();
    cfg.cacheFile = path;
    {
        Runner r(cfg);
        r.run("gsm_decode", control::PolicySpec::of("baseline"));
    }
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    // Rewrite the stored outcome with a sentinel time; a second
    // runner must serve the sentinel (cache hit), not recompute.
    std::string key = lines[0].substr(0, lines[0].find(','));
    std::ofstream(path, std::ios::trunc)
        << key << ",12345,1,0,0,0,0,0,0,0,0,0,0,0\n";
    Runner reload(cfg);
    EXPECT_EQ(reload.loadedFromCache(), 1u);
    EXPECT_DOUBLE_EQ(
        reload.run("gsm_decode", control::PolicySpec::of("baseline"))
            .timePs,
        12345.0);
    std::remove(path.c_str());
}

TEST(ExpParallel, DefaultConfigFingerprintIsPinned)
{
    // The fingerprint prefixes every cache key and pins every SWEEP
    // on the wire; the hash behind it must not move by one bit.
    EXPECT_EQ(exp::configFingerprint(ExpConfig{}),
              0x1f0f06a48de36e54ULL);
}

TEST(ExpParallel, MismatchedConfigFingerprintMissesCache)
{
    ExpConfig a = smallConfig();
    ExpConfig same = smallConfig();
    ExpConfig b = smallConfig();
    b.sim.singleClock = true;
    ExpConfig c = smallConfig();
    c.sim.rampNsPerMhz *= 2.0;
    ExpConfig d = smallConfig();
    d.sim.fastForward = !d.sim.fastForward;
    EXPECT_EQ(exp::configFingerprint(a), exp::configFingerprint(same));
    EXPECT_NE(exp::configFingerprint(a), exp::configFingerprint(b));
    EXPECT_NE(exp::configFingerprint(a), exp::configFingerprint(c));
    // Kernel modes agree on timing but not on the last bits of the
    // energy sums; they must never share cache lines.
    EXPECT_NE(exp::configFingerprint(a), exp::configFingerprint(d));

    // A sentinel outcome stored under config a's key must not be
    // served to a runner configured with b.
    std::string path = tempCachePath("fingerprint");
    std::remove(path.c_str());
    a.cacheFile = b.cacheFile = path;
    {
        Runner r(a);
        r.run("gsm_decode", control::PolicySpec::of("baseline"));
    }
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    std::string key = lines[0].substr(0, lines[0].find(','));
    std::ofstream(path, std::ios::trunc)
        << key << ",12345,1,0,0,0,0,0,0,0,0,0,0,0\n";
    Runner rb(b);
    EXPECT_EQ(rb.loadedFromCache(), 1u);  // line loads under a's key
    // ...but b recomputes.
    Outcome ob =
        rb.run("gsm_decode", control::PolicySpec::of("baseline"));
    EXPECT_NE(ob.timePs, 12345.0);
    std::remove(path.c_str());
}

TEST(ExpParallel, MalformedCacheLinesAreRejected)
{
    std::string path = tempCachePath("malformed");
    std::remove(path.c_str());
    ExpConfig cfg = smallConfig();
    cfg.cacheFile = path;
    {
        Runner r(cfg);
        r.run("gsm_decode", control::PolicySpec::of("baseline"));
    }
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    const std::string &good = lines[0];
    std::string truncated = good.substr(0, good.size() / 2);
    {
        std::ofstream out(path, std::ios::trunc);
        out << good << '\n';
        out << truncated << '\n';          // interrupted-run tail
        // An extra numeric field is absorbed into the key (keys may
        // contain commas since canonical specs do), landing under a
        // dead key that can never be requested — harmless.
        out << good << ",99\n";
        out << "k,1,2,3,4,5,6,7,8,9,10,1.5x,12,13\n";  // bad numeric
        out << ",1,2,3,4,5,6,7,8,9,10,11,12,13\n";      // empty key
        out << '\n';                       // blank line: ignored
        out << good;                       // no trailing newline: ok
    }
    Runner reload(cfg);
    EXPECT_EQ(reload.loadedFromCache(), 3u);
    EXPECT_EQ(reload.rejectedCacheLines(), 3u);
    std::remove(path.c_str());
}

TEST(ExpParallel, UnwritableCachePathDegradesGracefully)
{
    ExpConfig cfg = smallConfig();
    cfg.cacheFile = "/nonexistent-mcd-dir/deep/cache.csv";
    Runner r(cfg);  // warns once, then runs without persistence
    const control::PolicySpec bl = control::PolicySpec::of("baseline");
    Outcome o = r.run("gsm_decode", bl);
    EXPECT_GT(o.timePs, 0.0);
    // The in-memory memo still works across a second request.
    expectSameOutcome(o, r.run("gsm_decode", bl));
}

TEST(ExpParallel, SweepResultsMatchDirectPolicyCalls)
{
    // The batch API must be a pure reordering of single-cell run()
    // calls with programmatically built specs.
    ExpConfig cfg = smallConfig();
    Runner sweep(cfg);
    std::vector<SweepCell> cells = allPolicyCells();
    std::vector<Outcome> out = sweep.runSweep(cells, 8);
    Runner direct(cfg);
    std::size_t i = 0;
    for (const char *bench : {"gsm_decode", "adpcm_decode"}) {
        SCOPED_TRACE(bench);
        expectSameOutcome(
            out[i++], direct.run(bench, control::PolicySpec::of("baseline")));
        expectSameOutcome(
            out[i++],
            direct.run(bench, control::PolicySpec::of("profile")
                                  .set("mode", core::ContextMode::LF)
                                  .set("d", 10.0)));
        expectSameOutcome(
            out[i++],
            direct.run(bench,
                       control::PolicySpec::of("offline").set("d", 10.0)));
        expectSameOutcome(
            out[i++],
            direct.run(bench,
                       control::PolicySpec::of("online").set("aggr", 1.0)));
        expectSameOutcome(
            out[i++],
            direct.run(bench, control::PolicySpec::of("global")
                                  .set("d", 10.0)));
        expectSameOutcome(
            out[i++],
            direct.run(bench, control::PolicySpec::of("hybrid")
                                  .set("d", 10.0)));
    }
}

// ---------------------------------------------------------------- //
// Memo abuse: the counters and races the sweep server builds on    //
// ---------------------------------------------------------------- //

TEST(ExpParallel, MemoCountersCountDistinctCellsExactly)
{
    // 8 copies of 4 distinct cells, raced across 8 jobs.  However
    // the threads interleave, exactly one lookup per distinct key
    // wins ownership: misses == 4 == cells actually simulated.
    std::vector<SweepCell> base = {
        SweepCell::of("gsm_decode", "baseline"),
        SweepCell::of("gsm_decode", "offline:d=10"),
        SweepCell::of("adpcm_decode", "baseline"),
        SweepCell::of("adpcm_decode", "offline:d=10"),
    };
    std::vector<SweepCell> cells;
    for (int rep = 0; rep < 8; ++rep)
        cells.insert(cells.end(), base.begin(), base.end());
    Runner r(smallConfig());
    r.runSweep(cells, 8);
    EXPECT_EQ(r.memoMisses(), 4u);
    // Hits are deterministic too: 32 sweep lookups + 16 baseline
    // lookups from the offline cells' metrics (vsBaseline sits
    // outside the memo, so every offline run() does one), minus the
    // 4 owners.
    EXPECT_EQ(r.memoHits(), 32u + 16u - 4u);

    // The per-call flag reports the same thing request-by-request.
    Runner fresh(smallConfig());
    bool hit = true;
    fresh.run("gsm_decode", control::PolicySpec::of("baseline"),
              &hit);
    EXPECT_FALSE(hit);
    fresh.run("gsm_decode", control::PolicySpec::of("baseline"),
              &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(fresh.memoMisses(), 1u);
    EXPECT_EQ(fresh.memoHits(), 1u);
}

TEST(ExpParallel, CachePreloadedCellCountsAsMemoHit)
{
    std::string path = tempCachePath("preload_hit");
    std::remove(path.c_str());
    ExpConfig cfg = smallConfig();
    cfg.cacheFile = path;
    {
        Runner r(cfg);
        r.run("gsm_decode", control::PolicySpec::of("baseline"));
    }
    Runner reload(cfg);
    ASSERT_EQ(reload.loadedFromCache(), 1u);
    bool hit = false;
    reload.run("gsm_decode", control::PolicySpec::of("baseline"),
               &hit);
    // A CSV-preloaded cell is a hit, not a miss: nothing was
    // simulated on this runner's watch.
    EXPECT_TRUE(hit);
    EXPECT_EQ(reload.memoHits(), 1u);
    EXPECT_EQ(reload.memoMisses(), 0u);
    std::remove(path.c_str());
}

TEST(ExpParallel, ConcurrentReadersRaceWriterOverCorruptCache)
{
    // The hostile-restart scenario: the cache file holds a mix of a
    // valid (sentinel-rewritten) line, a foreign-CACHE_VERSION line,
    // a foreign-fingerprint line, a truncated tail and a garbled
    // numeric — then 8 sweep jobs, each appending its computed cells
    // to the file, race dedicated reader threads over it.
    std::string path = tempCachePath("abuse");
    std::remove(path.c_str());
    ExpConfig cfg = smallConfig();
    cfg.cacheFile = path;
    {
        Runner r(cfg);
        r.run("gsm_decode", control::PolicySpec::of("baseline"));
    }
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 1u);
    const std::string &good = lines[0];
    ASSERT_EQ(good[0], 'v');
    std::string key = good.substr(0, good.find(','));
    // Same key, different cache version: loads, but under a dead key
    // no current-version request can ever form.
    std::string foreignVersion =
        "v0" + good.substr(good.find('|'));
    // Same version, one fingerprint hex digit flipped: also dead.
    std::string foreignFp = good;
    std::size_t fpDigit = good.find('|') + 2;  // "...|c<hex16>|..."
    foreignFp[fpDigit] = foreignFp[fpDigit] == '0' ? '1' : '0';
    {
        std::ofstream out(path, std::ios::trunc);
        out << key << ",777,1,0,0,0,0,0,0,0,0,0,0,0\n";
        out << foreignVersion << '\n';
        out << foreignFp << '\n';
        out << good.substr(0, good.size() / 2) << '\n';
        out << key << ",1,2,3,4,nope,6,7,8,9,10,11,12,13\n";
    }

    std::vector<SweepCell> base = {
        SweepCell::of("gsm_decode", "baseline"),
        SweepCell::of("gsm_decode", "offline:d=10"),
        SweepCell::of("adpcm_decode", "baseline"),
        SweepCell::of("adpcm_decode", "offline:d=10"),
    };
    std::vector<SweepCell> cells;
    for (int rep = 0; rep < 8; ++rep)
        cells.insert(cells.end(), base.begin(), base.end());
    std::vector<Outcome> out;
    {
        Runner race(cfg);
        EXPECT_EQ(race.loadedFromCache(), 3u);
        EXPECT_EQ(race.rejectedCacheLines(), 2u);

        // Readers hammer the preloaded cell while the sweep computes
        // the other three and its jobs append them.
        std::vector<std::thread> readers;
        for (int t = 0; t < 3; ++t)
            readers.emplace_back([&race] {
                for (int i = 0; i < 50; ++i) {
                    bool hit = false;
                    Outcome o = race.run(
                        "gsm_decode",
                        control::PolicySpec::of("baseline"), &hit);
                    EXPECT_TRUE(hit);
                    EXPECT_DOUBLE_EQ(o.timePs, 777.0);
                }
            });
        out = race.runSweep(cells, 8);
        for (auto &t : readers)
            t.join();
        // Only the three non-preloaded cells were simulated, however
        // the readers and jobs interleaved.
        EXPECT_EQ(race.memoMisses(), 3u);
    }  // close the cache file

    // Duplicates agree with each other...
    for (std::size_t i = 4; i < out.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSameOutcome(out[i % 4], out[i]);
    }
    // ...and the sentinel was served for the valid line, never the
    // dead foreign-version/fingerprint sentinels or a recompute.
    EXPECT_DOUBLE_EQ(out[0].timePs, 777.0);
    EXPECT_NE(out[2].timePs, 777.0);

    // The jobs appended the three computed cells after the corrupt
    // seed; a fresh runner loads 3 + 3 lines, still rejecting 2, and
    // serves the appended outcomes byte-exactly.
    Runner reload(cfg);
    EXPECT_EQ(reload.loadedFromCache(), 6u);
    EXPECT_EQ(reload.rejectedCacheLines(), 2u);
    bool hit = false;
    Outcome again = reload.run(
        "adpcm_decode", control::PolicySpec::of("baseline"), &hit);
    EXPECT_TRUE(hit);
    expectSameOutcome(again, out[2]);
    std::remove(path.c_str());
}
