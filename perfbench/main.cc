/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--digests DIR] [--out DIR]
 *   perfbench --workload NAME --write-digest [--digests DIR]
 *   perfbench --self-test [--digests DIR]
 *   perfbench --list-metrics
 *
 * `--trace 0` repeats a cold set-up + `Runner::runSweep` of the
 * workload until S seconds have passed and reports the end-to-end
 * metrics (medians over the sweeps).  `--trace 1` runs one untraced
 * sweep, one traced sweep through a cache file, a warm sweep from
 * that file and the layer replay, and reports the per-layer metrics;
 * its spans are written to DIR/trace-<workload>-seed<N>.json.  Either
 * way the last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.hh"
#include "metrics.hh"
#include "replay.hh"
#include "selftest.hh"
#include "spans.hh"
#include "util/pool.hh"
#include "util/text.hh"

using namespace perfbench;
using namespace mcd;

namespace
{

/** Set-ups timed before every sweep and after the last one: the host's
 *  speed drifts over seconds, so setup_s (their median, with the
 *  set-ups of the timed sweeps) samples the whole run, not a moment. */
constexpr std::size_t SETUP_BATCH = 10;
/** Set-ups of the traced run; the layer times are their medians. */
constexpr std::size_t TRACED_SETUPS = 31;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::string digests = "perfbench/digests";
    std::string out = ".bench_build/out";
    bool writeDigest = false;
    bool selfTest = false;
    bool listMetrics = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                 [--digests DIR] [--out DIR]\n"
                 "       perfbench --workload NAME --write-digest "
                 "[--digests DIR]\n"
                 "       perfbench --self-test [--digests DIR]\n"
                 "       perfbench --list-metrics\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    double v = 0;
    if (!util::parseDouble(text, v) || v < 0 || v > 4294967295.0 ||
        v != std::floor(v))
        usage(flag + " needs a whole number, got '" + text + "'");
    return static_cast<std::uint64_t>(v);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string f = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(f + " needs a value");
            return argv[++i];
        };
        if (f == "--workload")
            a.workload = value();
        else if (f == "--seed")
            a.seed = parseCount(f, value());
        else if (f == "--seconds") {
            std::string v = value();
            if (!util::parseDouble(v, a.seconds) || !(a.seconds > 0))
                usage("--seconds needs a positive number");
        } else if (f == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (f == "--digests")
            a.digests = value();
        else if (f == "--out")
            a.out = value();
        else if (f == "--write-digest")
            a.writeDigest = true;
        else if (f == "--self-test")
            a.selfTest = true;
        else if (f == "--list-metrics")
            a.listMetrics = true;
        else
            usage("unknown flag '" + f + "'");
    }
    return a;
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
listMetrics()
{
    auto list = [](const char *key, const std::vector<MetricInfo> &ms) {
        std::printf("\"%s\": [", key);
        for (std::size_t i = 0; i < ms.size(); ++i)
            std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", "
                        "\"better\": \"%s\"}",
                        i ? ", " : "", ms[i].name, ms[i].unit,
                        ms[i].better);
        std::printf("]");
    };
    std::printf("{\"workloads\": [");
    for (std::size_t i = 0; i < workloadNames().size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "",
                    workloadNames()[i].c_str());
    std::printf("], ");
    list("end_to_end", endToEndMetrics());
    std::printf(", ");
    list("per_layer", perLayerMetrics());
    std::printf("}\n");
}

/** Print the result line: every metric of @p table, in order. */
int
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::map<std::string, double> &values,
            const std::vector<MetricInfo> &table)
{
    std::string metrics;
    for (const MetricInfo &m : table) {
        auto it = values.find(m.name);
        if (it == values.end() || !std::isfinite(it->second)) {
            std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                         m.name);
            return 1;
        }
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + m.name + "\": {\"value\": " +
                   util::fmtDouble17(it->second) + ", \"unit\": \"" +
                   m.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct && failed == 0 ? "true" : "false", attempted,
                failed, metrics.c_str());
    std::fflush(stdout);
    return 0;
}

void
reportRefused(const Validated &v)
{
    for (const std::string &r : v.refused)
        std::fprintf(stderr, "perfbench: refused cell %s\n", r.c_str());
}

void
reportMismatch(const char *what, std::size_t bad, const std::string &first)
{
    if (bad)
        std::fprintf(stderr, "perfbench: %s: %zu cells differ; first: %s\n",
                     what, bad, first.c_str());
}

/** Untraced: cold set-up + sweep, repeated while another sweep of
 *  the median length so far fits in @p a.seconds. */
int
runUntraced(const Workload &w, const exp::ExpConfig &cfg, const Args &a,
            unsigned jobs, Expected expect)
{
    std::vector<double> setupS, wallS, cpuS;
    std::vector<SweepOutcomes> sweeps;
    double peakMb = 0;
    auto setupBatch = [&] {
        for (std::size_t i = 0; i < SETUP_BATCH; ++i)
            setupS.push_back(runSetup(w, cfg).seconds);
    };
    auto start = std::chrono::steady_clock::now();
    do {
        setupBatch();
        Setup s = runSetup(w, cfg);
        setupS.push_back(s.seconds);
        if (sweeps.empty())
            reportRefused(s.valid);
        double c0 = cpuSeconds();
        auto t0 = std::chrono::steady_clock::now();
        sweeps.push_back(runCells(*s.runner, s.valid, w.cells.size(), jobs));
        wallS.push_back(secondsSince(t0));
        cpuS.push_back(cpuSeconds() - c0);
        std::fprintf(stderr, "perfbench: sweep %zu: %.3f s wall, %.3f s cpu\n",
                     sweeps.size(), wallS.back(), cpuS.back());
        // The process peak only grows, so read it after one sweep: a
        // run with more sweeps would otherwise report a higher peak.
        if (sweeps.size() == 1)
            peakMb = peakRssMb();
    } while (secondsSince(start) + median(wallS) <= a.seconds);
    setupBatch();

    // Seed-dependent cells have no pinned outcome: hold them to a
    // --jobs 1 cold run instead.
    addSerialReference(w, cfg, expect);
    std::size_t failed = 0;
    for (const SweepOutcomes &s : sweeps) {
        std::string first;
        std::size_t bad = countMismatches(w, s, expect, &first);
        reportMismatch("sweep", bad, first);
        failed += bad;
    }
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu sweeps, digest %016llx\n",
                 w.name.c_str(), static_cast<unsigned long long>(a.seed),
                 sweeps.size(),
                 static_cast<unsigned long long>(sweepDigest(w, sweeps[0])));
    std::map<std::string, double> m = {
        {"wall_s", median(wallS)},
        {"cpu_s", median(cpuS)},
        {"peak_rss_mb", peakMb},
        {"setup_s", median(setupS)},
    };
    return printResult(true, sweeps.size() * w.cells.size(), failed, m,
                       endToEndMetrics());
}

/** What the traced run measured and checked. */
struct TracedResult
{
    std::map<std::string, double> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool ok = true;
};

/** Traced: untraced reference sweep, traced cold sweep through a
 *  cache file, warm sweep from it, then the layer replay. */
TracedResult
tracedRun(const Workload &w, const exp::ExpConfig &cfg, const Args &a,
          unsigned jobs, Expected expect)
{
    TracedResult res;
    std::map<std::string, double> &m = res.metrics;
    auto check = [&](const char *what, const SweepOutcomes &s) {
        std::string first;
        std::size_t bad = countMismatches(w, s, expect, &first);
        reportMismatch(what, bad, first);
        res.attempted += w.cells.size();
        res.failed += bad;
    };
    Span root("perfbench.traced_run", w.name);

    std::vector<double> canonMs, buildMs;
    for (std::size_t i = 0; i < TRACED_SETUPS; ++i) {
        Span span("exp.setup");
        SetupTrace t;
        Setup s = runSetup(w, cfg, &t);
        canonMs.push_back(t.canonMs);
        buildMs.push_back(t.buildMs);
        Span dtor("exp.runner_dtor");
        s.runner.reset();
    }
    m["workload.canon_ms"] = median(canonMs);
    m["workload.build_ms"] = median(buildMs);

    // Untraced reference sweep: its runner serves the replay's
    // reference outcomes, its wall time is the overhead baseline.
    Setup ref = runSetup(w, cfg);
    reportRefused(ref.valid);
    auto t0 = std::chrono::steady_clock::now();
    SweepOutcomes refOut =
        runCells(*ref.runner, ref.valid, w.cells.size(), jobs);
    double untracedWall = secondsSince(t0);
    // Seed-dependent cells have no pinned outcome; the cold, warm and
    // replayed runs below are held to this sweep's outcome for them.
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        if (refOut.out[i])
            expect.emplace(cellId(w.cells[i]), outcomeLine(*refOut.out[i]));
    check("reference sweep", refOut);

    std::string cachePath = a.out + "/cache-" + w.name + ".csv";
    std::remove(cachePath.c_str());
    exp::ExpConfig ccfg = cfg;
    ccfg.cacheFile = cachePath;
    SweepOutcomes cold;
    cold.out.resize(w.cells.size());
    std::uint64_t misses = 0;
    double tracedWall = 0;
    {
        Span sweep("exp.sweep_cold", w.name);
        std::unique_ptr<exp::Runner> runner;
        {
            Span ctor("exp.runner_ctor");
            runner = std::make_unique<exp::Runner>(ccfg);
        }
        struct CellTime
        {
            unsigned lane = 0;
            std::int64_t start = 0, end = 0;
        };
        std::vector<CellTime> times(ref.valid.cells.size());
        std::int64_t begin = 0, end = 0;
        {
            Span pf("util.parallel_for");
            std::uint64_t pfId = pf.id();
            begin = nowNs();
            util::parallelFor(times.size(), jobs, [&](std::size_t i) {
                const SweepCell &c = ref.valid.cells[i];
                Span span("exp.run", cellId(c), pfId);
                times[i].lane = thisLane();
                times[i].start = nowNs();
                try {
                    cold.out[ref.valid.index[i]] = runner->run(c);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "perfbench: cell %s threw: %s\n",
                                 cellId(c).c_str(), e.what());
                }
                times[i].end = nowNs();
            });
            end = nowNs();
        }
        tracedWall = static_cast<double>(end - begin) / 1e9;
        double busyNs = 0;
        std::map<unsigned, std::int64_t> laneLastEnd;
        for (const CellTime &t : times) {
            busyNs += static_cast<double>(t.end - t.start);
            laneLastEnd[t.lane] = std::max(laneLastEnd[t.lane], t.end);
        }
        std::int64_t firstIdle = end;
        for (const auto &kv : laneLastEnd)
            firstIdle = std::min(firstIdle, kv.second);
        m["util.pool_utilization"] =
            busyNs / (static_cast<double>(jobs) *
                      static_cast<double>(end - begin));
        m["util.pool_tail_ms"] = static_cast<double>(end - firstIdle) / 1e6;
        std::uint64_t hits = runner->memoHits();
        misses = runner->memoMisses();
        m["exp.memo_hits"] = static_cast<double>(hits);
        m["exp.memo_misses"] = static_cast<double>(misses);
        m["exp.memo_hit_ratio"] =
            static_cast<double>(hits) / static_cast<double>(hits + misses);
        Span flush("exp.cache_flush");
        runner.reset();
        m["exp.cache_flush_ms"] = flush.elapsedMs();
    }
    check("traced cold sweep", cold);
    m["trace.overhead_s"] = tracedWall - untracedWall;

    {
        // What an interrupted write leaves behind: the warm runner
        // must reject exactly this line and load every other one.
        std::ofstream app(cachePath, std::ios::app);
        app << "v0|torn-line-of-an-interrupted-write,1.25\n";
    }
    {
        std::unique_ptr<exp::Runner> warm;
        {
            Span load("exp.cache_load");
            warm = std::make_unique<exp::Runner>(ccfg);
            m["exp.cache_load_ms"] = load.elapsedMs();
        }
        m["exp.cache_rejected"] =
            static_cast<double>(warm->rejectedCacheLines());
        if (warm->rejectedCacheLines() != 1 ||
            warm->loadedFromCache() != misses) {
            std::fprintf(stderr,
                         "perfbench: cache reload: %zu rejected, %zu "
                         "loaded, %llu written\n",
                         warm->rejectedCacheLines(),
                         warm->loadedFromCache(),
                         static_cast<unsigned long long>(misses));
            res.ok = false;
        }
        SweepOutcomes warmOut;
        {
            Span span("exp.warm_sweep");
            warmOut = runCells(*warm, ref.valid, w.cells.size(), jobs);
            m["exp.warm_sweep_ms"] = span.elapsedMs();
        }
        if (warm->memoMisses() != 0) {
            std::fprintf(stderr, "perfbench: warm sweep computed %llu "
                                 "cells\n",
                         static_cast<unsigned long long>(
                             warm->memoMisses()));
            res.ok = false;
        }
        check("warm sweep", warmOut);
    }
    std::remove(cachePath.c_str());

    ReplayReport rep;
    {
        Span span("exp.replay", w.name);
        rep = replayLayers(w, cfg, *ref.runner, jobs, span.id());
    }
    if (rep.failed)
        std::fprintf(stderr, "perfbench: replay: %zu cells differ; "
                             "first: %s\n",
                     rep.failed, rep.firstDiff.c_str());
    res.attempted += rep.attempted;
    res.failed += rep.failed;
    m.insert(rep.metrics.begin(), rep.metrics.end());

    std::fprintf(stderr,
                 "perfbench: %s seed %llu traced: untraced sweep %.3f s, "
                 "traced sweep %.3f s, digest %016llx\n",
                 w.name.c_str(), static_cast<unsigned long long>(a.seed),
                 untracedWall, tracedWall,
                 static_cast<unsigned long long>(sweepDigest(w, refOut)));
    return res;
}

int
runTraced(const Workload &w, const exp::ExpConfig &cfg, const Args &a,
          unsigned jobs, Expected expect)
{
    TracedResult r = tracedRun(w, cfg, a, jobs, std::move(expect));
    std::string trace = a.out + "/trace-" + w.name + "-seed" +
                        std::to_string(a.seed) + ".json";
    if (!writeChromeTrace(trace)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace.c_str());
        return 1;
    }
    return printResult(r.ok, r.attempted, r.failed, r.metrics,
                       perLayerMetrics());
}

/** Pin the seed-0 outcomes of @p w after checking --jobs 1 against
 *  the workload's own thread count. */
int
writeDigest(const Workload &w, const exp::ExpConfig &cfg, unsigned jobs,
            const std::string &path)
{
    Setup serial = runSetup(w, cfg);
    SweepOutcomes one =
        runCells(*serial.runner, serial.valid, w.cells.size(), 1);
    Setup parallel = runSetup(w, cfg);
    SweepOutcomes many =
        runCells(*parallel.runner, parallel.valid, w.cells.size(), jobs);
    if (sweepDigest(w, one) != sweepDigest(w, many)) {
        std::fprintf(stderr, "perfbench: --jobs 1 and --jobs %u differ\n",
                     jobs);
        return 1;
    }
    if (!writePinned(path, w, one)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr, "perfbench: wrote %s, digest %016llx\n",
                 path.c_str(),
                 static_cast<unsigned long long>(sweepDigest(w, one)));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    thisLane();  // the main thread is lane 0
    Args a = parseArgs(argc, argv);
    if (a.listMetrics) {
        listMetrics();
        return 0;
    }
    if (a.selfTest)
        return runSelfTest(a.digests);
    if (a.workload.empty())
        usage("--workload is required");
    try {
        Workload w = makeWorkload(a.workload, a.seed);
        exp::ExpConfig cfg = configFor(w);
        unsigned jobs = w.jobs;
        std::string pinned = a.digests + "/" + w.name + ".txt";
        if (a.writeDigest) {
            if (a.seed != 0)
                usage("--write-digest pins seed 0 only");
            return writeDigest(w, cfg, jobs, pinned);
        }
        Expected expect;
        if (!loadPinned(pinned, expect)) {
            std::fprintf(stderr, "perfbench: cannot read pinned outcomes "
                                 "%s\n",
                         pinned.c_str());
            return 1;
        }
        if (!a.trace)
            return runUntraced(w, cfg, a, jobs, std::move(expect));
        return runTraced(w, cfg, a, jobs, std::move(expect));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
