/**
 * @file
 * `bench_server` — an adaptive load driver for the sweep service.
 *
 * Starts an in-process `srv::SweepServer` on an ephemeral loopback
 * port, then probes for its saturation point the way MongoDB's
 * throughput-probing simulator exercises execution control: run a
 * fixed-duration probe at a concurrency level, observe completed
 * requests/second, and hill-climb — move to the neighbouring level
 * (±1 client) whenever it beat the current one, stay put otherwise.
 * Each client thread holds one connection and issues small SWEEP
 * requests drawn from a fixed cell universe, so after the first
 * probe warms the memo the driver measures the server's framing,
 * admission and streaming path rather than simulation speed.
 *
 * `overload` rejections are part of the probe, not a failure: the
 * driver counts them, honours the server's retry_ms hint, and
 * reports them per probe — a healthy server sheds load instead of
 * degrading admitted work.
 *
 * `--json FILE` writes the probe table and the server's final
 * counters as a machine-readable artifact (CI uploads it as
 * BENCH_server.json).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "args.hh"
#include "srv/client.hh"
#include "srv/server.hh"

using namespace mcd;

namespace
{

void
printUsage(const char *argv0, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s [options]\n"
        "  --probes N         hill-climb steps to run (default 6)\n"
        "  --probe-ms N       duration of one probe (default 1000)\n"
        "  --clients-max N    concurrency ceiling (default 32)\n"
        "  --window N         production window per cell "
        "(default 4000)\n"
        "  --jobs N           server pool size (default 4)\n"
        "  --queue-limit N    server admission bound (default 64)\n"
        "  --json FILE        write the probe table as JSON\n"
        "  --help             print this message and exit\n",
        argv0);
}

/** One cell per op keeps requests small; the universe mixes
 *  workloads and policies so probes touch several memo shards. */
struct Cell
{
    const char *workload;
    const char *policy;
};

const Cell kUniverse[] = {
    {"gsm_decode", "baseline"},
    {"gsm_decode", "offline:d=10"},
    {"adpcm_decode", "baseline"},
    {"adpcm_decode", "offline:d=10"},
    {"epic_decode", "baseline"},
    {"gen:phases=3,seed=11", "baseline"},
};

struct ProbeResult
{
    unsigned concurrency = 0;
    std::uint64_t ops = 0;       ///< completed SWEEP requests
    std::uint64_t rows = 0;
    std::uint64_t overloads = 0; ///< admission rejections honoured
    std::uint64_t errors = 0;    ///< anything else (should be 0)
    double opsPerSec = 0.0;
};

ProbeResult
probe(std::uint16_t port, unsigned concurrency, int probe_ms,
      std::uint64_t window)
{
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ops{0}, rows{0}, overloads{0},
        errors{0};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < concurrency; ++t) {
        clients.emplace_back([&, t] {
            try {
                srv::Client c = srv::Client::connectTcp(port);
                c.hello();
                std::uint32_t state = 0x9e3779b9u + t;
                while (!stop.load(std::memory_order_relaxed)) {
                    state ^= state << 13;
                    state ^= state >> 17;
                    state ^= state << 5;
                    const Cell &cell =
                        kUniverse[state % (sizeof(kUniverse) /
                                           sizeof(kUniverse[0]))];
                    try {
                        srv::SweepReply r = c.sweep(
                            {cell.workload}, {cell.policy}, window);
                        ops.fetch_add(1);
                        rows.fetch_add(r.rows.size());
                    } catch (const srv::ClientError &e) {
                        if (e.code() == srv::err::OVERLOAD) {
                            overloads.fetch_add(1);
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(
                                    e.retryMs() > 0 ? e.retryMs()
                                                    : 10));
                        } else {
                            errors.fetch_add(1);
                        }
                    }
                }
                c.quit();
            } catch (const std::exception &) {
                errors.fetch_add(1);
            }
        });
    }
    auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(probe_ms));
    stop.store(true);
    for (auto &c : clients)
        c.join();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    ProbeResult r;
    r.concurrency = concurrency;
    r.ops = ops.load();
    r.rows = rows.load();
    r.overloads = overloads.load();
    r.errors = errors.load();
    r.opsPerSec = secs > 0.0 ? static_cast<double>(r.ops) / secs
                             : 0.0;
    return r;
}

void
writeJson(const std::string &path,
          const std::vector<ProbeResult> &probes,
          const ProbeResult &best, const srv::ServerStats &stats)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_server: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n  \"probes\": [\n");
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const ProbeResult &p = probes[i];
        std::fprintf(f,
                     "    {\"concurrency\": %u, \"ops\": %llu, "
                     "\"rows\": %llu, \"overloads\": %llu, "
                     "\"errors\": %llu, \"ops_per_sec\": %.2f}%s\n",
                     p.concurrency,
                     (unsigned long long)p.ops,
                     (unsigned long long)p.rows,
                     (unsigned long long)p.overloads,
                     (unsigned long long)p.errors, p.opsPerSec,
                     i + 1 < probes.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"best_concurrency\": %u,\n"
                 "  \"best_ops_per_sec\": %.2f,\n"
                 "  \"server\": {\"connections\": %llu, "
                 "\"admitted\": %llu, \"rejected_overload\": %llu, "
                 "\"rows_streamed\": %llu, \"memo_hits\": %llu, "
                 "\"memo_misses\": %llu}\n"
                 "}\n",
                 best.concurrency, best.opsPerSec,
                 (unsigned long long)stats.connections,
                 (unsigned long long)stats.admitted,
                 (unsigned long long)stats.rejectedOverload,
                 (unsigned long long)stats.rowsStreamed,
                 (unsigned long long)stats.memoHits,
                 (unsigned long long)stats.memoMisses);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned probes = 6;
    int probeMs = 1000;
    unsigned clientsMax = 32;
    std::uint64_t window = 4000;
    unsigned jobs = 4;
    std::size_t queueLimit = 64;
    std::string jsonPath;

    cli::Args args(argc, argv, printUsage);
    while (args.next()) {
        if (args.is("--probes")) {
            probes = static_cast<unsigned>(args.number(1000));
        } else if (args.is("--probe-ms")) {
            probeMs = static_cast<int>(args.number(600'000));
        } else if (args.is("--clients-max")) {
            clientsMax = static_cast<unsigned>(args.number(512));
        } else if (args.is("--window")) {
            window = args.number(100'000'000ull);
        } else if (args.is("--jobs")) {
            jobs = static_cast<unsigned>(args.number(256));
        } else if (args.is("--queue-limit")) {
            queueLimit = static_cast<std::size_t>(args.number(1u << 20));
        } else if (args.is("--json")) {
            jsonPath = args.value();
        } else {
            args.other();
        }
    }
    if (probes == 0 || probeMs == 0 || clientsMax == 0 ||
        window == 0) {
        std::fprintf(stderr,
                     "%s: --probes, --probe-ms, --clients-max and "
                     "--window must be positive\n",
                     argv[0]);
        return 1;
    }

    srv::ServerConfig cfg;
    cfg.tcpPort = 0;  // ephemeral, in-process
    cfg.exp.productionWindow = window;
    cfg.exp.analysisWindow = window;
    cfg.exp.offlineInterval = window / 2 ? window / 2 : 1;
    cfg.exp.jobs = jobs;
    cfg.queueLimit = queueLimit;
    cfg.maxConnections = clientsMax + 8;
    srv::SweepServer server(cfg);
    server.start();
    std::printf("bench_server: server on 127.0.0.1:%u "
                "(jobs=%u window=%llu queue_limit=%zu)\n",
                server.tcpPort(), jobs,
                (unsigned long long)window, queueLimit);

    // Warm the memo so every probe measures the serving path, not
    // the first simulation of each cell.
    {
        srv::Client warm = srv::Client::connectTcp(server.tcpPort());
        warm.hello();
        for (const Cell &cell : kUniverse)
            warm.sweep({cell.workload}, {cell.policy}, window);
        warm.quit();
    }

    // Hill-climb: probe the current level, then the better-looking
    // neighbour; move whenever the neighbour wins.
    std::vector<ProbeResult> results;
    unsigned c = 1;
    ProbeResult best =
        probe(server.tcpPort(), c, probeMs, window);
    results.push_back(best);
    std::printf("probe c=%-3u  %8.1f ops/s  rows=%llu "
                "overload=%llu err=%llu\n",
                best.concurrency, best.opsPerSec,
                (unsigned long long)best.rows,
                (unsigned long long)best.overloads,
                (unsigned long long)best.errors);
    int direction = 1;
    for (unsigned p = 1; p < probes; ++p) {
        unsigned next =
            direction > 0
                ? (c < clientsMax ? c + 1 : c)
                : (c > 1 ? c - 1 : c);
        if (next == c) {
            direction = -direction;
            continue;
        }
        ProbeResult r =
            probe(server.tcpPort(), next, probeMs, window);
        results.push_back(r);
        std::printf("probe c=%-3u  %8.1f ops/s  rows=%llu "
                    "overload=%llu err=%llu\n",
                    r.concurrency, r.opsPerSec,
                    (unsigned long long)r.rows,
                    (unsigned long long)r.overloads,
                    (unsigned long long)r.errors);
        if (r.opsPerSec > best.opsPerSec) {
            best = r;
            c = next;
        } else {
            direction = -direction;  // overshoot: turn around
        }
    }

    srv::ServerStats stats = server.stats();
    server.stop();
    std::printf("bench_server: best c=%u at %.1f ops/s "
                "(server: admitted=%llu rows=%llu memo_hits=%llu "
                "memo_misses=%llu rejected=%llu)\n",
                best.concurrency, best.opsPerSec,
                (unsigned long long)stats.admitted,
                (unsigned long long)stats.rowsStreamed,
                (unsigned long long)stats.memoHits,
                (unsigned long long)stats.memoMisses,
                (unsigned long long)stats.rejectedOverload);
    if (!jsonPath.empty())
        writeJson(jsonPath, results, best, stats);
    return best.errors == 0 ? 0 : 1;
}
