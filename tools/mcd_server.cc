/**
 * @file
 * `mcd_server` — the standalone sweep-service daemon: bind a Unix
 * and/or loopback-TCP listener, serve MCD/2 requests until SIGTERM
 * or SIGINT, then drain cleanly (admitted sweeps finish streaming,
 * the result cache is flushed) and exit 0.
 *
 * The startup line on stdout is machine-readable — the CI smoke job
 * greps the bound ephemeral port out of it:
 *
 *     mcd_server listening tcp=PORT unix=PATH fingerprint=HEX \
 *         window=N jobs=N
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <thread>

#include "args.hh"
#include "srv/server.hh"

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
printUsage(const char *argv0, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s [options]\n"
        "  --unix PATH        listen on a Unix-domain socket\n"
        "  --tcp PORT         listen on 127.0.0.1:PORT (0 = pick an\n"
        "                     ephemeral port, printed at startup)\n"
        "  --window N         default production window "
        "(instructions)\n"
        "  --jobs N           sweep pool size (0 = all hardware "
        "threads)\n"
        "  --cache FILE       CSV result cache (default: none)\n"
        "  --queue-limit N    max cells queued or running "
        "(admission bound)\n"
        "  --max-cells N      max cells in one SWEEP request\n"
        "  --max-connections N  max simultaneous connections\n"
        "  --request-timeout-ms N  per-request deadline cap\n"
        "  --idle-timeout-ms N     per-frame read deadline\n"
        "  --retry-after-ms N      back-off hint on overload\n"
        "  --max-windows N    max distinct per-request windows\n"
        "  --help             print this message and exit\n"
        "at least one of --unix / --tcp is required.\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mcd;

    srv::ServerConfig cfg;
    bool haveTcp = false;
    cli::Args args(argc, argv, printUsage);
    while (args.next()) {
        if (args.is("--unix")) {
            cfg.unixPath = args.value();
        } else if (args.is("--tcp")) {
            cfg.tcpPort = static_cast<int>(args.number(65535));
            haveTcp = true;
        } else if (args.is("--window")) {
            cfg.exp.productionWindow =
                args.number(std::numeric_limits<std::uint64_t>::max());
            cfg.exp.analysisWindow = cfg.exp.productionWindow;
        } else if (args.is("--jobs")) {
            cfg.exp.jobs = static_cast<unsigned>(
                args.number(std::numeric_limits<unsigned>::max()));
        } else if (args.is("--cache")) {
            cfg.exp.cacheFile = args.value();
        } else if (args.is("--queue-limit")) {
            cfg.queueLimit = static_cast<std::size_t>(args.number(1u << 20));
        } else if (args.is("--max-cells")) {
            cfg.maxCellsPerRequest =
                static_cast<std::size_t>(args.number(1u << 20));
        } else if (args.is("--max-connections")) {
            cfg.maxConnections =
                static_cast<std::size_t>(args.number(1u << 16));
        } else if (args.is("--request-timeout-ms")) {
            cfg.requestTimeoutMs =
                static_cast<int>(args.number(86'400'000));
        } else if (args.is("--idle-timeout-ms")) {
            cfg.idleTimeoutMs = static_cast<int>(args.number(86'400'000));
        } else if (args.is("--retry-after-ms")) {
            cfg.retryAfterMs = static_cast<int>(args.number(3'600'000));
        } else if (args.is("--max-windows")) {
            cfg.maxWindows = static_cast<std::size_t>(args.number(1u << 10));
        } else {
            args.other();
        }
    }
    if (cfg.unixPath.empty() && !haveTcp)
        args.fail("need at least one of --unix / --tcp");

    srv::SweepServer server(cfg);
    try {
        server.start();
    } catch (const srv::NetError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }

    std::printf("mcd_server listening tcp=%u unix=%s "
                "fingerprint=%016llx window=%llu jobs=%u\n",
                server.tcpPort(),
                server.unixSocketPath().empty()
                    ? "-"
                    : server.unixSocketPath().c_str(),
                static_cast<unsigned long long>(server.fingerprint()),
                static_cast<unsigned long long>(
                    cfg.exp.productionWindow),
                cfg.exp.jobs);
    std::fflush(stdout);

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    while (!g_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::printf("mcd_server draining...\n");
    std::fflush(stdout);
    server.stop();
    mcd::srv::ServerStats s = server.stats();
    std::printf("mcd_server drained: connections=%llu rows=%llu "
                "computed=%llu memo_hits=%llu\n",
                static_cast<unsigned long long>(s.connections),
                static_cast<unsigned long long>(s.rowsStreamed),
                static_cast<unsigned long long>(s.memoMisses),
                static_cast<unsigned long long>(s.memoHits));
    return 0;
}
