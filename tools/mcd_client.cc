/**
 * @file
 * `mcd_client` — the sweep-service CLI.  Two modes that must print
 * identical bytes per cell (the CI smoke job diffs them):
 *
 *  - remote (`--unix PATH` / `--tcp PORT`): HELLO, optionally upload
 *    `@file` programs via PROG, run one SWEEP, print one
 *    `srv::resultLine()` per ROW;
 *  - `--local`: run the same cells in-process through `exp::Runner`
 *    and print the same `srv::resultLine()` per cell.
 *
 * Cells are ordered workload-major (every policy of the first
 * workload, then the next workload), matching the server's ROW
 * stream.  Structured server errors print as `error: CODE: msg` and
 * exit 1; `overload` rejections exit 75 (EX_TEMPFAIL) so shell
 * loops can back off and retry.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "chip/multi.hh"
#include "exp/experiment.hh"
#include "srv/client.hh"
#include "util/pool.hh"
#include "workload/author.hh"
#include "workload/registry.hh"

namespace
{

void
printUsage(const char *argv0, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s (--unix PATH | --tcp PORT | --local) [options]\n"
        "  --workload SPEC  workload spec (repeatable): suite name,\n"
        "                   gen:... spec, or @FILE with an authored\n"
        "                   program (uploaded via PROG in remote "
        "mode)\n"
        "  --policy SPEC    policy spec (repeatable)\n"
        "  --tiles N        chip sweep: run each workload as an\n"
        "                   N-tile co-schedule (0 = tile count as\n"
        "                   named by a multi: spec); prints tiles+1\n"
        "                   rows per cell (tile=0..N-1, tile=u)\n"
        "  --coord SPEC     chip-coord: spec for the shared uncore\n"
        "                   (chip sweeps only)\n"
        "  --window N       production window (0 = server default)\n"
        "  --timeout-ms N   per-request deadline (remote)\n"
        "  --pin            pin the server's config fingerprint\n"
        "  --jobs N         local-mode sweep parallelism\n"
        "  --stats          print server stats instead of sweeping\n"
        "  --quit           send QUIT after the request\n"
        "  --help           print this message and exit\n",
        argv0);
}

unsigned long long
numberArg(int argc, char **argv, int &i, const char *flag,
          unsigned long long max)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n\n", argv[0],
                     flag);
        printUsage(argv[0], stderr);
        std::exit(1);
    }
    const char *text = argv[++i];
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!(text[0] >= '0' && text[0] <= '9') || end == text ||
        *end != '\0' || errno == ERANGE || v > max) {
        std::fprintf(stderr,
                     "%s: %s wants a plain decimal number in "
                     "[0, %llu], got '%s'\n\n",
                     argv[0], flag, max, text);
        printUsage(argv[0], stderr);
        std::exit(1);
    }
    return v;
}

const char *
valueArg(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n\n", argv[0],
                     flag);
        printUsage(argv[0], stderr);
        std::exit(1);
    }
    return argv[++i];
}

struct Options
{
    std::string unixPath;
    int tcpPort = -1;
    bool local = false;
    std::vector<std::string> workloads;  ///< raw; @FILE not yet read
    std::vector<std::string> policies;
    long long tiles = -1;  ///< >= 0 makes this a chip sweep
    std::string coord;
    std::uint64_t window = 0;
    int timeoutMs = 0;
    bool pin = false;
    unsigned jobs = 0;
    bool stats = false;
    bool quit = false;
};

int
runLocal(const Options &opt)
{
    using namespace mcd;
    mcd::exp::ExpConfig cfg;  // qualified: ::exp is std::exp here
    if (opt.window) {
        cfg.productionWindow = opt.window;
        cfg.analysisWindow = opt.window;
    }
    cfg.cacheFile.clear();  // match the server default: no CSV cache

    std::vector<std::string> benches;
    for (const auto &w : opt.workloads) {
        try {
            if (w.size() > 1 && w[0] == '@')
                benches.push_back(
                    workload::WorkloadRegistry::instance()
                        .addProgram(workload::readProgramFile(
                            w.substr(1))));
            else if (opt.tiles >= 0)
                // Chip mode accepts multi: co-schedules, which the
                // single-core canonicalizer rejects; runChip
                // canonicalizes per cell.
                benches.push_back(w);
            else
                benches.push_back(
                    workload::canonicalWorkloadSpec(w));
        } catch (const workload::SpecError &e) {
            std::fprintf(stderr, "error: bad-spec: %s\n", e.what());
            return 1;
        }
    }
    mcd::exp::Runner runner(cfg);
    // One job per cell, workload-major like the server's ROW stream.
    // Every cell is validated before any runs, as the server does;
    // the cells then run on --jobs threads and print in cell order.
    struct Cell
    {
        std::string bench;  ///< row label: canonical (multi) spec
        control::PolicySpec spec;
        mcd::exp::ChipCell chip;  ///< chip sweeps only
        std::vector<std::string> rows;
    };
    std::vector<Cell> cells;
    try {
        std::vector<control::PolicySpec> specs;
        for (const auto &p : opt.policies)
            specs.push_back(control::canonicalPolicySpec(p));
        for (const auto &b : benches) {
            for (const auto &s : specs) {
                Cell c{b, s, {}, {}};
                if (opt.tiles >= 0) {
                    // Labelled with the canonical multi: spec exactly
                    // as the server labels its ROW frames.
                    c.chip.workload = b;
                    c.chip.tiles = static_cast<int>(opt.tiles);
                    c.chip.tilePolicy = s;
                    c.chip.coord = opt.coord;
                    c.bench = chip::multiSpecOf(
                        chip::parseMultiSpec(b, c.chip.tiles));
                    runner.chipCacheKeys(c.chip);
                }
                cells.push_back(std::move(c));
            }
        }
    } catch (const workload::SpecError &e) {
        std::fprintf(stderr, "error: bad-spec: %s\n", e.what());
        return 1;
    }

    util::parallelFor(cells.size(), opt.jobs, [&](std::size_t i) {
        Cell &c = cells[i];
        std::string policy = c.spec.str();
        if (opt.tiles < 0) {
            c.rows.push_back(srv::resultLine(
                c.bench, policy, runner.run(c.bench, c.spec)));
            return;
        }
        // A chip cell streams tiles+1 rows (tile=0..N-1, tile=u).
        std::vector<mcd::exp::Outcome> rows = runner.runChip(c.chip);
        for (std::size_t k = 0; k < rows.size(); ++k)
            c.rows.push_back(
                "tile=" + srv::tileLabel(k, rows.size() - 1) + ' ' +
                srv::resultLine(c.bench, policy, rows[k]));
    });
    for (const Cell &c : cells)
        for (const std::string &row : c.rows)
            std::printf("%s\n", row.c_str());
    return 0;
}

int
runRemote(const Options &opt)
{
    using namespace mcd;
    try {
        srv::Client client =
            opt.tcpPort >= 0
                ? srv::Client::connectTcp(
                      static_cast<std::uint16_t>(opt.tcpPort))
                : srv::Client::connectUnix(opt.unixPath);
        client.hello();

        if (opt.stats) {
            for (const auto &kv : client.stats())
                std::printf("%s=%s\n", kv.first.c_str(),
                            kv.second.c_str());
            if (opt.quit)
                client.quit();
            return 0;
        }

        // Authored @FILE programs travel by value: upload the text,
        // sweep by the returned content-addressed handle.
        std::vector<std::string> workloads;
        for (const auto &w : opt.workloads) {
            if (w.size() > 1 && w[0] == '@') {
                std::string text;
                try {
                    text = workload::readProgramFile(w.substr(1));
                } catch (const workload::SpecError &e) {
                    std::fprintf(stderr, "error: bad-spec: %s\n",
                                 e.what());
                    return 1;
                }
                workloads.push_back(client.uploadProgram(text));
            } else {
                workloads.push_back(w);
            }
        }

        srv::SweepReply reply =
            client.sweep(workloads, opt.policies, opt.window,
                         opt.timeoutMs, opt.pin, opt.tiles,
                         opt.coord);
        for (const auto &row : reply.rows) {
            if (!row.tile.empty())
                std::printf("tile=%s ", row.tile.c_str());
            std::printf("%s\n",
                        srv::resultLine(row.workload, row.policy,
                                        row.outcome)
                            .c_str());
        }
        if (opt.quit)
            client.quit();
        return 0;
    } catch (const srv::ClientError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return e.code() == srv::err::OVERLOAD ? 75 : 1;
    } catch (const srv::NetError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--unix")) {
            opt.unixPath = valueArg(argc, argv, i, "--unix");
        } else if (!std::strcmp(argv[i], "--tcp")) {
            opt.tcpPort = static_cast<int>(
                numberArg(argc, argv, i, "--tcp", 65535));
        } else if (!std::strcmp(argv[i], "--local")) {
            opt.local = true;
        } else if (!std::strcmp(argv[i], "--workload")) {
            opt.workloads.push_back(
                valueArg(argc, argv, i, "--workload"));
        } else if (!std::strcmp(argv[i], "--policy")) {
            opt.policies.push_back(
                valueArg(argc, argv, i, "--policy"));
        } else if (!std::strcmp(argv[i], "--tiles")) {
            opt.tiles = static_cast<long long>(
                numberArg(argc, argv, i, "--tiles", 4096));
        } else if (!std::strcmp(argv[i], "--coord")) {
            opt.coord = valueArg(argc, argv, i, "--coord");
        } else if (!std::strcmp(argv[i], "--window")) {
            opt.window = numberArg(
                argc, argv, i, "--window",
                std::numeric_limits<std::uint64_t>::max());
        } else if (!std::strcmp(argv[i], "--timeout-ms")) {
            opt.timeoutMs = static_cast<int>(numberArg(
                argc, argv, i, "--timeout-ms", 86'400'000));
        } else if (!std::strcmp(argv[i], "--pin")) {
            opt.pin = true;
        } else if (!std::strcmp(argv[i], "--jobs")) {
            opt.jobs = static_cast<unsigned>(
                numberArg(argc, argv, i, "--jobs",
                          std::numeric_limits<unsigned>::max()));
        } else if (!std::strcmp(argv[i], "--stats")) {
            opt.stats = true;
        } else if (!std::strcmp(argv[i], "--quit")) {
            opt.quit = true;
        } else if (!std::strcmp(argv[i], "--help")) {
            printUsage(argv[0], stdout);
            return 0;
        } else {
            std::fprintf(stderr,
                         "%s: unrecognized argument '%s'\n\n",
                         argv[0], argv[i]);
            printUsage(argv[0], stderr);
            return 1;
        }
    }

    int modes = (opt.local ? 1 : 0) + (opt.unixPath.empty() ? 0 : 1) +
                (opt.tcpPort >= 0 ? 1 : 0);
    if (modes != 1) {
        std::fprintf(stderr,
                     "%s: pick exactly one of --local / --unix / "
                     "--tcp\n\n",
                     argv[0]);
        printUsage(argv[0], stderr);
        return 1;
    }
    if (!opt.stats &&
        (opt.workloads.empty() || opt.policies.empty())) {
        std::fprintf(stderr,
                     "%s: a sweep needs at least one --workload and "
                     "one --policy\n\n",
                     argv[0]);
        printUsage(argv[0], stderr);
        return 1;
    }
    if (!opt.coord.empty() && opt.tiles < 0) {
        std::fprintf(stderr,
                     "%s: --coord needs --tiles (chip sweeps "
                     "only)\n\n",
                     argv[0]);
        printUsage(argv[0], stderr);
        return 1;
    }
    if (opt.stats && opt.local) {
        std::fprintf(stderr, "%s: --stats needs a server\n\n",
                     argv[0]);
        printUsage(argv[0], stderr);
        return 1;
    }

    return opt.local ? runLocal(opt) : runRemote(opt);
}
