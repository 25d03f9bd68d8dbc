/**
 * @file
 * `mcd_client` — the sweep-service CLI.  Two modes that must print
 * identical bytes per cell (the CI smoke job diffs them):
 *
 *  - remote (`--unix PATH` / `--tcp PORT`): HELLO, optionally upload
 *    `@file` programs via PROG, run one SWEEP, print one
 *    `srv::rowLine()` per ROW;
 *  - `--local`: plan and run the same cells in-process through the
 *    server's own SWEEP path (srv/sweep.hh) and print the same
 *    `srv::rowLine()` per row.
 *
 * Cells are ordered workload-major (every policy of the first
 * workload, then the next workload), matching the server's ROW
 * stream, and a bad request fails with the same message in both
 * modes.  Structured server errors print as `error: CODE: msg` and
 * exit 1; `overload` rejections exit 75 (EX_TEMPFAIL) so shell
 * loops can back off and retry.
 */

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "args.hh"
#include "exp/experiment.hh"
#include "srv/client.hh"
#include "srv/sweep.hh"
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

/**
 * @p workloads with every `@FILE` replaced by the handle @p program
 * returns for the file's text (a local registration or a PROG
 * upload).  Throws workload::SpecError on an unreadable file.
 */
template <class Program>
std::vector<std::string>
withPrograms(const std::vector<std::string> &workloads,
             Program &&program)
{
    std::vector<std::string> out;
    out.reserve(workloads.size());
    for (const auto &w : workloads)
        out.push_back(
            w.size() > 1 && w[0] == '@'
                ? program(mcd::workload::readProgramFile(w.substr(1)))
                : w);
    return out;
}

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

    // The server's own planner: the same checks in the same order,
    // so both modes reject a request with the same error.
    srv::Request req;
    req.policies = opt.policies;
    req.hasTiles = opt.tiles >= 0;
    req.tiles = static_cast<std::uint64_t>(req.hasTiles ? opt.tiles : 0);
    req.coord = opt.coord;
    std::vector<srv::PlannedCell> cells;
    try {
        req.workloads =
            withPrograms(opt.workloads, [](const std::string &text) {
                return workload::WorkloadRegistry::instance()
                    .addProgram(text);
            });
        cells = srv::planSweep(req, cfg);
    } catch (const workload::SpecError &e) {
        std::fprintf(stderr, "error: bad-spec: %s\n", e.what());
        return 1;
    }

    // The cells run on --jobs threads and print in cell order.
    mcd::exp::Runner runner(cfg);
    std::vector<std::vector<srv::SweepRow>> rows(cells.size());
    util::parallelFor(cells.size(), opt.jobs, [&](std::size_t i) {
        rows[i] = srv::runCell(runner, cells[i]);
    });
    for (const auto &cellRows : rows)
        for (const srv::SweepRow &row : cellRows)
            std::printf("%s\n", srv::rowLine(row).c_str());
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
        try {
            workloads = withPrograms(
                opt.workloads, [&](const std::string &text) {
                    return client.uploadProgram(text);
                });
        } catch (const workload::SpecError &e) {
            std::fprintf(stderr, "error: bad-spec: %s\n", e.what());
            return 1;
        }
        srv::SweepReply reply =
            client.sweep(workloads, opt.policies, opt.window,
                         opt.timeoutMs, opt.pin, opt.tiles, opt.coord);
        for (const auto &row : reply.rows)
            std::printf("%s\n", srv::rowLine(row).c_str());
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
    mcd::cli::Args args(argc, argv, printUsage);
    while (args.next()) {
        if (args.is("--unix")) {
            opt.unixPath = args.value();
        } else if (args.is("--tcp")) {
            opt.tcpPort = static_cast<int>(args.number(65535));
        } else if (args.is("--local")) {
            opt.local = true;
        } else if (args.is("--workload")) {
            opt.workloads.push_back(args.value());
        } else if (args.is("--policy")) {
            opt.policies.push_back(args.value());
        } else if (args.is("--tiles")) {
            opt.tiles = static_cast<long long>(args.number(4096));
        } else if (args.is("--coord")) {
            opt.coord = args.value();
        } else if (args.is("--window")) {
            opt.window =
                args.number(std::numeric_limits<std::uint64_t>::max());
        } else if (args.is("--timeout-ms")) {
            opt.timeoutMs = static_cast<int>(args.number(86'400'000));
        } else if (args.is("--pin")) {
            opt.pin = true;
        } else if (args.is("--jobs")) {
            opt.jobs = static_cast<unsigned>(
                args.number(std::numeric_limits<unsigned>::max()));
        } else if (args.is("--stats")) {
            opt.stats = true;
        } else if (args.is("--quit")) {
            opt.quit = true;
        } else {
            args.other();
        }
    }

    int modes = (opt.local ? 1 : 0) + (opt.unixPath.empty() ? 0 : 1) +
                (opt.tcpPort >= 0 ? 1 : 0);
    if (modes != 1)
        args.fail("pick exactly one of --local / --unix / --tcp");
    if (!opt.stats &&
        (opt.workloads.empty() || opt.policies.empty()))
        args.fail("a sweep needs at least one --workload and one "
                  "--policy");
    if (!opt.coord.empty() && opt.tiles < 0)
        args.fail("--coord needs --tiles (chip sweeps only)");
    if (opt.stats && opt.local)
        args.fail("--stats needs a server");

    return opt.local ? runLocal(opt) : runRemote(opt);
}
