/**
 * @file
 * `bench_chip` — the tiled many-core interference benchmark
 * (docs/CHIP.md).
 *
 * Two experiments, both through the memoizing `exp::Runner`:
 *
 *  1. **Co-schedule interference**: run one co-schedule
 *     (`--multi`, default gsm_decode + adpcm_decode) on a chip and
 *     each of its workloads alone on a single core under the same
 *     per-tile policy, and report per-tile slowdown and energy
 *     ratio — what sharing the L2 port and DRAM queue costs each
 *     neighbour — with and without the `chip-coord` uncore
 *     coordinator.
 *
 *  2. **Throughput scaling**: replicate one workload (`--scale`)
 *     across 1..`--tiles-max` tiles and report global run time,
 *     aggregate energy and relative throughput (tiles x alone-time
 *     / chip-time) per tile count, again with and without the
 *     coordinator.
 *
 * `--json FILE` writes both tables as a machine-readable artifact
 * (CI uploads it as BENCH_chip.json).  `--canon SPEC` prints the
 * canonical `multi:` form of a co-schedule spec and exits — CI uses
 * it for a canonicalization round-trip check.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "chip/multi.hh"
#include "control/policy.hh"
#include "exp/experiment.hh"
#include "util/table.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"

using namespace mcd;

namespace
{

void
printUsage(const char *argv0, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s [options]\n"
        "  --multi SPEC     co-schedule for the interference table\n"
        "                   (default multi:t0=gsm_decode,"
        "t1=adpcm_decode)\n"
        "  --scale SPEC     workload replicated for the scaling "
        "curve (default gsm_decode)\n"
        "  --tiles-max N    largest tile count in the scaling curve "
        "(default 4)\n"
        "  --policy SPEC    per-tile policy (default baseline; must "
        "be tile-capable)\n"
        "  --coord SPEC     coordinator spec for the \"coord\" rows "
        "(default chip-coord)\n"
        "  --window N       instructions per tile (default 20000)\n"
        "  --jobs N         runner parallelism (default 1; chip "
        "rows are deterministic at any value)\n"
        "  --cache FILE     result cache path (default "
        "$MCD_BENCH_CACHE or none)\n"
        "  --json FILE      write both tables as JSON\n"
        "  --canon SPEC     print the canonical multi: form of SPEC "
        "and exit\n"
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

/** One tile of the interference experiment. */
struct TileRow
{
    std::string workload;     ///< canonical per-tile spec
    double aloneTimePs = 0.0; ///< same policy, single core
    double aloneEnergyNj = 0.0;
    double timePs = 0.0;      ///< on the chip, no coordinator
    double energyNj = 0.0;
    double coordTimePs = 0.0; ///< on the chip, with --coord
    double coordEnergyNj = 0.0;
};

/** One tile count of the scaling experiment. */
struct ScaleRow
{
    int tiles = 0;
    double timePs = 0.0;       ///< global end time, no coordinator
    double energyNj = 0.0;     ///< tiles + uncore
    double coordTimePs = 0.0;  ///< with --coord
    double coordEnergyNj = 0.0;
    double coordUncoreMhz = 0.0;
};

/** Sum of per-tile chip energy plus the uncore row's. */
double
chipEnergy(const std::vector<exp::Outcome> &rows)
{
    double e = 0.0;
    for (const exp::Outcome &o : rows)
        e += o.energyNj;
    return e;
}

void
writeJson(const std::string &path, const std::string &multi,
          const std::string &policy, const std::string &coord,
          const std::vector<TileRow> &tiles,
          const std::string &scale,
          const std::vector<ScaleRow> &scaling)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_chip: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"co_schedule\": \"%s\",\n"
                 "  \"policy\": \"%s\",\n  \"coord\": \"%s\",\n"
                 "  \"tiles\": [\n",
                 multi.c_str(), policy.c_str(), coord.c_str());
    for (std::size_t k = 0; k < tiles.size(); ++k) {
        const TileRow &t = tiles[k];
        std::fprintf(f,
                     "    {\"tile\": %zu, \"workload\": \"%s\", "
                     "\"alone_time_ps\": %.0f, "
                     "\"alone_energy_nj\": %.6f, "
                     "\"time_ps\": %.0f, \"energy_nj\": %.6f, "
                     "\"coord_time_ps\": %.0f, "
                     "\"coord_energy_nj\": %.6f}%s\n",
                     k, t.workload.c_str(), t.aloneTimePs,
                     t.aloneEnergyNj, t.timePs, t.energyNj,
                     t.coordTimePs, t.coordEnergyNj,
                     k + 1 < tiles.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"scale_workload\": \"%s\",\n"
                    "  \"scaling\": [\n",
                 scale.c_str());
    for (std::size_t k = 0; k < scaling.size(); ++k) {
        const ScaleRow &s = scaling[k];
        std::fprintf(f,
                     "    {\"tiles\": %d, \"time_ps\": %.0f, "
                     "\"energy_nj\": %.6f, "
                     "\"coord_time_ps\": %.0f, "
                     "\"coord_energy_nj\": %.6f, "
                     "\"coord_uncore_mhz\": %.3f}%s\n",
                     s.tiles, s.timePs, s.energyNj, s.coordTimePs,
                     s.coordEnergyNj, s.coordUncoreMhz,
                     k + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string multi = "multi:t0=gsm_decode,t1=adpcm_decode";
    std::string scale = "gsm_decode";
    int tilesMax = 4;
    std::string policyText = "baseline";
    std::string coordText = "chip-coord";
    exp::ExpConfig cfg;
    cfg.jobs = 1;
    cfg.productionWindow = 20'000;
    cfg.analysisWindow = 20'000;
    const char *env = std::getenv("MCD_BENCH_CACHE");
    cfg.cacheFile = env ? env : "";
    std::string jsonPath;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--multi")) {
            multi = valueArg(argc, argv, i, "--multi");
        } else if (!std::strcmp(argv[i], "--scale")) {
            scale = valueArg(argc, argv, i, "--scale");
        } else if (!std::strcmp(argv[i], "--tiles-max")) {
            tilesMax = static_cast<int>(
                numberArg(argc, argv, i, "--tiles-max", 64));
        } else if (!std::strcmp(argv[i], "--policy")) {
            policyText = valueArg(argc, argv, i, "--policy");
        } else if (!std::strcmp(argv[i], "--coord")) {
            coordText = valueArg(argc, argv, i, "--coord");
        } else if (!std::strcmp(argv[i], "--window")) {
            cfg.productionWindow =
                numberArg(argc, argv, i, "--window", 100'000'000ull);
            cfg.analysisWindow = cfg.productionWindow;
        } else if (!std::strcmp(argv[i], "--jobs")) {
            cfg.jobs = static_cast<unsigned>(
                numberArg(argc, argv, i, "--jobs", 256));
            if (cfg.jobs == 0)
                cfg.jobs = 1;
        } else if (!std::strcmp(argv[i], "--cache")) {
            cfg.cacheFile = valueArg(argc, argv, i, "--cache");
        } else if (!std::strcmp(argv[i], "--json")) {
            jsonPath = valueArg(argc, argv, i, "--json");
        } else if (!std::strcmp(argv[i], "--canon")) {
            const char *text = valueArg(argc, argv, i, "--canon");
            try {
                std::printf("%s\n",
                            chip::canonicalMultiSpec(text).c_str());
            } catch (const workload::SpecError &e) {
                std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
                return 1;
            }
            return 0;
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
    if (tilesMax < 1) {
        std::fprintf(stderr, "%s: --tiles-max must be >= 1\n",
                     argv[0]);
        return 1;
    }

    control::PolicySpec policy;
    try {
        policy = control::canonicalPolicySpec(policyText);
    } catch (const workload::SpecError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }

    try {
        exp::Runner runner(cfg);

        // -- Experiment 1: co-schedule interference. ------------- //
        std::vector<std::string> tileSpecs =
            chip::parseMultiSpec(multi);
        std::string canonMulti = chip::multiSpecOf(tileSpecs);

        exp::ChipCell cell;
        cell.workload = canonMulti;
        cell.tilePolicy = policy;
        std::vector<exp::Outcome> plain = runner.runChip(cell);
        cell.coord = coordText;
        std::vector<exp::Outcome> coord = runner.runChip(cell);

        std::vector<TileRow> tiles(tileSpecs.size());
        for (std::size_t k = 0; k < tileSpecs.size(); ++k) {
            TileRow &t = tiles[k];
            t.workload = tileSpecs[k];
            // The same policy alone on one core: the interference
            // denominator (a one-tile chip is byte-identical).
            exp::Outcome alone = runner.run(tileSpecs[k], policy);
            t.aloneTimePs = alone.timePs;
            t.aloneEnergyNj = alone.energyNj;
            t.timePs = plain[k].timePs;
            t.energyNj = plain[k].energyNj;
            t.coordTimePs = coord[k].timePs;
            t.coordEnergyNj = coord[k].energyNj;
        }

        TextTable t1;
        t1.header({"tile", "workload", "alone ps", "chip ps",
                   "slowdown %", "coord ps", "coord slowdown %"});
        for (std::size_t k = 0; k < tiles.size(); ++k) {
            const TileRow &t = tiles[k];
            auto pct = [&](double ps) {
                return t.aloneTimePs > 0.0
                           ? 100.0 * (ps / t.aloneTimePs - 1.0)
                           : 0.0;
            };
            t1.row({std::to_string(k), t.workload,
                    TextTable::num(t.aloneTimePs, 0),
                    TextTable::num(t.timePs, 0),
                    TextTable::num(pct(t.timePs)),
                    TextTable::num(t.coordTimePs, 0),
                    TextTable::num(pct(t.coordTimePs))});
        }
        std::printf("co-schedule interference: %s\n"
                    "tile policy %s, coordinator %s, window %llu "
                    "instructions/tile\n",
                    canonMulti.c_str(), policy.str().c_str(),
                    coordText.c_str(),
                    (unsigned long long)cfg.productionWindow);
        std::ostringstream os1;
        t1.print(os1);
        std::fputs(os1.str().c_str(), stdout);

        // -- Experiment 2: throughput scaling. ------------------- //
        exp::Outcome aloneScale = runner.run(
            workload::canonicalWorkloadSpec(scale), policy);
        std::vector<ScaleRow> scaling;
        for (int n = 1; n <= tilesMax; ++n) {
            exp::ChipCell c;
            c.workload = scale;
            c.tiles = n;
            c.tilePolicy = policy;
            std::vector<exp::Outcome> rows = runner.runChip(c);
            ScaleRow s;
            s.tiles = n;
            s.timePs = rows.back().timePs;
            s.energyNj = chipEnergy(rows);
            c.coord = coordText;
            rows = runner.runChip(c);
            s.coordTimePs = rows.back().timePs;
            s.coordEnergyNj = chipEnergy(rows);
            s.coordUncoreMhz = rows.back().globalFreq;
            scaling.push_back(s);
        }

        TextTable t2;
        t2.header({"tiles", "chip ps", "throughput x", "energy nJ",
                   "coord ps", "coord energy nJ", "coord MHz"});
        for (const ScaleRow &s : scaling) {
            double tp = s.timePs > 0.0
                            ? s.tiles * aloneScale.timePs / s.timePs
                            : 0.0;
            t2.row({std::to_string(s.tiles),
                    TextTable::num(s.timePs, 0), TextTable::num(tp),
                    TextTable::num(s.energyNj),
                    TextTable::num(s.coordTimePs, 0),
                    TextTable::num(s.coordEnergyNj),
                    TextTable::num(s.coordUncoreMhz, 0)});
        }
        std::printf("\nthroughput scaling: %s x 1..%d tiles\n",
                    scale.c_str(), tilesMax);
        std::ostringstream os2;
        t2.print(os2);
        std::fputs(os2.str().c_str(), stdout);

        if (!jsonPath.empty())
            writeJson(jsonPath, canonMulti, policy.str(), coordText,
                      tiles, scale, scaling);
    } catch (const workload::SpecError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    return 0;
}
