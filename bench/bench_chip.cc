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

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "chip/multi.hh"
#include "common.hh"

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
        "  --sample SPEC    sampling mode; only `exact` is accepted "
        "(chip cells\n"
        "                   do not support sampling, see "
        "docs/SAMPLING.md)\n"
        "  --no-fast-forward  disable the kernel's idle-edge "
        "fast-forward (identical results, slower)\n"
        "  --cache FILE     result cache path (default "
        "$MCD_BENCH_CACHE or none)\n"
        "  --no-cache       ignore and do not write the result "
        "cache\n"
        "  --json FILE      write both tables as JSON\n"
        "  --canon SPEC     print the canonical multi: form of SPEC "
        "and exit\n"
        "  --help           print this message and exit\n",
        argv0);
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

    cli::Args args(argc, argv, printUsage);
    control::PolicySpec policy;
    try {
        while (args.next()) {
            if (bench::harnessFlag(args, cfg))
                continue;
            if (args.is("--multi")) {
                multi = args.value();
            } else if (args.is("--scale")) {
                scale = args.value();
            } else if (args.is("--tiles-max")) {
                tilesMax = static_cast<int>(args.number(64));
            } else if (args.is("--policy")) {
                policyText = args.value();
            } else if (args.is("--coord")) {
                coordText = args.value();
            } else if (args.is("--json")) {
                jsonPath = args.value();
            } else if (args.is("--canon")) {
                std::printf(
                    "%s\n",
                    chip::canonicalMultiSpec(args.value()).c_str());
                return 0;
            } else {
                args.other();
            }
        }
        if (tilesMax < 1) {
            std::fprintf(stderr, "%s: --tiles-max must be >= 1\n",
                         argv[0]);
            return 1;
        }
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
