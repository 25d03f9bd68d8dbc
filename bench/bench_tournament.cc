/**
 * @file
 * `bench_tournament` — the all-policy tournament (exp/tournament.hh).
 *
 * Every registered sweepable policy (or an explicit `--policy`
 * roster) runs the tournament workload roster — the curated training
 * split plus the held-out `gen:` workloads (workload/split.hh), or
 * an explicit `--workload` list — and is ranked by mean regret
 * against the off-line oracle (`--oracle`, default offline:d=10) on
 * the paper's energy*delay metric.  The holdout column shows regret
 * on the generated workloads alone: the policies' generalization
 * score.
 *
 * Deterministic: cells run through the memoizing `exp::Runner`, so
 * the ranked table and the `--json` artifact (CI uploads it as
 * BENCH_tournament.json) are byte-identical across reruns and
 * `--jobs` values.  Sampled mode is refused — the roster contains
 * feedback controllers (docs/SAMPLING.md).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "args.hh"
#include "exp/tournament.hh"
#include "sim/sampling.hh"
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
        "  --oracle SPEC    regret reference (default offline:d=10)\n"
        "  --policy SPEC    add a policy to the roster (repeatable; "
        "default: every\n"
        "                   registered sweepable policy at schema "
        "defaults)\n"
        "  --workload SPEC  add a workload (repeatable; default: the "
        "tournament\n"
        "                   roster, training split + held-out gen: "
        "workloads)\n"
        "  --window N       production window, instructions "
        "(default 20000)\n"
        "  --jobs N         runner parallelism (default 1; the "
        "ranking is\n"
        "                   byte-identical at any value)\n"
        "  --sample SPEC    sampling mode; only `exact` is accepted "
        "(the roster\n"
        "                   holds feedback controllers, see "
        "docs/SAMPLING.md)\n"
        "  --cache FILE     result cache path (default "
        "$MCD_BENCH_CACHE or none)\n"
        "  --json FILE      write the ranking as JSON\n"
        "  --help           print this message and exit\n",
        argv0);
}

void
writeJson(const std::string &path, const exp::TournamentResult &r,
          std::uint64_t window)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_tournament: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"oracle\": \"%s\",\n"
                 "  \"window\": %llu,\n  \"workloads\": [\n",
                 r.oracle.c_str(), (unsigned long long)window);
    for (std::size_t k = 0; k < r.workloads.size(); ++k)
        std::fprintf(f, "    \"%s\"%s\n", r.workloads[k].c_str(),
                     k + 1 < r.workloads.size() ? "," : "");
    std::fprintf(f, "  ],\n  \"holdout_count\": %zu,\n"
                    "  \"ranking\": [\n",
                 r.holdoutCount);
    for (std::size_t k = 0; k < r.ranking.size(); ++k) {
        const exp::TournamentRow &row = r.ranking[k];
        std::fprintf(f,
                     "    {\"rank\": %zu, \"policy\": \"%s\", "
                     "\"regret_pct\": %.6f, "
                     "\"holdout_regret_pct\": %.6f, "
                     "\"ed_gain_pct\": %.6f, "
                     "\"slowdown_pct\": %.6f}%s\n",
                     k + 1, row.policy.c_str(), row.meanRegretPct,
                     row.holdoutRegretPct, row.meanEdGainPct,
                     row.meanSlowdownPct,
                     k + 1 < r.ranking.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    exp::TournamentConfig tc;
    exp::ExpConfig cfg;
    cfg.jobs = 1;
    cfg.productionWindow = 20'000;
    cfg.analysisWindow = 20'000;
    const char *env = std::getenv("MCD_BENCH_CACHE");
    cfg.cacheFile = env ? env : "";
    std::string jsonPath;

    cli::Args args(argc, argv, printUsage);
    while (args.next()) {
        if (args.is("--oracle")) {
            tc.oracle = args.value();
        } else if (args.is("--policy")) {
            tc.policies.push_back(args.value());
        } else if (args.is("--workload")) {
            tc.workloads.push_back(args.value());
        } else if (args.is("--window")) {
            cfg.productionWindow = args.number(100'000'000ull);
            cfg.analysisWindow = cfg.productionWindow;
        } else if (args.is("--jobs")) {
            cfg.jobs = static_cast<unsigned>(args.number(256));
            if (cfg.jobs == 0)
                cfg.jobs = 1;
        } else if (args.is("--sample")) {
            // Parsed like the figure benches; anything but exact is
            // then refused by the Tournament constructor below with
            // the docs/SAMPLING.md rationale.
            try {
                cfg.sim.sampling = sim::parseSamplingSpec(args.value());
            } catch (const workload::SpecError &e) {
                std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
                return 1;
            }
        } else if (args.is("--cache")) {
            cfg.cacheFile = args.value();
        } else if (args.is("--json")) {
            jsonPath = args.value();
        } else {
            args.other();
        }
    }

    try {
        exp::Runner runner(cfg);
        exp::Tournament tournament(runner, tc);
        exp::TournamentResult r = tournament.run();
        std::fputs(renderTournamentTable(r).c_str(), stdout);
        if (!jsonPath.empty())
            writeJson(jsonPath, r, cfg.productionWindow);
    } catch (const workload::SpecError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    return 0;
}
