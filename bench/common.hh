/**
 * @file
 * Shared scaffolding for the benchmark binaries that regenerate the
 * paper's tables and figures.
 *
 * Every binary accepts the flags below.  The harness flags among
 * them (--window, --no-cache, --cache, --jobs, --no-fast-forward,
 * --sample) are walked by harnessFlag(), which bench_tournament and
 * bench_chip call too.
 *   --window N       production window in instructions
 *                    (default 150000)
 *   --no-cache       ignore and do not write the shared result cache
 *   --cache FILE     result cache path (default
 *                    ./mcd_bench_cache.csv, or $MCD_BENCH_CACHE)
 *   --jobs N         sweep parallelism (default
 *                    hardware_concurrency; 1 = the old serial loops,
 *                    byte-identical output)
 *   --policy SPEC    run the given policy spec (repeatable) over the
 *                    whole suite instead of the binary's figure —
 *                    any policy in the registry, e.g.
 *                    "hybrid:guard=0.05", is selectable in every
 *                    binary
 *   --list-policies  print the policy registry (names, parameters,
 *                    defaults) and exit
 *   --workload SPEC  replace the benchmark set with the given
 *                    workload specs (repeatable): a suite name
 *                    ("gzip"), a generator spec
 *                    ("gen:phases=4,mem=0.4,seed=7"), or an
 *                    authored program file ("@solver.mcdw", the
 *                    docs/WORKLOADS.md text format)
 *   --list-workloads print the workload registry (names,
 *                    parameters, defaults) and exit
 *   --no-fast-forward  run the simulation kernel without idle-edge
 *                    fast-forward (slower; identical results — the
 *                    CI equivalence gate diffs the two modes)
 *   --sample SPEC    simulation sampling mode (docs/SAMPLING.md):
 *                    "exact" (default, bit-identical detailed
 *                    simulation) or
 *                    "sampled[:interval=N,sample=N,warmup=N,ci=PCT]"
 *                    (detailed probes + functional skips, results
 *                    carry 95% confidence intervals)
 *   --help           print usage and exit
 *
 * Unrecognized arguments are a hard error: a typo like `--job 4`
 * aborts with usage instead of silently running a full serial sweep.
 */

#ifndef MCD_BENCH_COMMON_HH
#define MCD_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "args.hh"
#include "control/policy.hh"
#include "exp/experiment.hh"
#include "util/logging.hh"
#include "util/pool.hh"
#include "util/table.hh"
#include "workload/author.hh"
#include "workload/registry.hh"
#include "workload/suite.hh"

namespace mcd::bench
{

/**
 * Sweep cells are built from terse spec strings ("offline:d=10",
 * "profile:mode=LF,d=10") that canonicalize against the policy
 * schemas.  The headline figures (4-7) and Table 4 all run at the
 * paper's headline slowdown threshold and on-line aggressiveness;
 * the constants below are the single place those parameters live.
 */

/** Headline slowdown parameter (d=10%), shared by every headline
 *  spec and by modeSpec(). */
inline const std::string HEADLINE_D_PARAM = "d=10";
inline const std::string HEADLINE_OFFLINE = "offline:" + HEADLINE_D_PARAM;
inline const std::string HEADLINE_GLOBAL = "global:" + HEADLINE_D_PARAM;
inline const std::string HEADLINE_PROFILE =
    "profile:mode=LF," + HEADLINE_D_PARAM;
inline const std::string HEADLINE_ONLINE = "online:aggr=1";

/** Headline profile spec for one context mode: "profile:mode=M,d=10". */
inline std::string
modeSpec(core::ContextMode m)
{
    return std::string("profile:mode=") + control::compactModeName(m) +
           "," + HEADLINE_D_PARAM;
}

/** Parsed command line: the harness configuration plus any --policy
 *  override specs. */
struct Options
{
    exp::ExpConfig cfg;
    /** Policy specs from --policy flags; non-empty = the binary
     *  runs these over the suite instead of its figure (see
     *  runPolicyOverride()). */
    std::vector<control::PolicySpec> policies;
    /** Canonical workload specs from --workload flags; non-empty =
     *  they replace the benchmark set of the figure / --policy
     *  sweep (see workloads()). */
    std::vector<std::string> workloads;
};

inline void
printUsage(const char *argv0, std::FILE *to)
{
    std::fprintf(
        to,
        "usage: %s [options]\n"
        "  --window N       production window, instructions "
        "(default 150000)\n"
        "  --cache FILE     result cache path (default "
        "./mcd_bench_cache.csv or $MCD_BENCH_CACHE)\n"
        "  --no-cache       ignore and do not write the result "
        "cache\n"
        "  --jobs N         sweep parallelism (default: all "
        "hardware threads; 1 = serial)\n"
        "  --policy SPEC    run this policy spec over the suite "
        "instead of the figure (repeatable);\n"
        "                   SPEC is name[:key=value,...], e.g. "
        "profile:mode=LFCP,d=5 or online:aggr=1.5;\n"
        "                   unset parameters take the schema "
        "defaults shown by --list-policies\n"
        "                   (the figures themselves use the "
        "headline d=10)\n"
        "  --list-policies  print the policy registry and exit\n"
        "  --workload SPEC  replace the benchmark set "
        "(repeatable); SPEC is a suite name, a\n"
        "                   generator spec like "
        "gen:phases=4,mem=0.4,seed=7, or @FILE with an\n"
        "                   authored program (see "
        "docs/WORKLOADS.md)\n"
        "  --list-workloads print the workload registry and exit\n"
        "  --no-fast-forward  disable the kernel's idle-edge "
        "fast-forward (identical results, slower)\n"
        "  --sample SPEC    sampling mode: exact (default) or "
        "sampled[:interval=N,sample=N,warmup=N,ci=PCT]\n"
        "                   (see docs/SAMPLING.md)\n"
        "  --help           print this message and exit\n",
        argv0);
}

inline void
listPolicies()
{
    std::printf("registered policies:\n%s",
                control::describePolicies().c_str());
}

inline void
listWorkloads()
{
    std::printf("registered workloads (spec grammar "
                "name[:key=value,...]):\n%s",
                workload::describeWorkloads().c_str());
}

/** Resolve one --workload argument to its canonical spec string:
 *  `@FILE` loads and registers the authored program, anything else
 *  registry-validates.  Throws workload::SpecError — shared by
 *  parseArgs(), bench_tournament and bench_throughput's flag peeler
 *  so the CLIs cannot drift. */
inline std::string
resolveWorkloadArg(const char *text)
{
    if (text[0] == '@')
        return workload::WorkloadRegistry::instance().addProgram(
            workload::readProgramFile(text + 1));
    return workload::canonicalWorkloadSpec(text);
}

/**
 * Take the current argument if it is a harness flag, one that every
 * bench binary shares: --window, --jobs, --cache, --no-cache,
 * --sample or --no-fast-forward, applied to @p cfg.  Returns false,
 * consuming nothing, for any other argument.  Each binary keeps its
 * own defaults.  Throws workload::SpecError on a bad --sample spec.
 */
inline bool
harnessFlag(cli::Args &args, exp::ExpConfig &cfg)
{
    if (args.is("--no-cache")) {
        cfg.cacheFile.clear();
    } else if (args.is("--cache")) {
        cfg.cacheFile = args.value();
    } else if (args.is("--window")) {
        cfg.productionWindow =
            args.number(std::numeric_limits<std::uint64_t>::max());
        cfg.analysisWindow = cfg.productionWindow;
    } else if (args.is("--jobs")) {
        cfg.jobs = static_cast<unsigned>(
            args.number(std::numeric_limits<unsigned>::max()));
        if (cfg.jobs == 0)
            cfg.jobs = 1;
    } else if (args.is("--no-fast-forward")) {
        cfg.sim.fastForward = false;
    } else if (args.is("--sample")) {
        cfg.sim.sampling = sim::parseSamplingSpec(args.value());
    } else {
        return false;
    }
    return true;
}

inline Options
parseArgs(int argc, char **argv)
{
    Options opt;
    exp::ExpConfig &cfg = opt.cfg;
    const char *env = std::getenv("MCD_BENCH_CACHE");
    cfg.cacheFile = env ? env : "mcd_bench_cache.csv";

    cli::Args args(argc, argv, printUsage);
    // --policy, --workload and --sample canonicalize up front, so a
    // typo or a bad file fails here, with the message, not
    // mid-sweep.
    try {
        while (args.next()) {
            if (harnessFlag(args, cfg))
                continue;
            if (args.is("--policy")) {
                opt.policies.push_back(
                    control::canonicalPolicySpec(args.value()));
            } else if (args.is("--workload")) {
                opt.workloads.push_back(
                    resolveWorkloadArg(args.value()));
            } else if (args.is("--list-policies")) {
                listPolicies();
                std::exit(0);
            } else if (args.is("--list-workloads")) {
                listWorkloads();
                std::exit(0);
            } else {
                args.other();
            }
        }
    } catch (const workload::SpecError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        std::exit(1);
    }
    return opt;
}

/** Sweep parallelism for code that drives util::parallelFor itself
 *  (the bench binaries that run raw Processor experiments rather
 *  than Runner policies). */
inline unsigned
jobsOf(const exp::ExpConfig &cfg)
{
    return cfg.jobs ? cfg.jobs : util::ThreadPool::defaultThreads();
}

/** The benchmark set a binary should sweep: the --workload specs
 *  when given, the full 19-name suite otherwise. */
inline const std::vector<std::string> &
workloads(const Options &opt)
{
    return opt.workloads.empty() ? workload::suiteNames()
                                 : opt.workloads;
}

/** Like workloads(), for binaries whose figure uses a curated
 *  subset of the suite (the context figures, the ablations):
 *  --workload still overrides, the subset is the default. */
inline std::vector<std::string>
workloadsOr(const Options &opt,
            std::initializer_list<const char *> subset)
{
    if (!opt.workloads.empty())
        return opt.workloads;
    return {subset.begin(), subset.end()};
}

/**
 * The --policy override shared by every binary: when specs were
 * given on the command line, run them over the whole suite (one
 * runSweep() batch, memoized and parallel like any figure) and print
 * the paper's three metrics plus reconfiguration counts per cell.
 * Returns true if it ran (the caller should skip its figure).
 */
inline bool
runPolicyOverride(const Options &opt)
{
    if (opt.policies.empty())
        return false;
    exp::Runner runner(opt.cfg);
    const auto &benches = workloads(opt);
    std::vector<exp::SweepCell> cells;
    for (const auto &bench : benches)
        for (const auto &spec : opt.policies)
            cells.push_back(exp::SweepCell::of(bench, spec));
    std::vector<exp::Outcome> out = runner.runSweep(cells);

    TextTable t;
    t.header({"benchmark", "policy", "slowdown %", "savings %",
              "ExD gain %", "reconfigs"});
    std::size_t i = 0;
    std::vector<Summary> slow(opt.policies.size()),
        save(opt.policies.size()), ed(opt.policies.size());
    for (const auto &bench : benches) {
        for (std::size_t p = 0; p < opt.policies.size(); ++p) {
            const exp::Outcome &o = out[i++];
            t.row({bench, opt.policies[p].str(),
                   TextTable::num(o.metrics.slowdownPct),
                   TextTable::num(o.metrics.energySavingsPct),
                   TextTable::num(o.metrics.energyDelayImprovementPct),
                   TextTable::num(o.reconfigs, 0)});
            slow[p].add(o.metrics.slowdownPct);
            save[p].add(o.metrics.energySavingsPct);
            ed[p].add(o.metrics.energyDelayImprovementPct);
        }
    }
    t.separator();
    for (std::size_t p = 0; p < opt.policies.size(); ++p)
        t.row({"average", opt.policies[p].str(),
               TextTable::num(slow[p].mean()),
               TextTable::num(save[p].mean()),
               TextTable::num(ed[p].mean()), "-"});
    std::printf("policy sweep (window %llu instructions, vs MCD "
                "baseline)\n",
                (unsigned long long)opt.cfg.productionWindow);
    std::ostringstream os;
    t.print(os);
    std::fputs(os.str().c_str(), stdout);
    return true;
}

/** One benchmark's headline metrics under the three main policies. */
struct HeadlineRow
{
    std::string bench;
    Metrics offline;
    Metrics online;
    Metrics profile;
};

/**
 * The shared headline sweep behind Figures 4, 5 and 6: off-line,
 * on-line and profile-driven L+F on every benchmark of @p benches
 * (the full suite, or the --workload set), as one runSweep() batch
 * (results are memoized in the cache, so the three binaries compute
 * it once; the cells run in parallel per --jobs).
 */
inline std::vector<HeadlineRow>
headlineSweep(exp::Runner &runner,
              const std::vector<std::string> &benches)
{
    std::vector<exp::SweepCell> cells;
    for (const auto &bench : benches) {
        cells.push_back(exp::SweepCell::of(bench, HEADLINE_OFFLINE));
        cells.push_back(exp::SweepCell::of(bench, HEADLINE_ONLINE));
        cells.push_back(exp::SweepCell::of(bench, HEADLINE_PROFILE));
    }
    std::vector<exp::Outcome> out = runner.runSweep(cells);
    std::vector<HeadlineRow> rows;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        HeadlineRow row;
        row.bench = benches[i];
        row.offline = out[3 * i].metrics;
        row.online = out[3 * i + 1].metrics;
        row.profile = out[3 * i + 2].metrics;
        rows.push_back(row);
    }
    return rows;
}

/** Print one metric of the headline sweep as a paper-style table. */
inline void
printHeadlineTable(const std::vector<HeadlineRow> &rows,
                   const char *title, const char *unit,
                   double Metrics::*field)
{
    TextTable t;
    t.header({"benchmark", "off-line", "on-line", "profile L+F"});
    Summary s_off, s_onl, s_prof;
    for (const auto &r : rows) {
        t.row({r.bench, TextTable::num(r.offline.*field),
               TextTable::num(r.online.*field),
               TextTable::num(r.profile.*field)});
        s_off.add(r.offline.*field);
        s_onl.add(r.online.*field);
        s_prof.add(r.profile.*field);
    }
    t.separator();
    t.row({"average", TextTable::num(s_off.mean()),
           TextTable::num(s_onl.mean()), TextTable::num(s_prof.mean())});
    std::printf("%s (%s, relative to the MCD baseline)\n", title, unit);
    std::ostringstream os;
    t.print(os);
    std::fputs(os.str().c_str(), stdout);
}

/**
 * Figures 8 and 9: one metric of the headline profile spec under
 * each of the six context definitions (Section 4.2), on the
 * benchmarks the paper highlights for showing variation — mpeg2
 * decode's unseen reference paths, epic encode's per-call-site
 * behaviour, loop effects in adpcm/gsm/applu/art — or the
 * --workload set.
 */
inline void
printContextFigure(const Options &opt, const char *title,
                   double Metrics::*field)
{
    const core::ContextMode modes[] = {
        core::ContextMode::LFCP, core::ContextMode::LFP,
        core::ContextMode::FCP,  core::ContextMode::FP,
        core::ContextMode::LF,   core::ContextMode::F,
    };
    const std::vector<std::string> benches = workloadsOr(
        opt, {"mpeg2_decode", "epic_encode", "mpeg2_encode",
              "adpcm_decode", "adpcm_encode", "gsm_decode", "applu",
              "art"});
    std::vector<exp::SweepCell> cells;
    for (const auto &bench : benches)
        for (auto m : modes)
            cells.push_back(exp::SweepCell::of(bench, modeSpec(m)));
    exp::Runner runner(opt.cfg);
    std::vector<exp::Outcome> out = runner.runSweep(cells);

    TextTable t;
    std::vector<std::string> head = {"benchmark"};
    for (auto m : modes)
        head.push_back(core::contextModeName(m));
    t.header(head);
    std::size_t i = 0;
    for (const auto &bench : benches) {
        std::vector<std::string> row = {bench};
        for (std::size_t j = 0; j < std::size(modes); ++j)
            row.push_back(TextTable::num(out[i++].metrics.*field));
        t.row(row);
    }
    std::printf("%s\n", title);
    std::ostringstream os;
    t.print(os);
    std::fputs(os.str().c_str(), stdout);
}

/**
 * Figures 10 and 11: the suite average of one metric (column
 * @p label) against achieved slowdown, for the off-line and
 * profile-driven (L+F) algorithms sweeping the slowdown threshold d
 * and the on-line algorithm sweeping its aggressiveness.
 */
inline void
printSlowdownCurves(const Options &opt, const char *title,
                    const char *label, double Metrics::*field)
{
    const double d_points[] = {2.0, 4.0, 6.0, 10.0, 14.0, 20.0};
    const double aggr_points[] = {0.25, 0.5, 1.0, 2.0, 3.5, 6.0};

    const auto &benches = workloads(opt);
    std::vector<exp::SweepCell> cells;
    for (double d : d_points)
        for (const auto &bench : benches)
            cells.push_back(exp::SweepCell::of(
                bench, strprintf("offline:d=%g", d)));
    for (double d : d_points)
        for (const auto &bench : benches)
            cells.push_back(exp::SweepCell::of(
                bench, strprintf("profile:mode=LF,d=%g", d)));
    for (double a : aggr_points)
        for (const auto &bench : benches)
            cells.push_back(exp::SweepCell::of(
                bench, strprintf("online:aggr=%g", a)));
    exp::Runner runner(opt.cfg);
    std::vector<exp::Outcome> out = runner.runSweep(cells);

    TextTable t;
    t.header({"series", "point", "avg slowdown %", label});
    std::size_t i = 0;
    auto series = [&](const char *name, const double *points,
                      std::size_t n, const char *fmt) {
        for (std::size_t p = 0; p < n; ++p) {
            Summary slow, metric;
            for (std::size_t b = 0; b < benches.size(); ++b) {
                const Metrics &m = out[i++].metrics;
                slow.add(m.slowdownPct);
                metric.add(m.*field);
            }
            t.row({name, strprintf(fmt, points[p]),
                   TextTable::num(slow.mean()),
                   TextTable::num(metric.mean())});
        }
    };
    series("off-line", d_points, std::size(d_points), "d=%.0f");
    t.separator();
    series("L+F", d_points, std::size(d_points), "d=%.0f");
    t.separator();
    series("on-line", aggr_points, std::size(aggr_points),
           "aggr=%.2f");
    std::printf("%s\n", title);
    std::ostringstream os;
    t.print(os);
    std::fputs(os.str().c_str(), stdout);
}

} // namespace mcd::bench

#endif // MCD_BENCH_COMMON_HH
