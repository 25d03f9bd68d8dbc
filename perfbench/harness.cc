#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "spans.hh"
#include "util/logging.hh"
#include "util/pool.hh"
#include "util/text.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"
#include "workload/split.hh"
#include "workload/suite.hh"

namespace perfbench
{

using namespace mcd;

namespace
{

/** fig10's slowdown grid (percent). */
const double D_GRID[] = {2, 4, 6, 10, 14, 20};

SweepCell
cell(const std::string &bench, const std::string &spec_text)
{
    control::PolicySpec spec;
    std::string err;
    if (!control::parseSpec(spec_text, spec, err))
        throw std::logic_error(err);
    return SweepCell::of(bench, std::move(spec));
}

/** The holdout `gen:` specs with their generator seeds moved by
 *  1000 * @p seed (seed 0 = holdoutSplit() itself). */
std::vector<std::string>
genWorkloads(std::uint64_t seed)
{
    std::vector<std::string> out;
    for (const std::string &text : workload::holdoutSplit()) {
        if (seed == 0) {
            out.push_back(text);
            continue;
        }
        workload::WorkloadSpec spec;
        std::string err;
        if (!workload::parseWorkloadSpec(text, spec, err))
            throw std::logic_error(err);
        spec.set("seed", spec.num("seed") +
                             1000.0 * static_cast<double>(seed));
        out.push_back(workload::canonicalWorkloadSpec(spec.str()));
    }
    return out;
}

std::string
fmtD(double d)
{
    return strprintf("%g", d);
}

/** prevalidate() with workload canonicalizations already done. */
Validated
prevalidateWith(const std::vector<SweepCell> &cells,
                std::map<std::string, std::string> canon)
{
    const control::PolicyRegistry &reg =
        control::PolicyRegistry::instance();
    Validated v;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &c = cells[i];
        control::PolicySpec spec = c.spec;
        std::string err;
        if (!reg.canonicalize(spec, err)) {
            v.refused.push_back(cellId(c) + ": " + err);
            continue;
        }
        if (!canon.count(c.bench)) {
            try {
                canon[c.bench] = workload::canonicalWorkloadSpec(c.bench);
            } catch (const workload::SpecError &e) {
                v.refused.push_back(cellId(c) + ": " + e.what());
                continue;
            }
        }
        v.cells.push_back(c);
        v.index.push_back(i);
    }
    return v;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"headline", "dsweep"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "headline") {
        // fig07: the four headline methods, bench-major.
        w.roster = workload::suiteNames();
        for (const std::string &b : w.roster)
            for (const char *spec :
                 {"global:d=10", "online:aggr=1", "offline:d=10",
                  "profile:mode=LF,d=10"})
                w.cells.push_back(cell(b, spec));
    } else if (name == "dsweep") {
        // fig10's d grid for the two d-driven methods over the
        // tournament roster, spec-major like fig10.
        w.roster = workload::trainingSplit();
        for (const std::string &g : genWorkloads(seed))
            w.roster.push_back(g);
        for (const char *policy : {"offline:d=", "profile:mode=LF,d="})
            for (double d : D_GRID)
                for (const std::string &b : w.roster)
                    w.cells.push_back(cell(b, policy + fmtD(d)));
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

exp::ExpConfig
configFor(const Workload &w)
{
    exp::ExpConfig cfg;
    cfg.productionWindow = w.window;
    cfg.analysisWindow = w.window;
    cfg.jobs = w.jobs;
    return cfg;
}

std::string
cellId(const SweepCell &c)
{
    return c.bench + ' ' + c.spec.str();
}

std::string
outcomeLine(const Outcome &o)
{
    const double fields[] = {
        o.timePs, o.energyNj, o.reconfigs, o.overheadCycles,
        o.feCycles, o.dynReconfigPoints, o.dynInstrPoints,
        o.staticReconfigPoints, o.staticInstrPoints, o.tableBytes,
        o.globalFreq, o.timeCiPs, o.energyCiNj,
        o.metrics.slowdownPct, o.metrics.energySavingsPct,
        o.metrics.energyDelayImprovementPct,
    };
    std::string line;
    for (double f : fields) {
        if (!line.empty())
            line += ',';
        line += util::fmtDouble17(f);
    }
    return line;
}

Validated
prevalidate(const std::vector<SweepCell> &cells)
{
    return prevalidateWith(cells, {});
}

Setup
runSetup(const Workload &w, const exp::ExpConfig &cfg, SetupTrace *trace)
{
    Setup s;
    auto t0 = std::chrono::steady_clock::now();
    std::map<std::string, std::string> canon;
    for (const std::string &b : w.roster) {
        std::optional<Span> span;
        try {
            if (trace)
                span.emplace("workload.canon", b);
            std::string c = workload::canonicalWorkloadSpec(b);
            if (trace) {
                trace->canonMs += span->elapsedMs();
                span.emplace("workload.build", b);
            }
            workload::Benchmark bm = workload::makeBenchmark(c);
            if (trace)
                trace->buildMs += span->elapsedMs();
            canon.emplace(b, std::move(c));
        } catch (const workload::SpecError &) {
            // prevalidate() refuses the cells that use it.
        }
    }
    s.valid = prevalidateWith(w.cells, std::move(canon));
    {
        std::optional<Span> span;
        if (trace)
            span.emplace("exp.runner_ctor");
        s.runner = std::make_unique<exp::Runner>(cfg);
    }
    s.seconds = secondsSince(t0);
    return s;
}

SweepOutcomes
runCells(exp::Runner &runner, const Validated &v, std::size_t ncells,
         unsigned jobs)
{
    SweepOutcomes res;
    res.out.resize(ncells);
    try {
        std::vector<Outcome> outs = runner.runSweep(v.cells, jobs);
        for (std::size_t i = 0; i < outs.size(); ++i)
            res.out[v.index[i]] = outs[i];
    } catch (const std::exception &e) {
        warn("sweep threw (%s); retrying its cells one by one", e.what());
        for (std::size_t i = 0; i < v.cells.size(); ++i) {
            try {
                res.out[v.index[i]] = runner.run(v.cells[i]);
            } catch (const std::exception &ce) {
                warn("cell %s threw: %s", cellId(v.cells[i]).c_str(),
                     ce.what());
            }
        }
    }
    return res;
}

bool
loadPinned(const std::string &path, Expected &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t tab = line.find('\t');
        if (tab == std::string::npos || tab == 0)
            return false;
        out[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return !out.empty();
}

bool
writePinned(const std::string &path, const Workload &w,
            const SweepOutcomes &got)
{
    std::ofstream out(path);
    out << "# Pinned outcomes of the '" << w.name
        << "' workload at seed 0, window " << w.window
        << ": one row per cell, <workload spec> <policy spec> TAB "
           "the outcome's fields through util::fmtDouble17.\n";
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        if (!got.out[i])
            return false;
        out << cellId(w.cells[i]) << '\t' << outcomeLine(*got.out[i])
            << '\n';
    }
    out.flush();
    return static_cast<bool>(out);
}

std::size_t
addSerialReference(const Workload &w, const exp::ExpConfig &cfg,
                   Expected &expect)
{
    // Cells of different workloads share no memo entries (a cell's
    // dependencies run on its own workload), so one cold --jobs 1
    // runner per workload computes exactly what a --jobs 1 sweep of
    // all of them would, and the runners can work side by side.
    std::map<std::string, std::vector<SweepCell>> byBench;
    for (const SweepCell &c : w.cells)
        if (!expect.count(cellId(c)))
            byBench[c.bench].push_back(c);
    std::vector<std::vector<SweepCell>> groups;
    for (auto &kv : byBench)
        groups.push_back(std::move(kv.second));
    std::vector<SweepOutcomes> refs(groups.size());
    util::parallelFor(groups.size(), w.jobs, [&](std::size_t g) {
        exp::Runner runner(cfg);
        refs[g] = runCells(runner, prevalidate(groups[g]), groups[g].size(),
                           1);
    });
    std::size_t added = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
            if (refs[g].out[i]) {
                expect[cellId(groups[g][i])] = outcomeLine(*refs[g].out[i]);
                ++added;
            }
        }
    }
    return added;
}

std::size_t
countMismatches(const Workload &w, const SweepOutcomes &got,
                const Expected &expect, std::string *first)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        std::string id = cellId(w.cells[i]);
        auto it = expect.find(id);
        std::string line = got.out[i] ? outcomeLine(*got.out[i])
                                      : std::string("FAILED");
        if (it != expect.end() && it->second == line)
            continue;
        if (bad++ == 0 && first)
            *first = id + ": got " + line + ", expected " +
                     (it == expect.end() ? std::string("nothing")
                                         : it->second);
    }
    return bad;
}

std::uint64_t
sweepDigest(const Workload &w, const SweepOutcomes &got)
{
    std::string rows;
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        rows += cellId(w.cells[i]) + '\t' +
                (got.out[i] ? outcomeLine(*got.out[i])
                            : std::string("FAILED")) +
                '\n';
    return util::fnv1a64(rows);
}

} // namespace perfbench
