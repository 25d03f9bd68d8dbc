#include "replay.hh"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "control/globaldvs.hh"
#include "control/offline.hh"
#include "control/online.hh"
#include "core/pipeline.hh"
#include "core/walker.hh"
#include "spans.hh"
#include "util/logging.hh"
#include "util/pool.hh"
#include "workload/suite.hh"

namespace perfbench
{

using namespace mcd;

namespace
{

/** Each policy's headline spec (fig07's operating points). */
const std::map<std::string, std::string> HEADLINE_SPEC = {
    {"baseline", "baseline"},
    {"online", "online:aggr=1"},
    {"offline", "offline:d=10"},
    {"profile", "profile:mode=LF,d=10"},
    {"global", "global:d=10"},
};

/** Time and work of one replayed cell, by layer. */
struct LayerStats
{
    double walkMs = 0, analysisMs = 0, shakerMs = 0;
    double thresholdMs = 0, editMs = 0, productionMs = 0;
    double offlineMs = 0, globalMs = 0, cellMs = 0;
    double walkInstrs = 0, analysisInstrs = 0, shakerInstrs = 0;
    double shakerSegments = 0, productionInstrs = 0, ffEdges = 0;

    void
    add(const LayerStats &o)
    {
        walkMs += o.walkMs;
        analysisMs += o.analysisMs;
        shakerMs += o.shakerMs;
        thresholdMs += o.thresholdMs;
        editMs += o.editMs;
        productionMs += o.productionMs;
        offlineMs += o.offlineMs;
        globalMs += o.globalMs;
        walkInstrs += o.walkInstrs;
        analysisInstrs += o.analysisInstrs;
        shakerInstrs += o.shakerInstrs;
        shakerSegments += o.shakerSegments;
        productionInstrs += o.productionInstrs;
        ffEdges += o.ffEdges;
    }
};

/** One cell to replay. */
struct Entry
{
    SweepCell cell;  ///< canonical policy spec
    /** Re-run through ProfilePipeline as a check; left out of the
     *  layer totals. */
    bool pipelineCheck = false;
};

/** Records the analysis run's committed-instruction trace so the
 *  shaker can be timed apart from the simulation that feeds it. */
class Recorder : public sim::TraceSink
{
  public:
    void onInstr(const sim::InstrTiming &t) override { trace.push_back(t); }

    std::vector<sim::InstrTiming> trace;
};

/** Run @p f under span @p name and add its time to @p ms. */
template <class F>
auto
layer(const char *name, const std::string &id, double &ms, F &&f)
{
    Span span(name, id);
    auto r = f();
    ms += span.elapsedMs();
    return r;
}

sim::RunResult
production(sim::Processor &proc, std::uint64_t window,
           const std::string &id, LayerStats &st)
{
    sim::RunResult r = layer("sim.production", id, st.productionMs,
                             [&] { return proc.run(window); });
    st.productionInstrs += static_cast<double>(r.instrs);
    st.ffEdges += static_cast<double>(r.ffEdges);
    return r;
}

/** The fields every policy reports from its final run. */
Outcome
runOutcome(const sim::RunResult &r)
{
    Outcome o;
    o.timePs = static_cast<double>(r.timePs);
    o.energyNj = r.chipEnergyNj;
    o.timeCiPs = static_cast<double>(r.timeCiPs);
    o.energyCiNj = r.energyCiNj;
    return o;
}

/** The profile policy's outcome mapping. */
Outcome
profileOutcome(const sim::RunResult &r, const core::RuntimeStats &rt,
               const core::InstrumentationPlan &plan)
{
    Outcome o = runOutcome(r);
    o.reconfigs = static_cast<double>(r.reconfigs);
    o.overheadCycles = static_cast<double>(r.overheadCycles);
    o.feCycles = static_cast<double>(r.feCycles);
    o.dynReconfigPoints = static_cast<double>(rt.dynReconfigPoints);
    o.dynInstrPoints = static_cast<double>(rt.dynInstrPoints);
    o.staticReconfigPoints = plan.staticReconfigPoints;
    o.staticInstrPoints = plan.staticInstrPoints;
    o.tableBytes = static_cast<double>(plan.nextNodeTableBytes +
                                       plan.freqTableBytes);
    return o;
}

/** The profile pipeline's shaker configuration for this machine. */
core::ShakerConfig
pipelineShaker(const core::ShakerConfig &base, const sim::SimConfig &s,
               const power::PowerConfig &p)
{
    core::ShakerConfig c = base;
    c.domainPowerWeight = p.domainWeight;
    c.nominalMhz = s.maxMhz;
    c.l1LatencyCycles = s.l1Latency;
    c.l2LatencyCycles = s.l2Latency;
    c.robSize = s.robSize;
    c.lsqSize = s.lsqSize;
    c.intIqSize = s.intIqSize;
    c.fpIqSize = s.fpIqSize;
    c.fetchWidth = s.fetchWidth;
    c.retireWidth = s.retireWidth;
    c.intIssueWidth = s.intIssueWidth;
    c.fpIssueWidth = s.fpIssueWidth;
    c.memIssueWidth = s.memIssueWidth;
    c.mispredictPenalty = s.mispredictPenalty;
    return c;
}

core::PipelineConfig
pipelineConfig(const control::PolicySpec &spec, const exp::ExpConfig &cfg)
{
    core::PipelineConfig pc;
    pc.mode = spec.mode("mode");
    pc.slowdownPct = spec.num("d");
    pc.profile.maxInstrs = cfg.profileMaxInstrs;
    pc.analysisWindow = cfg.analysisWindow;
    return pc;
}

/** Phases 1-4 layer by layer, then the instrumented production run. */
Outcome
replayProfile(const workload::Benchmark &bm, const control::PolicySpec &spec,
              const exp::ExpConfig &cfg, const std::string &id,
              LayerStats &st)
{
    core::PipelineConfig pc = pipelineConfig(spec, cfg);
    core::CallTree tree = layer("core.profile_walk", id, st.walkMs, [&] {
        return core::profileProgram(bm.program, bm.train, pc.mode,
                                    pc.profile);
    });
    st.walkInstrs += static_cast<double>(tree.node(0).inclInstrs);

    core::NodeTracker tracker(tree);
    Recorder rec;
    // The analysis run is always exact, as in ProfilePipeline::train.
    sim::SimConfig acfg = cfg.sim;
    acfg.sampling = sim::SamplingConfig{};
    sim::Processor analysis(acfg, cfg.power, bm.program, bm.train);
    analysis.setMarkerHandler(&tracker);
    analysis.setTraceSink(&rec);
    sim::RunResult ar = layer("sim.analysis", id, st.analysisMs, [&] {
        return analysis.run(pc.analysisWindow);
    });
    st.analysisInstrs += static_cast<double>(ar.instrs);

    core::ShakerConfig sc = pipelineShaker(pc.shaker, cfg.sim, cfg.power);
    auto hists = layer("core.shaker", id, st.shakerMs, [&] {
        core::AnalysisCollector collector(sc, pc.limits);
        for (const sim::InstrTiming &t : rec.trace)
            collector.onInstr(t);
        return collector.finish();
    });
    for (const auto &kv : hists) {
        st.shakerInstrs += static_cast<double>(kv.second.instrs);
        st.shakerSegments += kv.second.segments;
    }

    auto freqs = layer("core.threshold", id, st.thresholdMs, [&] {
        core::ThresholdConfig tc;
        tc.slowdownPct = pc.slowdownPct;
        tc.steps = sc.steps;
        std::map<std::uint32_t, sim::FreqSet> out;
        for (const auto &kv : hists)
            if (kv.first != 0 && tree.node(kv.first).longRunning)
                out[kv.first] = core::chooseFrequencies(kv.second, tc);
        return out;
    });
    core::InstrumentationPlan plan = layer("core.edit", id, st.editMs, [&] {
        return core::buildPlan(tree, freqs, pc.mode);
    });

    core::ProfileRuntime runtime(tree, plan, pc.costs);
    sim::Processor proc(cfg.sim, cfg.power, bm.program, bm.ref);
    proc.setMarkerHandler(&runtime);
    sim::RunResult r = production(proc, cfg.productionWindow, id, st);
    return profileOutcome(r, runtime.stats(), plan);
}

/** Replay one cell; @p offline_ref is the off-line outcome at the
 *  cell's d (global cells only). */
Outcome
replayCell(const Entry &e, const exp::ExpConfig &cfg,
           const Outcome &offline_ref, LayerStats &st)
{
    const std::string id = cellId(e.cell);
    const control::PolicySpec &spec = e.cell.spec;
    const std::string &kind = spec.policy;
    workload::Benchmark bm = [&] {
        Span span("workload.build", id);
        return workload::makeBenchmark(e.cell.bench);
    }();
    const std::uint64_t window = cfg.productionWindow;

    if (e.pipelineCheck) {
        core::ProfilePipeline pipe(bm.program, pipelineConfig(spec, cfg));
        {
            Span span("core.pipeline_train", id);
            pipe.train(bm.train, cfg.sim, cfg.power);
        }
        core::RuntimeStats rt;
        Span span("core.pipeline_production", id);
        sim::RunResult r =
            pipe.runProduction(bm.ref, cfg.sim, cfg.power, window, &rt);
        return profileOutcome(r, rt, pipe.plan());
    }
    if (kind == "profile")
        return replayProfile(bm, spec, cfg, id, st);
    if (kind == "global") {
        control::GlobalDvsResult g =
            layer("control.global_bisect", id, st.globalMs, [&] {
                return control::globalDvsMatch(
                    bm.program, bm.ref, cfg.sim, cfg.power, window,
                    static_cast<Tick>(offline_ref.timePs), /*iters=*/6);
            });
        Outcome o = runOutcome(g.run);
        o.globalFreq = g.freq;
        return o;
    }

    sim::Processor proc(cfg.sim, cfg.power, bm.program, bm.ref);
    control::OnlineConfig oc;
    std::unique_ptr<control::AttackDecayController> ctl;
    if (kind == "online") {
        oc.aggressiveness = spec.num("aggr");
        oc.intIqSize = cfg.sim.intIqSize;
        oc.fpIqSize = cfg.sim.fpIqSize;
        oc.lsqSize = cfg.sim.lsqSize;
        oc.robSize = cfg.sim.robSize;
        ctl = std::make_unique<control::AttackDecayController>(oc, cfg.sim);
        proc.setIntervalHook(ctl.get(), oc.intervalInstrs);
    } else if (kind == "offline") {
        control::OfflineConfig off;
        off.intervalInstrs = cfg.offlineInterval;
        off.slowdownPct = spec.num("d");
        proc.setSchedule(
            layer("control.offline_analyze", id, st.offlineMs, [&] {
                return control::offlineAnalyze(off, bm.program, bm.ref,
                                               cfg.sim, cfg.power, window);
            }));
    } else if (kind != "baseline") {
        throw std::invalid_argument("no replay for policy '" + kind + "'");
    }
    sim::RunResult r = production(proc, window, id, st);
    Outcome o = runOutcome(r);
    if (kind != "baseline")
        o.reconfigs = static_cast<double>(r.reconfigs);
    return o;
}

SweepCell
canonicalCell(const std::string &bench, const control::PolicySpec &spec)
{
    control::PolicySpec canon = spec;
    std::string err;
    if (!control::PolicyRegistry::instance().canonicalize(canon, err))
        throw std::invalid_argument(err);
    return SweepCell::of(bench, std::move(canon));
}

/** The cells to replay: baselines, the sweep's cells, probes for the
 *  policies the sweep lacks, and one ProfilePipeline cross-check. */
std::vector<Entry>
replayPlan(const Workload &w, const Validated &valid)
{
    std::vector<Entry> plan;
    std::set<std::string> seen;
    auto add = [&](const SweepCell &c) {
        SweepCell canon = canonicalCell(c.bench, c.spec);
        if (seen.insert(cellId(canon)).second)
            plan.push_back({canon, false});
    };
    std::set<std::string> kinds = {"baseline"};
    for (const std::string &b : w.roster)
        add(SweepCell::of(b, control::PolicySpec::of("baseline")));
    for (const SweepCell &c : valid.cells) {
        add(c);
        kinds.insert(c.spec.policy);
    }
    for (const auto &kv : HEADLINE_SPEC) {
        if (kinds.count(kv.first))
            continue;
        control::PolicySpec spec;
        std::string err;
        if (!control::parseSpec(kv.second, spec, err))
            throw std::logic_error(err);
        for (std::size_t i = 0; i < std::min<std::size_t>(2, w.roster.size());
             ++i)
            add(SweepCell::of(w.roster[i], spec));
    }
    for (const Entry &e : plan) {
        if (e.cell.spec.policy == "profile") {
            plan.push_back({e.cell, true});
            break;
        }
    }
    return plan;
}

double
perSecond(double work, double ms)
{
    return ms > 0 ? work / (ms / 1e3) : 0.0;
}

} // namespace

ReplayReport
replayLayers(const Workload &w, const exp::ExpConfig &cfg, exp::Runner &ref,
             unsigned jobs, std::uint64_t parent)
{
    ReplayReport rep;
    Validated valid = prevalidate(w.cells);
    std::vector<Entry> plan = replayPlan(w, valid);

    // Reference outcomes: the sweep's cells are memo hits; probe cells
    // (and the off-line runs behind global probes) compute here.
    std::vector<SweepCell> refCells;
    for (const Entry &e : plan)
        refCells.push_back(e.cell);
    std::vector<Outcome> refOut;
    {
        Span span("exp.replay_reference", {}, parent);
        refOut = ref.runSweep(refCells, jobs);
    }
    std::map<std::string, Outcome> baseline;
    for (std::size_t i = 0; i < plan.size(); ++i)
        if (plan[i].cell.spec.policy == "baseline")
            baseline[plan[i].cell.bench] = refOut[i];

    std::vector<LayerStats> stats(plan.size());
    std::vector<std::string> got(plan.size());
    {
        Span pf("util.parallel_for", {}, parent);
        std::uint64_t pfId = pf.id();
        util::parallelFor(plan.size(), jobs, [&](std::size_t i) {
            const Entry &e = plan[i];
            const control::PolicySpec &spec = e.cell.spec;
            // A memo hit: the reference pass computed it for this cell.
            Outcome offline;
            if (spec.policy == "global")
                offline = ref.run(e.cell.bench,
                                  control::PolicySpec::of("offline").set(
                                      "d", spec.num("d")));
            Span span("exp.cell", cellId(e.cell), pfId);
            try {
                Outcome o = replayCell(e, cfg, offline, stats[i]);
                if (e.cell.spec.policy != "baseline") {
                    const Outcome &b = baseline.at(e.cell.bench);
                    o.metrics = computeMetrics(o.timePs, o.energyNj,
                                               b.timePs, b.energyNj);
                }
                got[i] = outcomeLine(o);
            } catch (const std::exception &ex) {
                got[i] = std::string("threw: ") + ex.what();
            }
            stats[i].cellMs = span.elapsedMs();
        });
    }

    LayerStats total;
    std::map<std::string, std::vector<double>> cellMs;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        ++rep.attempted;
        std::string want = outcomeLine(refOut[i]);
        if (got[i] != want && rep.failed++ == 0)
            rep.firstDiff = cellId(plan[i].cell) +
                            (plan[i].pipelineCheck ? " (ProfilePipeline)"
                                                   : " (layer replay)") +
                            ": got " + got[i] + ", sweep " + want;
        if (plan[i].pipelineCheck)
            continue;
        total.add(stats[i]);
        cellMs[plan[i].cell.spec.policy].push_back(stats[i].cellMs);
    }

    auto &m = rep.metrics;
    m["core.profile_walk_ms"] = total.walkMs;
    m["core.profile_walk_minstr_per_s"] =
        perSecond(total.walkInstrs, total.walkMs) / 1e6;
    m["sim.analysis_ms"] = total.analysisMs;
    m["sim.analysis_kinstr_per_s"] =
        perSecond(total.analysisInstrs, total.analysisMs) / 1e3;
    m["control.offline_analyze_ms"] = total.offlineMs;
    m["core.shaker_ms"] = total.shakerMs;
    m["core.shaker_kinstr_per_s"] =
        perSecond(total.shakerInstrs, total.shakerMs) / 1e3;
    m["core.shaker_segments"] = total.shakerSegments;
    m["core.threshold_ms"] = total.thresholdMs;
    m["core.edit_ms"] = total.editMs;
    m["sim.production_ms"] = total.productionMs;
    m["sim.production_kinstr_per_s"] =
        perSecond(total.productionInstrs, total.productionMs) / 1e3;
    m["sim.ff_edges"] = total.ffEdges;
    m["control.global_bisect_ms"] = total.globalMs;
    for (const auto &kv : HEADLINE_SPEC)
        m["exp.cell_ms." + kv.first] = median(cellMs[kv.first]);
    return rep;
}

} // namespace perfbench
