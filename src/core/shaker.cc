#include "core/shaker.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "workload/instr.hh"

namespace mcd::core
{

using sim::InstrTiming;
using workload::InstrClass;

ShakerConfig
shakerConfigFor(const ShakerConfig &base, const sim::SimConfig &sim,
                const power::PowerConfig &power)
{
    ShakerConfig c = base;
    c.domainPowerWeight = power.domainWeight;
    c.nominalMhz = sim.maxMhz;
    c.l1LatencyCycles = sim.l1Latency;
    c.l2LatencyCycles = sim.l2Latency;
    c.robSize = sim.robSize;
    c.lsqSize = sim.lsqSize;
    c.intIqSize = sim.intIqSize;
    c.fpIqSize = sim.fpIqSize;
    c.fetchWidth = sim.fetchWidth;
    c.retireWidth = sim.retireWidth;
    c.intIssueWidth = sim.intIssueWidth;
    c.fpIssueWidth = sim.fpIssueWidth;
    c.memIssueWidth = sim.memIssueWidth;
    c.mispredictPenalty = sim.mispredictPenalty;
    return c;
}

namespace
{

/** No event (an absent memory/external event, no pending redirect). */
constexpr std::uint32_t NONE = UINT32_MAX;

} // namespace

SegmentAnalyzer::SegmentAnalyzer(const ShakerConfig &c)
    : cfg(c)
{
}

void
SegmentAnalyzer::buildDag(const std::vector<InstrTiming> &segment)
{
    const double cycle_ps = 1e6 / cfg.nominalMhz;

    ev.clear();
    edgeFrom.clear();
    edgeTo.clear();
    valueEvent.clear();
    fetchEvents.clear();
    commitEvents.clear();
    for (auto &chain : domainExec)
        chain.clear();
    ev.reserve(segment.size() * 5);

    auto weight = [&](Domain d) {
        return cfg.domainPowerWeight[static_cast<int>(d)];
    };
    auto add_event = [&](Domain d, double start, double nominal_dur,
                         double pf) {
        Event e;
        e.domain = d;
        e.start = start;
        e.nominalDur = nominal_dur;
        e.pf0 = e.pf = pf;
        ev.push_back(e);
        return static_cast<std::uint32_t>(ev.size() - 1);
    };
    auto add_edge = [&](std::uint32_t from, std::uint32_t to) {
        edgeFrom.push_back(from);
        edgeTo.push_back(to);
    };

    // A segment is a contiguous slice of one run's commit stream, so
    // seqs are consecutive and a producer inside it sits at its seq's
    // offset from the first.
    const std::uint64_t first_seq = segment.front().seq;
    assert(segment.back().seq - first_seq == segment.size() - 1);

    // Resource tracking for structural edges: bandwidth chains are
    // width-aware (instruction i's fetch follows instruction
    // i - fetchWidth's fetch, etc.), occupancy edges bound in-flight
    // counts (ROB, issue queues).
    //
    // Redirect modeling: fetch after a mispredicted branch depends on
    // the branch's execution plus a front-end refill event whose
    // length scales with the front-end clock.
    std::uint32_t pending_redirect_from = NONE;
    double pending_redirect_start = 0.0;

    for (std::size_t i = 0; i < segment.size(); ++i) {
        const InstrTiming &t = segment[i];
        // fetch, dispatch/rename (front end)
        std::uint32_t e_fetch =
            add_event(Domain::FrontEnd, static_cast<double>(t.fetch),
                      cycle_ps, weight(Domain::FrontEnd));
        std::uint32_t e_disp = add_event(
            Domain::FrontEnd, static_cast<double>(t.dispatch),
            cycle_ps, weight(Domain::FrontEnd));
        // execute (owning domain)
        double exec_dur = static_cast<double>(t.execDone) -
                          static_cast<double>(t.issue);
        std::uint32_t e_exec = add_event(
            t.domain, static_cast<double>(t.issue),
            std::max(exec_dur, cycle_ps * 0.5), weight(t.domain));
        // memory access (loads only); the fixed external-memory
        // latency of misses is carved out into an unscalable
        // External event so the shaker never treats DRAM time as
        // scalable memory-domain work.
        std::uint32_t e_mem = NONE;
        std::uint32_t e_ext = NONE;
        if (t.cls == InstrClass::Load && t.memDone > t.memStart) {
            double total = static_cast<double>(t.memDone) -
                           static_cast<double>(t.memStart);
            double scalable = total;
            if (t.l2Miss) {
                scalable = cycle_ps * (cfg.l1LatencyCycles +
                                       cfg.l2LatencyCycles);
                scalable = std::min(scalable, total);
            }
            e_mem = add_event(Domain::Memory,
                              static_cast<double>(t.memStart),
                              std::max(scalable, cycle_ps * 0.5),
                              weight(Domain::Memory));
            if (t.l2Miss && total > scalable) {
                // pf 0: never stretched
                e_ext = add_event(
                    Domain::External,
                    static_cast<double>(t.memStart) + scalable,
                    total - scalable, 0.0);
            }
        }
        // commit (front end)
        std::uint32_t e_commit =
            add_event(Domain::FrontEnd, static_cast<double>(t.commit),
                      cycle_ps, weight(Domain::FrontEnd));

        // intra-instruction chain
        add_edge(e_fetch, e_disp);
        add_edge(e_disp, e_exec);
        if (e_mem != NONE) {
            add_edge(e_exec, e_mem);
            if (e_ext != NONE) {
                add_edge(e_mem, e_ext);
                add_edge(e_ext, e_commit);
            } else {
                add_edge(e_mem, e_commit);
            }
        } else {
            add_edge(e_exec, e_commit);
        }

        // mispredict redirect: branch exec -> refill -> this fetch
        if (pending_redirect_from != NONE) {
            std::uint32_t e_redir = add_event(
                Domain::FrontEnd, pending_redirect_start,
                cycle_ps * cfg.mispredictPenalty,
                weight(Domain::FrontEnd));
            add_edge(pending_redirect_from, e_redir);
            add_edge(e_redir, e_fetch);
            pending_redirect_from = NONE;
        }

        // width-aware structural bandwidth chains
        fetchEvents.push_back(e_fetch);
        const std::size_t fetch_w =
            static_cast<std::size_t>(cfg.fetchWidth);
        if (fetchEvents.size() > fetch_w)
            add_edge(fetchEvents[fetchEvents.size() - 1 - fetch_w],
                     e_fetch);
        // NOTE: no chain over full mem-access events — cache ports
        // are pipelined (occupied only at initiation), which the
        // memory-domain exec (agen) chain below already models.

        // data dependences (producers outside the segment are simply
        // "ready"; no edge).  Unsigned wrap folds dep < first_seq into
        // the bound.
        for (std::uint64_t dep : {t.dep1, t.dep2}) {
            std::uint64_t j = dep - first_seq;
            if (dep && j < i)
                add_edge(valueEvent[j], e_exec);
        }
        valueEvent.push_back(
            e_ext != NONE ? e_ext : (e_mem != NONE ? e_mem : e_exec));

        // Retire bandwidth chain and ROB occupancy edge.
        commitEvents.push_back(e_commit);
        std::size_t idx = commitEvents.size() - 1;
        const std::size_t retire_w =
            static_cast<std::size_t>(cfg.retireWidth);
        const std::size_t rob_sz =
            static_cast<std::size_t>(cfg.robSize);
        if (idx >= retire_w)
            add_edge(commitEvents[idx - retire_w], e_commit);
        if (idx >= rob_sz)
            add_edge(commitEvents[idx - rob_sz], e_disp);

        // Per-domain issue bandwidth and queue occupancy.
        auto &dex = domainExec[static_cast<std::size_t>(t.domain)];
        int qcap = 0, width = 1;
        switch (t.domain) {
          case Domain::Integer:
            qcap = cfg.intIqSize;
            width = cfg.intIssueWidth;
            break;
          case Domain::FloatingPoint:
            qcap = cfg.fpIqSize;
            width = cfg.fpIssueWidth;
            break;
          case Domain::Memory:
            qcap = cfg.lsqSize;
            width = cfg.memIssueWidth;
            break;
          default:
            break;
        }
        dex.push_back(e_exec);
        const std::size_t issue_w = static_cast<std::size_t>(width);
        const std::size_t queue_cap = static_cast<std::size_t>(qcap);
        if (dex.size() > issue_w)
            add_edge(dex[dex.size() - 1 - issue_w], e_exec);
        if (qcap > 0 && dex.size() > queue_cap)
            add_edge(dex[dex.size() - 1 - queue_cap], e_disp);

        if (t.mispredict) {
            pending_redirect_from = e_exec;
            pending_redirect_start = static_cast<double>(t.execDone);
        }
    }
}

void
SegmentAnalyzer::buildCsr()
{
    // A stable counting pass: each event's edges keep their insertion
    // order, so the slack scans below visit them in the order the DAG
    // was built and every floating-point operation runs as it would
    // over per-event lists.
    auto group = [&](const std::vector<std::uint32_t> &key,
                     const std::vector<std::uint32_t> &val,
                     std::vector<std::uint32_t> &off,
                     std::vector<std::uint32_t> &idx) {
        off.assign(ev.size() + 1, 0);
        for (std::uint32_t k : key)
            ++off[k + 1];
        for (std::size_t i = 0; i < ev.size(); ++i)
            off[i + 1] += off[i];
        cursor.assign(off.begin(), off.end() - 1);
        idx.resize(key.size());
        for (std::size_t e = 0; e < key.size(); ++e)
            idx[cursor[key[e]]++] = val[e];
    };
    group(edgeFrom, edgeTo, succOff, succIdx);
    group(edgeTo, edgeFrom, predOff, predIdx);
}

void
SegmentAnalyzer::analyze(const std::vector<InstrTiming> &segment,
                         NodeHistograms &out)
{
    if (segment.empty())
        return;

    const double cycle_ps = 1e6 / cfg.nominalMhz;
    buildDag(segment);
    buildCsr();

    const double seg_start =
        static_cast<double>(segment.front().fetch);
    const double seg_end =
        static_cast<double>(segment.back().commit) + cycle_ps;

    // ---- the shaker ----
    double max_pf = 0.0;
    for (const Event &e : ev)
        max_pf = std::max(max_pf, e.pf0);
    double threshold = max_pf * 0.95;

    auto slack_out = [&](std::size_t i) {
        double limit = seg_end;
        for (std::uint32_t k = succOff[i]; k < succOff[i + 1]; ++k)
            limit = std::min(limit, ev[succIdx[k]].start);
        return limit - ev[i].end();
    };
    auto slack_in = [&](std::size_t i) {
        double limit = seg_start;
        for (std::uint32_t k = predOff[i]; k < predOff[i + 1]; ++k)
            limit = std::max(limit, ev[predIdx[k]].end());
        return ev[i].start - limit;
    };

    // Stretch event e into `avail` ps of slack, honoring the power
    // threshold and the max-stretch floor.  Returns slack consumed.
    auto stretch_event = [&](Event &e, double avail) {
        if (avail <= 0.0 || e.stretch >= cfg.maxStretch)
            return 0.0;
        if (e.pf < threshold)
            return 0.0;
        double want = (e.dur() + avail) / e.nominalDur;
        // Power factor scales as 1/stretch^2; do not drop (far) below
        // the current threshold ("scales the event until ... its
        // power factor drops below the current threshold").
        double pf_limit = std::sqrt(e.pf0 / threshold);
        double s_new = std::min({want, cfg.maxStretch,
                                 std::max(pf_limit, e.stretch)});
        if (s_new <= e.stretch)
            return 0.0;
        double before = e.dur();
        e.stretch = s_new;
        e.pf = e.pf0 / (e.stretch * e.stretch);
        return e.dur() - before;
    };

    for (int pass = 0; pass < cfg.maxPasses; ++pass) {
        bool backward = (pass % 2) == 0;
        bool changed = false;

        if (backward) {
            for (std::size_t i = ev.size(); i-- > 0;) {
                Event &e = ev[i];
                double sl = slack_out(i);
                if (sl <= 1e-9)
                    continue;
                double used = stretch_event(e, sl);
                double remaining = sl - used;
                if (remaining > 1e-9) {
                    // Move the event later: slack migrates to the
                    // incoming edges.
                    e.start += remaining;
                    changed = true;
                }
                if (used > 0.0)
                    changed = true;
            }
        } else {
            for (std::size_t i = 0; i < ev.size(); ++i) {
                Event &e = ev[i];
                double sl = slack_in(i);
                if (sl <= 1e-9)
                    continue;
                double used = stretch_event(e, sl);
                // Stretching into incoming slack: keep the end fixed.
                if (used > 0.0) {
                    e.start -= used;
                    changed = true;
                }
                double remaining = sl - used;
                if (remaining > 1e-9) {
                    // Move the event earlier: slack migrates to the
                    // outgoing edges.
                    e.start -= remaining;
                    changed = true;
                }
            }
        }

        threshold *= cfg.thresholdDecay;
        if (!changed && threshold < max_pf * 0.05)
            break;
    }

    // ---- summarize into per-domain histograms ----
    for (const Event &e : ev) {
        if (e.domain == Domain::External)
            continue;
        Mhz f = cfg.steps.quantize(cfg.nominalMhz / e.stretch);
        double cycles = e.nominalDur / cycle_ps;
        out.hist[static_cast<int>(e.domain)].add(f, cycles);
    }
    out.spanPs += static_cast<Tick>(seg_end - seg_start);
    out.instrs += segment.size();
    out.segments += 1;
}

AnalysisCollector::AnalysisCollector(const ShakerConfig &cfg,
                                     const Limits &l)
    : analyzer(cfg), limits(l)
{
}

void
AnalysisCollector::onInstr(const InstrTiming &t)
{
    if (t.node != curNode) {
        flush();
        curNode = t.node;
    }
    if (curNode == 0)
        return;
    auto it = results.find(curNode);
    if (it != results.end()) {
        const NodeHistograms &h = it->second;
        if (h.instrs >= limits.maxInstrsPerNode ||
            h.segments >= limits.maxSegmentsPerNode)
            return;  // node already analyzed enough
    }
    segment.push_back(t);
    if (segment.size() >= limits.maxSegmentInstrs)
        flush();
}

void
AnalysisCollector::flush()
{
    if (curNode != 0 && !segment.empty())
        analyzer.analyze(segment, results[curNode]);
    segment.clear();
}

std::map<std::uint32_t, NodeHistograms>
AnalysisCollector::finish()
{
    flush();
    return std::move(results);
}

} // namespace mcd::core
