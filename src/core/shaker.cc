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
    : cfg(c), cyclePs(1e6 / c.nominalMhz)
{
    // External keeps pf 0: its events carry the fixed DRAM latency
    // and are never stretched.
    std::copy(cfg.domainPowerWeight.begin(), cfg.domainPowerWeight.end(),
              pf0.begin());
}

std::uint32_t
SegmentAnalyzer::addEvent(Domain d, double start, double nominal_dur)
{
    Event e;
    e.domain = d;
    e.start = start;
    e.nominalDur = nominal_dur;
    ev.push_back(e);
    return static_cast<std::uint32_t>(ev.size() - 1);
}

void
SegmentAnalyzer::addEdge(std::uint32_t from, std::uint32_t to)
{
    edgeFrom.push_back(from);
    edgeTo.push_back(to);
}

void
SegmentAnalyzer::add(const InstrTiming &t)
{
    // Seqs are consecutive, so a producer inside the segment sits at
    // its seq's offset from the first.
    const std::size_t i = valueEvent.size();
    if (i == 0) {
        firstSeq = t.seq;
        segStart = t.fetch;
    }
    assert(t.seq - firstSeq == i);
    lastCommit = t.commit;

    // Resource tracking for structural edges: bandwidth chains are
    // width-aware (instruction i's fetch follows instruction
    // i - fetchWidth's fetch, etc.), occupancy edges bound in-flight
    // counts (ROB, issue queues).
    //
    // Redirect modeling: fetch after a mispredicted branch depends on
    // the branch's execution plus a front-end refill event whose
    // length scales with the front-end clock.

    // fetch, dispatch/rename (front end)
    std::uint32_t e_fetch = addEvent(
        Domain::FrontEnd, static_cast<double>(t.fetch), cyclePs);
    std::uint32_t e_disp = addEvent(
        Domain::FrontEnd, static_cast<double>(t.dispatch), cyclePs);
    // execute (owning domain)
    double exec_dur = static_cast<double>(t.execDone) -
                      static_cast<double>(t.issue);
    std::uint32_t e_exec =
        addEvent(t.domain, static_cast<double>(t.issue),
                 std::max(exec_dur, cyclePs * 0.5));
    // memory access (loads only); the fixed external-memory latency
    // of misses is carved out into an unscalable External event so
    // the shaker never treats DRAM time as scalable memory-domain
    // work.
    std::uint32_t e_mem = NONE;
    std::uint32_t e_ext = NONE;
    if (t.cls == InstrClass::Load && t.memDone > t.memStart) {
        double total = static_cast<double>(t.memDone) -
                       static_cast<double>(t.memStart);
        double scalable = total;
        if (t.l2Miss) {
            scalable = cyclePs *
                       (cfg.l1LatencyCycles + cfg.l2LatencyCycles);
            scalable = std::min(scalable, total);
        }
        e_mem = addEvent(Domain::Memory, static_cast<double>(t.memStart),
                         std::max(scalable, cyclePs * 0.5));
        if (t.l2Miss && total > scalable)
            e_ext = addEvent(Domain::External,
                             static_cast<double>(t.memStart) + scalable,
                             total - scalable);
    }
    // commit (front end)
    std::uint32_t e_commit = addEvent(
        Domain::FrontEnd, static_cast<double>(t.commit), cyclePs);

    // intra-instruction chain
    addEdge(e_fetch, e_disp);
    addEdge(e_disp, e_exec);
    if (e_mem != NONE) {
        addEdge(e_exec, e_mem);
        if (e_ext != NONE) {
            addEdge(e_mem, e_ext);
            addEdge(e_ext, e_commit);
        } else {
            addEdge(e_mem, e_commit);
        }
    } else {
        addEdge(e_exec, e_commit);
    }

    // mispredict redirect: branch exec -> refill -> this fetch
    if (pendingRedirectFrom != NONE) {
        std::uint32_t e_redir =
            addEvent(Domain::FrontEnd, pendingRedirectStart,
                     cyclePs * cfg.mispredictPenalty);
        addEdge(pendingRedirectFrom, e_redir);
        addEdge(e_redir, e_fetch);
        pendingRedirectFrom = NONE;
    }

    // width-aware structural bandwidth chains
    fetchEvents.push_back(e_fetch);
    const std::size_t fetch_w = static_cast<std::size_t>(cfg.fetchWidth);
    if (fetchEvents.size() > fetch_w)
        addEdge(fetchEvents[fetchEvents.size() - 1 - fetch_w], e_fetch);
    // NOTE: no chain over full mem-access events — cache ports are
    // pipelined (occupied only at initiation), which the memory-domain
    // exec (agen) chain below already models.

    // data dependences (producers outside the segment are simply
    // "ready"; no edge).  Unsigned wrap folds dep < firstSeq into the
    // bound.
    for (std::uint64_t dep : {t.dep1, t.dep2}) {
        std::uint64_t j = dep - firstSeq;
        if (dep && j < i)
            addEdge(valueEvent[j], e_exec);
    }
    valueEvent.push_back(
        e_ext != NONE ? e_ext : (e_mem != NONE ? e_mem : e_exec));

    // Retire bandwidth chain and ROB occupancy edge.
    commitEvents.push_back(e_commit);
    std::size_t idx = commitEvents.size() - 1;
    const std::size_t retire_w = static_cast<std::size_t>(cfg.retireWidth);
    const std::size_t rob_sz = static_cast<std::size_t>(cfg.robSize);
    if (idx >= retire_w)
        addEdge(commitEvents[idx - retire_w], e_commit);
    if (idx >= rob_sz)
        addEdge(commitEvents[idx - rob_sz], e_disp);

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
        addEdge(dex[dex.size() - 1 - issue_w], e_exec);
    if (qcap > 0 && dex.size() > queue_cap)
        addEdge(dex[dex.size() - 1 - queue_cap], e_disp);

    if (t.mispredict) {
        pendingRedirectFrom = e_exec;
        pendingRedirectStart = static_cast<double>(t.execDone);
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
    for (const InstrTiming &t : segment)
        add(t);
    finish(out);
}

void
SegmentAnalyzer::finish(NodeHistograms &out)
{
    if (valueEvent.empty())
        return;

    buildCsr();

    const double seg_start = static_cast<double>(segStart);
    const double seg_end = static_cast<double>(lastCommit) + cyclePs;

    // ---- the shaker ----
    auto pf0_of = [&](const Event &e) {
        return pf0[static_cast<std::size_t>(e.domain)];
    };
    double max_pf = 0.0;
    for (const Event &e : ev)
        max_pf = std::max(max_pf, pf0_of(e));
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
        // Power factor scales as 1/stretch^2 (exactly pf0 while
        // unstretched); do not drop (far) below the current threshold
        // ("scales the event until ... its power factor drops below
        // the current threshold").
        const double e_pf0 = pf0_of(e);
        if (e_pf0 / (e.stretch * e.stretch) < threshold)
            return 0.0;
        double want = (e.dur() + avail) / e.nominalDur;
        double pf_limit = std::sqrt(e_pf0 / threshold);
        double s_new = std::min({want, cfg.maxStretch,
                                 std::max(pf_limit, e.stretch)});
        if (s_new <= e.stretch)
            return 0.0;
        double before = e.dur();
        e.stretch = s_new;
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
        double cycles = e.nominalDur / cyclePs;
        out.hist[static_cast<int>(e.domain)].add(f, cycles);
    }
    out.spanPs += static_cast<Tick>(seg_end - seg_start);
    out.instrs += valueEvent.size();
    out.segments += 1;

    // Start the next segment empty; the vectors keep their capacity.
    ev.clear();
    edgeFrom.clear();
    edgeTo.clear();
    valueEvent.clear();
    fetchEvents.clear();
    commitEvents.clear();
    for (auto &chain : domainExec)
        chain.clear();
    pendingRedirectFrom = NONE;
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
    analyzer.add(t);
    if (analyzer.pending() >= limits.maxSegmentInstrs)
        flush();
}

void
AnalysisCollector::flush()
{
    // Only records of a tracked node (curNode != 0) are ever added.
    if (analyzer.pending() != 0)
        analyzer.finish(results[curNode]);
}

std::map<std::uint32_t, NodeHistograms>
AnalysisCollector::finish()
{
    flush();
    return std::move(results);
}

} // namespace mcd::core
