#include "core/runtime.hh"

namespace mcd::core
{

using workload::Marker;
using workload::MarkerKind;

ProfileRuntime::ProfileRuntime(const CallTree &tree,
                               const InstrumentationPlan &p,
                               const RuntimeCosts &c)
    : plan(p), costs(c), path(modeTracksPath(p.mode)), walker(tree)
{
    shadow = {1000.0, 1000.0, 1000.0, 1000.0};
}

std::uint32_t
ProfileRuntime::currentNode() const
{
    return path ? walker.current() : 0;
}

sim::MarkerAction
ProfileRuntime::instrPoint(int cycles)
{
    ++stats_.dynInstrPoints;
    sim::MarkerAction a;
    a.stallCycles = cycles;
    a.energyPj = cycles * costs.energyPjPerCycle;
    return a;
}

sim::MarkerAction
ProfileRuntime::reconfigPoint(bool enter, const sim::FreqSet &freqs,
                              int cycles)
{
    if (enter) {
        saved.push_back(shadow);
        shadow = freqs;
    } else {
        shadow = saved.back();
        saved.pop_back();
    }
    ++stats_.dynReconfigPoints;
    sim::MarkerAction a = instrPoint(cycles);
    a.reconfig = true;
    a.freqs = shadow;
    return a;
}

sim::MarkerAction
ProfileRuntime::onMarker(const Marker &m)
{
    if (m.kind == MarkerKind::CallSite)
        return path && plan.instrumentedSites.count(m.site)
                   ? instrPoint(costs.siteTrackCycles)
                   : sim::MarkerAction{};
    bool enter = m.kind == MarkerKind::FuncEnter ||
                 m.kind == MarkerKind::LoopEnter;
    bool func = m.kind == MarkerKind::FuncEnter ||
                m.kind == MarkerKind::FuncExit;
    std::uint16_t entity = func ? m.func : m.loop;
    // An exit restores only what an entry saved.
    bool restorable = enter || !saved.empty();

    if (!path) {
        // L+F and F: every point reconfigures to frequencies known
        // statically per subroutine or loop.
        const auto &freqs =
            func ? plan.staticFuncFreqs : plan.staticLoopFreqs;
        auto it = freqs.find(entity);
        if (it == freqs.end() || !restorable)
            return {};
        return reconfigPoint(enter, it->second,
                             costs.staticReconfigCycles);
    }

    // The node an entry enters or an exit leaves.
    std::uint32_t node = walker.current();
    walker.onMarker(m);
    if (enter)
        node = walker.current();
    const auto &points =
        func ? plan.instrumentedFuncs : plan.instrumentedLoops;
    if (!points.count(entity))
        return {};
    int cycles = func ? costs.funcTrackCycles : costs.loopTrackCycles;
    if (node != 0 && plan.nodeReconfigures(node) && restorable)
        return reconfigPoint(enter, plan.nodeFreqs.at(node),
                             cycles + costs.reconfigExtraCycles);
    return instrPoint(cycles);
}

} // namespace mcd::core
