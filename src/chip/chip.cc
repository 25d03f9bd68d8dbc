#include "chip/chip.hh"

#include <limits>

#include "chip/multi.hh"
#include "control/policy.hh"
#include "util/logging.hh"
#include "workload/spec.hh"

namespace mcd::chip
{

CoordConfig
parseCoordSpec(const std::string &text)
{
    CoordConfig c;
    if (text.empty())
        return c;

    auto bad = [&](const std::string &why) {
        return workload::SpecError(strprintf(
            "bad coordinator spec '%s': %s", text.c_str(), why.c_str()));
    };
    // The name is checked between parse and canonicalization, so any
    // other policy is refused as such, valid for it or not.
    control::PolicySpec spec;
    std::string err;
    if (!control::parseSpec(text, spec, err))
        throw bad(err);
    if (spec.policy != "chip-coord")
        throw workload::SpecError(strprintf(
            "coordinator spec '%s' must name the chip-coord policy",
            text.c_str()));
    try {
        spec = control::canonicalPolicySpec(std::move(spec));
    } catch (const workload::SpecError &e) {
        throw bad(e.what());
    }

    c.enabled = true;
    c.hi = spec.num("hi");
    c.lo = spec.num("lo");
    c.step = spec.num("step");
    c.canonSpec = spec.str();
    if (c.lo > c.hi)
        throw workload::SpecError(strprintf(
            "coordinator spec '%s': lo=%g exceeds hi=%g",
            text.c_str(), c.lo, c.hi));
    return c;
}

Chip::Chip(const ChipConfig &ccfg, const sim::SimConfig &scfg,
           const power::PowerConfig &pcfg,
           const std::vector<std::string> &tile_workloads)
    : cfg(ccfg), simCfg(scfg), powerCfg(pcfg), uncorePower(pcfg)
{
    if (tile_workloads.empty())
        fatal("chip::Chip needs at least one tile workload");

    int n = static_cast<int>(tile_workloads.size());
    for (int k = 0; k < n; ++k) {
        sim::SimConfig tile_cfg = simCfg;
        // Tile 0 keeps the seed unchanged so a one-tile chip is
        // bit-identical to the single-core simulator; the golden
        // ratio multiplier decorrelates the other tiles' jitter
        // deterministically.
        constexpr std::uint64_t golden = 0x9E3779B97F4A7C15ULL;
        tile_cfg.jitterSeed =
            simCfg.jitterSeed ^
            (golden * static_cast<std::uint64_t>(k));
        tiles_.push_back(std::make_unique<Tile>(
            tile_cfg, powerCfg,
            workload::makeBenchmark(
                tile_workloads[static_cast<std::size_t>(k)])));
    }

    // The shared uncore only exists with someone to share it with:
    // a one-tile chip keeps the core's private memory path, which is
    // what makes N=1 byte-identical to sim::Processor.
    if (n >= 2) {
        uncore = std::make_unique<Uncore>(cfg, simCfg, uncorePower, n);
        for (int k = 0; k < n; ++k)
            tiles_[static_cast<std::size_t>(k)]->proc
                .setSharedMemSide(uncore.get(), k);
    }
}

void
Chip::setTileHook(int k, sim::IntervalHook *h, std::uint64_t instrs)
{
    tiles_[static_cast<std::size_t>(k)]->proc.setIntervalHook(
        h, instrs);
}

void
Chip::coordinate(Tick now)
{
    UncoreStats s = uncore->intervalStats(true);
    double interval = static_cast<double>(cfg.coordIntervalPs);
    double occ =
        static_cast<double>(s.l2QueuedPs + s.dramQueuedPs) / interval;
    double range = cfg.uncoreMaxMhz - cfg.uncoreMinMhz;
    Mhz f = uncore->freq();
    if (occ > coord.hi)
        f += coord.step * range;
    else if (occ < coord.lo)
        f -= coord.step * range;
    else
        return;
    if (uncore->setFreq(f, now))
        ++coordReconfigs;
}

ChipResult
Chip::run(std::uint64_t max_instrs_per_tile)
{
    std::size_t alive = 0;
    for (auto &t : tiles_) {
        t->proc.beginRun(max_instrs_per_tile);
        if (t->proc.runDone()) {
            // Empty stream: finish immediately, as run() would.
            t->result = t->proc.finishRun();
            t->done = true;
        } else {
            ++alive;
        }
    }

    Tick now = 0;
    Tick next_coord = (coord.enabled && uncore)
                          ? cfg.coordIntervalPs
                          : std::numeric_limits<Tick>::max();

    // Global event order: the earliest pending clock edge across
    // all tiles goes next; on a tie the lowest tile index wins (the
    // kernel already breaks intra-tile ties by domain index).
    while (alive > 0) {
        int best = -1;
        Tick best_t = std::numeric_limits<Tick>::max();
        for (std::size_t k = 0; k < tiles_.size(); ++k) {
            if (tiles_[k]->done)
                continue;
            Tick e = tiles_[k]->proc.nextEventTime();
            if (e < best_t) {
                best_t = e;
                best = static_cast<int>(k);
            }
        }

        Tile &t = *tiles_[static_cast<std::size_t>(best)];
        t.proc.stepEdge();
        now = best_t;
        if (t.proc.runDone()) {
            t.result = t.proc.finishRun();
            t.done = true;
            --alive;
        }

        if (now >= next_coord) {
            coordinate(now);
            while (next_coord <= now)
                next_coord += cfg.coordIntervalPs;
        }
    }

    ChipResult r;
    r.timePs = now;
    for (auto &t : tiles_)
        r.tiles.push_back(t->result);
    if (uncore) {
        uncore->finish(now);
        r.uncoreEnergyNj = uncorePower.chipEnergyNj();
        r.uncoreAvgMhz = uncore->averageFreq();
        r.uncore = uncore->totals();
        r.tileDramAccesses = uncore->tileDramAccesses();
    } else {
        r.tileDramAccesses.assign(tiles_.size(), 0);
        for (std::size_t k = 0; k < tiles_.size(); ++k)
            r.tileDramAccesses[k] = r.tiles[k].dramAccesses;
        r.uncoreAvgMhz = cfg.uncoreMaxMhz;
    }
    r.uncoreReconfigs = coordReconfigs;
    return r;
}

} // namespace mcd::chip
