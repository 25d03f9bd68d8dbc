#include "chip/chip.hh"

#include <limits>
#include <memory>

#include "chip/multi.hh"
#include "util/logging.hh"
#include "util/spec.hh"

namespace mcd::chip
{

namespace
{

/** The shared-uncore coordinator as a spec-engine kind. */
class CoordKind final : public util::SpecKind
{
  public:
    const char *
    name() const override
    {
        return "chip-coord";
    }

    const char *
    description() const override
    {
        return "chip-level uncore/DRAM frequency coordinator "
               "(aggregated queue occupancy)";
    }

    std::vector<util::SpecParamInfo>
    params() const override
    {
        using P = util::SpecParamInfo;
        const CoordConfig def;
        return {
            P::num("hi", def.hi,
                   "occupancy above which the uncore speeds "
                   "up (queued ps per interval ps)",
                   0.0, 1000.0),
            P::num("lo", def.lo,
                   "occupancy below which the uncore slows "
                   "down",
                   0.0, 1000.0),
            P::num("step", def.step,
                   "frequency move per decision, as a "
                   "fraction of the uncore range",
                   0.0, 1.0),
        };
    }
};

const util::SpecRegistry &
coordinators()
{
    static const util::SpecRegistry *reg = [] {
        auto *r = new util::SpecRegistry("coordinator");
        r->add(std::make_unique<CoordKind>());
        return r;
    }();
    return *reg;
}

} // namespace

CoordConfig
parseCoordSpec(const std::string &text)
{
    CoordConfig c;
    if (text.empty())
        return c;

    std::string name;
    util::SpecParams params;
    std::string err;
    if (!util::splitSpec(text, "coordinator spec", name, params, err))
        throw util::SpecError(err);
    coordinators().canonicalize(name, params);

    c.enabled = true;
    c.hi = params.at("hi").num;
    c.lo = params.at("lo").num;
    c.step = params.at("step").num;
    c.canonSpec = params.str(name);
    if (c.lo > c.hi)
        throw util::SpecError(strprintf(
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
