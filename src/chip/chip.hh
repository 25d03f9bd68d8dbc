/**
 * @file
 * The tiled many-core MCD chip (src/chip/): N tiles, each a full
 * four-domain MCD core (sim::Processor — Frontend/ExecDomain
 * components on per-domain DomainClocks under a sim::Kernel), plus
 * the shared uncore (chip/uncore.hh) that couples them.
 *
 * The Chip facade owns one global event-ordered schedule across all
 * tiles' clocks: at every step the tile with the earliest next clock
 * edge advances by exactly one edge, ties broken by tile index (and
 * by domain index inside a tile, as the kernel always has).  Each
 * tile is driven through the step-wise surface that
 * sim::Processor::run() itself is built on (beginRun / stepEdge /
 * finishRun), so a one-tile chip executes the same code path as a
 * bare Processor and its output is byte-identical by construction —
 * the shared uncore is only installed for N >= 2 (one tile has
 * nothing to contend with).
 *
 * Tile 0 uses SimConfig::jitterSeed unchanged; tile k derives its
 * jitter seed deterministically from it (k = 0 is the identity), so
 * a co-schedule is bit-reproducible from one seed and tile 0 of a
 * one-tile chip matches the single-core simulator exactly.
 */

#ifndef MCD_CHIP_CHIP_HH
#define MCD_CHIP_CHIP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chip/config.hh"
#include "chip/uncore.hh"
#include "power/power.hh"
#include "sim/processor.hh"
#include "workload/suite.hh"

namespace mcd::chip
{

/**
 * Chip-level coordinator parameters, parsed from a canonical
 * `chip-coord:` coordinator spec (the schema lives in chip.cc and
 * takes its defaults from here).  Default-constructed = disabled:
 * the uncore stays at its maximum frequency.
 */
struct CoordConfig
{
    bool enabled = false;
    double hi = 0.25;   ///< occupancy above which the uncore speeds up
    double lo = 0.05;   ///< occupancy below which it slows down
    double step = 0.10; ///< move, as a fraction of the uncore range
    std::string canonSpec;  ///< canonical spec text ("" = disabled)
};

/**
 * Canonicalize @p text against the coordinator registry (one kind,
 * `chip-coord`) and extract the coordinator parameters.  An empty
 * @p text disables the coordinator.  Throws workload::SpecError on
 * an unknown coordinator or malformed parameters, so servers can
 * reject bad requests instead of dying.
 */
CoordConfig parseCoordSpec(const std::string &text);

/** Aggregate results of one chip run. */
struct ChipResult
{
    /** Per-tile results, exactly what Processor::run returns. */
    std::vector<sim::RunResult> tiles;
    /** Global end time: the last processed edge on any tile. */
    Tick timePs = 0;
    /** Shared-fabric (uncore clock + leakage) energy; 0 for N=1. */
    double uncoreEnergyNj = 0.0;
    /** Time-weighted average uncore frequency over the run. */
    Mhz uncoreAvgMhz = 0.0;
    /** Coordinator frequency changes applied. */
    std::uint64_t uncoreReconfigs = 0;
    /** Whole-run shared-uncore counters (zeros for N=1). */
    UncoreStats uncore;
    /** DRAM requests issued per tile through the shared queue. */
    std::vector<std::uint64_t> tileDramAccesses;
};

class Chip
{
  public:
    /**
     * @param ccfg  shared-uncore knobs
     * @param scfg  per-tile core configuration (every tile identical
     *              up to the derived jitter seed)
     * @param pcfg  power model configuration (per tile + uncore)
     * @param tile_workloads one canonical workload spec per tile
     *              (see chip/multi.hh); the tile count is its size,
     *              and util::SpecError is thrown if it is empty
     */
    Chip(const ChipConfig &ccfg, const sim::SimConfig &scfg,
         const power::PowerConfig &pcfg,
         const std::vector<std::string> &tile_workloads);

    int tiles() const { return static_cast<int>(tiles_.size()); }

    /** Tile @p k's core, for hooks and inspection. */
    sim::Processor &tile(int k)
    {
        return tiles_[static_cast<std::size_t>(k)]->proc;
    }

    /**
     * Install tile @p k's per-tile interval controller (fired from
     * that tile's commit stream, exactly as on a single core).
     */
    void setTileHook(int k, sim::IntervalHook *h,
                     std::uint64_t instrs);

    /** Install the chip-level uncore coordinator. */
    void setCoordinator(const CoordConfig &c) { coord = c; }

    /**
     * Run every tile to @p max_instrs_per_tile committed
     * instructions (or stream end) in one global event order.
     */
    ChipResult run(std::uint64_t max_instrs_per_tile);

  private:
    struct Tile
    {
        workload::Benchmark bm;
        sim::Processor proc;
        bool done = false;
        sim::RunResult result;

        Tile(const sim::SimConfig &scfg,
             const power::PowerConfig &pcfg, workload::Benchmark b)
            : bm(std::move(b)),
              proc(scfg, pcfg, bm.program, bm.ref)
        {
        }
    };

    void coordinate(Tick now);

    ChipConfig cfg;
    sim::SimConfig simCfg;
    power::PowerConfig powerCfg;
    power::PowerModel uncorePower;
    std::unique_ptr<Uncore> uncore;  ///< null for a one-tile chip
    std::vector<std::unique_ptr<Tile>> tiles_;
    CoordConfig coord;
    std::uint64_t coordReconfigs = 0;
};

} // namespace mcd::chip

#endif // MCD_CHIP_CHIP_HH
